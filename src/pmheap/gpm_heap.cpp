#include "pmheap/gpm_heap.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/hash.hpp"
#include "common/status.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/thread_ctx.hpp"
#include "pmem/pm_events.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

namespace {

/** Redo-record header: flag first (the commit point), body after. */
constexpr std::uint64_t kFlagOff = 0;
constexpr std::uint64_t kBatchOff = 4;
constexpr std::uint64_t kNAllocsOff = 8;
constexpr std::uint64_t kNFreesOff = 12;
constexpr std::uint64_t kBlobBytesOff = 16;
constexpr std::uint64_t kBodyOff = 24; ///< handles then blob, 8-aligned

constexpr std::uint64_t
align256(std::uint64_t v)
{
    return (v + 255) & ~std::uint64_t(255);
}

} // namespace

std::uint64_t
GpmHeapParams::slabBytes() const
{
    std::uint64_t total = 0;
    for (std::uint32_t cs : class_sizes)
        total += std::uint64_t(cs) * slots_per_class;
    return total;
}

std::uint64_t
GpmHeapParams::bitmapBytes() const
{
    // One byte-aligned, 8-byte-padded bit run per class.
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < class_sizes.size(); ++c)
        total += (slots_per_class + 63) / 64 * 8;
    return total;
}

std::uint64_t
GpmHeapParams::redoBytes() const
{
    return kBodyOff + 8ull * max_tx_ops + max_tx_blob;
}

std::uint64_t
GpmHeapParams::poolBytes() const
{
    return align256(slabBytes()) + align256(bitmapBytes()) +
           align256(redoBytes()) + 3 * 256;
}

GpmHeap::GpmHeap(Machine &m, const GpmHeapParams &p) : m_(&m), p_(p)
{
    GPM_REQUIRE(!p_.class_sizes.empty(), "GpmHeap needs size classes");
    for (std::size_t c = 0; c < p_.class_sizes.size(); ++c) {
        GPM_REQUIRE(p_.class_sizes[c] % 8 == 0 && p_.class_sizes[c] > 0,
                    "size class ", p_.class_sizes[c],
                    " is not a positive multiple of 8");
        GPM_REQUIRE(c == 0 || p_.class_sizes[c] > p_.class_sizes[c - 1],
                    "size classes must be strictly ascending");
    }
    GPM_REQUIRE(p_.slots_per_class > 0, "GpmHeap needs slots");

    std::uint64_t off = 0, bm = 0;
    for (std::uint32_t cs : p_.class_sizes) {
        class_off_.push_back(off);
        class_bm_off_.push_back(bm);
        off += std::uint64_t(cs) * p_.slots_per_class;
        bm += (p_.slots_per_class + 63) / 64 * 8;
    }
    free_.resize(p_.class_sizes.size());
    scratch_.resize(p_.class_sizes.back());
}

void
GpmHeap::setup(bool create)
{
    slabs_ = gpmMap(*m_, p_.name + ".slabs", p_.slabBytes(), create);
    bitmap_ = gpmMap(*m_, p_.name + ".bitmap", p_.bitmapBytes(), create);
    redo_ = gpmMap(*m_, p_.name + ".redo", p_.redoBytes(), create);

    if (PmEventRecorder *rec = m_->pool().recorder()) {
        // Slab payloads are staged while unreachable, so no atomic
        // granule; the redo record's commit point is the ordering of
        // its flag store, not a granule, so none there either.
        rec->declareRange(p_.name + ".slabs", slabs_.offset, slabs_.size,
                          0, PmRangeKind::Data);
        rec->declareRange(p_.name + ".bitmap", bitmap_.offset,
                          bitmap_.size, 0, PmRangeKind::Data);
        rec->declareRange(redoLabel(), redo_.offset, redo_.size, 0,
                          PmRangeKind::Commit);
        // Protocol: payload durable before the record commits, record
        // durable before the bitmap deltas apply.
        rec->declareOrder(p_.name + ".slabs", redoLabel(), false);
        rec->declareOrder(redoLabel(), p_.name + ".bitmap", false);
    }

    rebuildFreeLists();
    tx_open_ = false;
}

std::uint32_t
GpmHeap::classOf(std::uint32_t len) const
{
    for (std::size_t c = 0; c < p_.class_sizes.size(); ++c)
        if (len <= p_.class_sizes[c])
            return static_cast<std::uint32_t>(c);
    fatal("GpmHeap '", p_.name, "': no size class holds ", len, " bytes");
}

std::uint32_t
GpmHeap::classOfOffset(std::uint64_t off) const
{
    for (std::size_t c = 0; c < p_.class_sizes.size(); ++c) {
        std::uint64_t span =
            std::uint64_t(p_.class_sizes[c]) * p_.slots_per_class;
        if (off >= class_off_[c] && off < class_off_[c] + span)
            return static_cast<std::uint32_t>(c);
    }
    fatal("GpmHeap '", p_.name, "': offset ", off, " is not a slot");
}

std::uint64_t
GpmHeap::alloc(std::uint32_t len)
{
    GPM_REQUIRE(len > 0, "GpmHeap::alloc of zero bytes");
    std::uint32_t c = classOf(len);
    GPM_REQUIRE(!free_[c].empty(), "GpmHeap '", p_.name,
                "': size class ", p_.class_sizes[c], " exhausted");
    std::uint32_t idx = free_[c].back();
    free_[c].pop_back();
    telemetry::count("pmheap.alloc");
    std::uint64_t off =
        class_off_[c] + std::uint64_t(idx) * p_.class_sizes[c];
    return (std::uint64_t(len) << 40) | off;
}

void
GpmHeap::cancel(std::uint64_t handle)
{
    std::uint64_t off = offOf(handle);
    std::uint32_t c = classOfOffset(off);
    free_[c].push_back(static_cast<std::uint32_t>(
        (off - class_off_[c]) / p_.class_sizes[c]));
    telemetry::count("pmheap.cancel");
}

std::uint64_t
GpmHeap::freeSlotsFor(std::uint32_t len) const
{
    return free_[classOf(len)].size();
}

void
GpmHeap::txBegin(TxMode mode, std::uint32_t batch_id,
                 const std::vector<std::uint64_t> &allocs,
                 const std::vector<std::uint64_t> &frees,
                 const void *blob, std::uint32_t blob_bytes)
{
    GPM_REQUIRE(!tx_open_, "GpmHeap '", p_.name,
                "': txBegin with a record already in flight");
    GPM_REQUIRE(mode != TxMode::None, "txBegin needs Intent or Commit");
    GPM_REQUIRE(allocs.size() + frees.size() <= p_.max_tx_ops,
                "GpmHeap '", p_.name, "': record overflow (",
                allocs.size() + frees.size(), " handles > ",
                p_.max_tx_ops, ")");
    GPM_REQUIRE(blob_bytes <= p_.max_tx_blob, "GpmHeap '", p_.name,
                "': blob overflow (", blob_bytes, " > ", p_.max_tx_blob,
                ")");
    telemetry::Span span("pmheap", "tx_begin");

    // Body first: counts + handles + blob in one persisted store...
    std::vector<std::uint8_t> body(
        (kBodyOff - kBatchOff) + 8 * (allocs.size() + frees.size()) +
        blob_bytes);
    const std::uint32_t n_allocs = static_cast<std::uint32_t>(
        allocs.size());
    const std::uint32_t n_frees = static_cast<std::uint32_t>(
        frees.size());
    std::memcpy(body.data() + (kBatchOff - kBatchOff), &batch_id, 4);
    std::memcpy(body.data() + (kNAllocsOff - kBatchOff), &n_allocs, 4);
    std::memcpy(body.data() + (kNFreesOff - kBatchOff), &n_frees, 4);
    std::memcpy(body.data() + (kBlobBytesOff - kBatchOff), &blob_bytes,
                4);
    std::uint8_t *w = body.data() + (kBodyOff - kBatchOff);
    if (n_allocs) {
        std::memcpy(w, allocs.data(), 8ull * n_allocs);
        w += 8ull * n_allocs;
    }
    if (n_frees) {
        std::memcpy(w, frees.data(), 8ull * n_frees);
        w += 8ull * n_frees;
    }
    if (blob_bytes)
        std::memcpy(w, blob, blob_bytes);
    m_->cpuWritePersist(redo_.offset + kBatchOff, body.data(),
                        body.size(), 1);

    // ...then the mode flag. This store is the commit point: until it
    // is durable the record decodes as TxMode::None and recovery
    // ignores everything staged so far.
    const std::uint32_t flag = static_cast<std::uint32_t>(mode);
    m_->cpuWritePersist(redo_.offset + kFlagOff, &flag, 4, 1);

    telemetry::count("pmheap.tx_begin");
    tx_open_ = true;
}

void
GpmHeap::writeBitDurable(std::uint64_t handle, bool set)
{
    std::uint64_t off = offOf(handle);
    std::uint32_t c = classOfOffset(off);
    std::uint64_t idx = (off - class_off_[c]) / p_.class_sizes[c];
    std::uint64_t addr = bitmap_.offset + class_bm_off_[c] + idx / 8;
    std::uint8_t byte = m_->pool().load<std::uint8_t>(addr);
    const std::uint8_t mask = std::uint8_t(1u << (idx % 8));
    byte = set ? std::uint8_t(byte | mask) : std::uint8_t(byte & ~mask);
    m_->cpuWritePersist(addr, &byte, 1, 1);
}

void
GpmHeap::txCommit()
{
    GPM_REQUIRE(tx_open_, "GpmHeap '", p_.name,
                "': txCommit without txBegin");
    telemetry::Span span("pmheap", "tx_commit");

    InFlight rec;
    GPM_REQUIRE(inFlight(rec), "GpmHeap '", p_.name,
                "': in-flight record vanished before txCommit");
    for (std::uint64_t h : rec.allocs)
        writeBitDurable(h, true);
    for (std::uint64_t h : rec.frees) {
        writeBitDurable(h, false);
        // The slot only becomes reusable here, after the record that
        // frees it is durable — a same-batch alloc can never land on
        // a slot whose old contents are still live.
        std::uint64_t off = offOf(h);
        std::uint32_t c = classOfOffset(off);
        free_[c].push_back(static_cast<std::uint32_t>(
            (off - class_off_[c]) / p_.class_sizes[c]));
        telemetry::count("pmheap.free");
    }

    const std::uint32_t none = 0;
    m_->cpuWritePersist(redo_.offset + kFlagOff, &none, 4, 1);
    telemetry::count("pmheap.tx_commit");
    tx_open_ = false;
}

bool
GpmHeap::inFlight(InFlight &out) const
{
    const PmPool &pool = m_->pool();
    auto mode = static_cast<TxMode>(
        pool.load<std::uint32_t>(redo_.offset + kFlagOff));
    if (mode != TxMode::Intent && mode != TxMode::Commit)
        return false;
    out.mode = mode;
    out.batch_id = pool.load<std::uint32_t>(redo_.offset + kBatchOff);
    auto n_allocs =
        pool.load<std::uint32_t>(redo_.offset + kNAllocsOff);
    auto n_frees = pool.load<std::uint32_t>(redo_.offset + kNFreesOff);
    auto blob_bytes =
        pool.load<std::uint32_t>(redo_.offset + kBlobBytesOff);
    GPM_REQUIRE(n_allocs + n_frees <= p_.max_tx_ops &&
                    blob_bytes <= p_.max_tx_blob,
                "GpmHeap '", p_.name, "': corrupt redo record");
    out.allocs.resize(n_allocs);
    out.frees.resize(n_frees);
    out.blob.resize(blob_bytes);
    std::uint64_t at = redo_.offset + kBodyOff;
    if (n_allocs) {
        pool.read(at, out.allocs.data(), 8ull * n_allocs);
        at += 8ull * n_allocs;
    }
    if (n_frees) {
        pool.read(at, out.frees.data(), 8ull * n_frees);
        at += 8ull * n_frees;
    }
    if (blob_bytes)
        pool.read(at, out.blob.data(), blob_bytes);
    return true;
}

bool
GpmHeap::recover(bool apply_intent)
{
    telemetry::Span span("recovery", "gpmheap_recover");
    telemetry::count("pmheap.recover");

    InFlight rec;
    const bool had = inFlight(rec);
    if (had) {
        if (rec.mode == TxMode::Commit ||
            (rec.mode == TxMode::Intent && apply_intent)) {
            // Roll the record forward; the bit writes are idempotent
            // so a crash inside an earlier recovery replays cleanly.
            for (std::uint64_t h : rec.allocs)
                writeBitDurable(h, true);
            for (std::uint64_t h : rec.frees)
                writeBitDurable(h, false);
            telemetry::count("pmheap.recover_rolled_forward");
        } else {
            // Intent: the bitmap was never touched and the client's
            // own log rolls its references back — just discard.
            telemetry::count("pmheap.recover_discarded");
        }
        const std::uint32_t none = 0;
        m_->cpuWritePersist(redo_.offset + kFlagOff, &none, 4, 1);
    }
    rebuildFreeLists();
    tx_open_ = false;
    return had;
}

void
GpmHeap::rebuildFreeLists()
{
    const std::uint8_t *img = m_->pool().visible();
    for (std::size_t c = 0; c < p_.class_sizes.size(); ++c) {
        free_[c].clear();
        // Descending, so pop_back() allocates ascending slot order —
        // a deterministic function of the bitmap alone.
        for (std::uint32_t i = p_.slots_per_class; i-- > 0;) {
            std::uint64_t addr =
                bitmap_.offset + class_bm_off_[c] + i / 8;
            if (!((img[addr] >> (i % 8)) & 1u))
                free_[c].push_back(i);
        }
    }
}

std::uint64_t
GpmHeap::slotAddr(std::uint64_t handle) const
{
    std::uint64_t off = offOf(handle);
    std::uint32_t c = classOfOffset(off);
    GPM_REQUIRE(lenOf(handle) <= p_.class_sizes[c],
                "handle length exceeds its slot class");
    return slabs_.offset + off;
}

namespace {

/** kFnvPrime^7: an FNV-1a step over byte b followed by six steps over
 *  zero bytes is (h ^ b) * kFnvPrime^7. */
constexpr std::uint64_t kFnvPrime7 = kFnvPrime * kFnvPrime * kFnvPrime *
                                     kFnvPrime * kFnvPrime * kFnvPrime *
                                     kFnvPrime;

/** Word @p w of the payload stream whose seed hashes to @p seed_hash:
 *  fnv1aU64(w, seed_hash). A word index below 2^16 ends in six zero
 *  bytes (little-endian), and an FNV-1a step over a zero byte is a bare
 *  multiply, so the last seven steps fold into one multiply. */
std::uint64_t
streamWord(std::uint64_t seed_hash, std::uint64_t w)
{
    if (std::endian::native != std::endian::little || (w >> 16))
        return fnv1aU64(w, seed_hash);
    const std::uint64_t h = (seed_hash ^ (w & 0xff)) * kFnvPrime;
    return (h ^ (w >> 8)) * kFnvPrime7;
}

/** The first @p len bytes of the @p seed stream, into @p dst. */
void
fillPayload(std::uint8_t *dst, std::uint64_t seed, std::uint32_t len)
{
    const std::uint64_t seed_hash = fnv1aU64(seed);
    std::uint32_t at = 0;
    for (; at + 8 <= len; at += 8) {
        const std::uint64_t word = streamWord(seed_hash, at / 8);
        std::memcpy(dst + at, &word, 8);
    }
    if (at < len) {
        const std::uint64_t word = streamWord(seed_hash, at / 8);
        std::memcpy(dst + at, &word, len - at);
    }
}

} // namespace

std::uint64_t
GpmHeap::payloadHash(std::uint64_t seed, std::uint32_t len)
{
    const std::uint64_t seed_hash = fnv1aU64(seed);
    std::uint64_t h = kFnvOffset;
    std::uint32_t at = 0;
    for (; at + 8 <= len; at += 8)
        h = fnv1aU64(streamWord(seed_hash, at / 8), h);
    if (at < len) {
        const std::uint64_t word = streamWord(seed_hash, at / 8);
        h = fnv1a(&word, len - at, h);
    }
    return h;
}

void
GpmHeap::stagePayload(ThreadCtx &ctx, std::uint64_t handle,
                      std::uint64_t seed)
{
    const std::uint64_t addr = slotAddr(handle);  // len fits the class
    const std::uint32_t len = lenOf(handle);
    fillPayload(scratch_.data(), seed, len);
    ctx.pmWrite(addr, scratch_.data(), len);
}

std::uint64_t
GpmHeap::readPayloadHash(ThreadCtx &ctx, std::uint64_t handle) const
{
    const std::uint64_t addr = slotAddr(handle);
    const std::uint32_t len = lenOf(handle);
    ctx.pmRead(addr, scratch_.data(), len);
    return fnv1a(scratch_.data(), len);
}

std::uint64_t
GpmHeap::durablePayloadHash(std::uint64_t handle) const
{
    std::uint32_t len = lenOf(handle);
    return fnv1a(m_->pool().durableRange(slotAddr(handle), len).data(), len);
}

std::vector<std::uint64_t>
GpmHeap::durableAllocatedOffsets() const
{
    std::vector<std::uint64_t> out;
    const DurableBytes bitmap =
        m_->pool().durableRange(bitmap_.offset, bitmap_.size);
    for (std::size_t c = 0; c < p_.class_sizes.size(); ++c)
        for (std::uint32_t i = 0; i < p_.slots_per_class; ++i) {
            const std::uint8_t byte =
                bitmap.data()[class_bm_off_[c] + i / 8];
            if ((byte >> (i % 8)) & 1u)
                out.push_back(class_off_[c] +
                              std::uint64_t(i) * p_.class_sizes[c]);
        }
    std::sort(out.begin(), out.end());
    return out;
}

std::uint64_t
GpmHeap::durableBitmapHash() const
{
    return fnv1a(m_->pool().durableRange(bitmap_.offset, bitmap_.size).data(),
                 bitmap_.size);
}

} // namespace gpm
