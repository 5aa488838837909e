#include "workloads/kvs.hpp"

#include <algorithm>
#include <cstring>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "pmem/pm_events.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

const char *
kvVerbName(KvVerb v)
{
    switch (v) {
      case KvVerb::Get: return "get";
      case KvVerb::Put: return "put";
      case KvVerb::Del: return "del";
    }
    return "?";
}

namespace {

/** Meta region layout. */
constexpr std::uint64_t kTxnFlagOff = 0;   ///< u32: transaction active
constexpr std::uint64_t kBatchIdOff = 4;   ///< u32: batch in flight

/** Undo record with its batch epoch (see recover()). */
struct EpochEntry {
    KvLogEntry e;
    std::uint32_t batch = 0;
};

} // namespace

GpKvs::GpKvs(Machine &m, const GpKvsParams &p) : m_(&m), p_(p)
{
    GPM_REQUIRE(p_.n_sets > 0 && p_.batch_ops > 0 && p_.batches > 0,
                "empty gpKVS configuration");
}

std::uint64_t
GpKvs::hashKey(std::uint64_t key)
{
    std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint32_t
GpKvs::chooseWay(const KvPair *set_base, std::uint64_t key)
{
    for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
        if (set_base[w].key == key)
            return w;  // update in place
    }
    for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
        if (set_base[w].key == 0)
            return w;  // first free way
    }
    // Set full: the SET fails. Evicting here would allow two ops of
    // one batch to write the same slot, and the order-insensitive
    // per-thread undo of Figure 6(b) cannot restore that correctly —
    // MegaKV-style batching likewise resolves way conflicts among the
    // thread group before logging. Eviction happens out of band.
    return kNoWay;
}

std::uint64_t
GpKvs::pairAddr(std::uint32_t set, std::uint32_t way) const
{
    return store_.offset +
           (std::uint64_t(set) * GpKvsParams::kWays + way) *
               sizeof(KvPair);
}

void
GpKvs::fillBatch(std::uint32_t batch, std::vector<Op> &out) const
{
    Rng rng = Rng(p_.seed).split(batch);
    out.resize(p_.batch_ops);
    for (Op &op : out) {
        op.key = rng.next() | 1;  // never the empty-slot marker
        op.value = rng.next() | 1;
        op.is_get = rng.chance(p_.get_ratio);
    }
}

const std::vector<GpKvs::Op> &
GpKvs::makeBatch(std::uint32_t batch) const
{
    fillBatch(batch, ops_buf_);
    if (batch > 0 && p_.get_ratio > 0.0) {
        // Make GETs meaningful: target keys the first batch SET (a
        // read-mostly store serving its own population), falling back
        // to random (miss) keys for every second GET. Batch 0 is
        // cached so steady-state assembly touches no allocator.
        if (first_ops_.empty())
            fillBatch(0, first_ops_);
        for (std::uint32_t i = 0; i < ops_buf_.size(); ++i) {
            if (ops_buf_[i].is_get && i % 2 == 0)
                ops_buf_[i].key = first_ops_[i].key;
        }
    }
    return ops_buf_;
}

void
GpKvs::setup()
{
    store_ = gpmMap(*m_, "gpkvs.data", p_.storeBytes(), /*create=*/true);
    meta_ = gpmMap(*m_, "gpkvs.meta", 256, /*create=*/true);

    if (PmEventRecorder *rec = m_->pool().recorder()) {
        // Each KvPair is the atomic unit: a torn half-slot (key
        // without value) is exactly what the per-thread undo protects
        // against, so gpmcheck may assume slot-granular recovery.
        rec->declareRange("gpkvs.data", store_.offset, p_.storeBytes(),
                          sizeof(KvPair), PmRangeKind::Data);
        rec->declareRange("gpkvs.meta", meta_.offset, 8, 0,
                          PmRangeKind::Commit);
        rec->declareOrder("gpkvs.data", "gpkvs.meta", /*strict=*/false);
    }

    const std::uint64_t threads =
        std::uint64_t(p_.batch_ops) * GpKvsParams::kGroup;
    const std::uint32_t tpb = 256;
    const std::uint32_t blocks =
        static_cast<std::uint32_t>(ceilDiv(threads, tpb));

    if (inKernelPersistence(m_->kind()) ||
        m_->kind() == PlatformKind::GpmNdp) {
        if (p_.use_hcl) {
            log_.push_back(GpmLog::createHcl(
                *m_, "gpkvs.log", sizeof(EpochEntry),
                /*max_entries=*/p_.batches + 1, blocks, tpb));
        } else {
            // Size each partition for every batch's worst case. The
            // gtid%P placement is heavily skewed (way-0 leaders
            // cluster on every eighth partition), so leave 8x slack.
            const std::uint64_t part_bytes =
                8 * ceilDiv(std::uint64_t(p_.batch_ops) *
                                (p_.batches + 1) * sizeof(EpochEntry),
                            p_.conv_partitions) + 4096;
            log_.push_back(GpmLog::createConv(*m_, "gpkvs.log",
                                              part_bytes,
                                              p_.conv_partitions));
        }
    } else {
        host_copy_.assign(std::uint64_t(p_.n_sets) * GpKvsParams::kWays,
                          KvPair{});
    }
}

void
GpKvs::runBatchGpm(const std::vector<Op> &ops, bool ndp)
{
    get_results_.assign(ops.size(), 0);
    const std::uint32_t batch_id =
        m_->pool().load<std::uint32_t>(meta_.offset + kBatchIdOff);

    // Transaction prologue: flag the in-flight batch (persisted from
    // the CPU; a CPU flush is always available regardless of DDIO).
    const std::uint32_t flag_and_batch[2] = {1u, batch_id};
    m_->cpuWritePersist(meta_.offset, flag_and_batch, 8, 1);

    const std::uint64_t threads =
        std::uint64_t(ops.size()) * GpKvsParams::kGroup;
    const std::uint32_t tpb = 256;

    std::uint64_t sets_written = 0;
    KernelDesc k;
    k.name = "gpkvs_batch";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(threads, tpb));
    k.block_threads = tpb;
    k.phases.push_back([this, &ops, batch_id,
                        &sets_written](ThreadCtx &ctx) {
        const std::uint64_t gtid = ctx.globalId();
        const std::uint64_t op_idx = gtid / GpKvsParams::kGroup;
        if (op_idx >= ops.size())
            return;
        const Op &op = ops[op_idx];
        ctx.work(40);  // hashing + probe arithmetic

        if (op.is_get) {
            if (gtid % GpKvsParams::kGroup == 0) {
                // Served from the HBM-cached copy of the store.
                ctx.hbmTraffic(GpKvsParams::kWays * sizeof(KvPair));
                ctx.work(20);
                const std::uint32_t gset = static_cast<std::uint32_t>(
                    hashKey(op.key) % p_.n_sets);
                KvPair gways[GpKvsParams::kWays];
                m_->pool().read(pairAddr(gset, 0), gways,
                                sizeof(gways));
                get_results_[op_idx] = 0;
                for (const KvPair &pair : gways) {
                    if (pair.key == op.key)
                        get_results_[op_idx] = pair.value;
                }
            }
            return;
        }

        const std::uint32_t set = static_cast<std::uint32_t>(
            hashKey(op.key) % p_.n_sets);
        KvPair ways[GpKvsParams::kWays];
        m_->pool().read(pairAddr(set, 0), ways, sizeof(ways));
        ctx.hbmTraffic(sizeof(KvPair));  // this thread probes one way

        const std::uint32_t way = chooseWay(ways, op.key);
        if (gtid % GpKvsParams::kGroup != way)
            return;  // not the leader for this op

        // GPM-NDP runs the very same kernel (logging included); only
        // the persistence guarantee moves to the CPU — the fences
        // below complete at the volatile LLC and order without
        // persisting (section 6.1).
        EpochEntry entry;
        entry.e = KvLogEntry{set, way, ways[way].key, ways[way].value};
        entry.batch = batch_id;
        // Conventional logs spread ops, not thread ids, over the
        // partitions (leader thread ids cluster on way 0).
        log_.front().insert(ctx, &entry, sizeof(entry),
                            p_.use_hcl ? -1
                                       : static_cast<int>(
                                             op_idx %
                                             p_.conv_partitions));
        ctx.pmStore(pairAddr(set, way), KvPair{op.key, op.value});
        gpmPersist(ctx);
        ++sets_written;
    });
    m_->runKernel(k);
    m_->advance(log_.front().consumeSerializationNs());

    if (ndp) {
        // The CPU sweeps the updated lines: KVS slot, log stripes and
        // tail for each SET.
        m_->cpuPersistScattered(sets_written * 3 *
                                    m_->config().cache_line,
                                p_.cap_threads);
    }

    // Transaction epilogue: batch committed.
    const std::uint32_t done_and_next[2] = {0u, batch_id + 1};
    m_->cpuWritePersist(meta_.offset, done_and_next, 8, 1);
}

void
GpKvs::runBatchCap(const std::vector<Op> &ops)
{
    get_results_.assign(ops.size(), 0);
    const std::uint64_t threads =
        std::uint64_t(ops.size()) * GpKvsParams::kGroup;
    const std::uint32_t tpb = 256;

    // The kernel reports dirty transfer chunks so CAP can moderate
    // the extraneous movement (section 3.2) — a chunk is still
    // dirtied by a single 16 B update, hence Table 4's amplification.
    std::vector<bool> dirty(
        ceilDiv(p_.storeBytes(), p_.cap_chunk_bytes), false);

    KernelDesc k;
    k.name = "gpkvs_batch_volatile";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(threads, tpb));
    k.block_threads = tpb;
    k.phases.push_back([this, &ops, &dirty](ThreadCtx &ctx) {
        const std::uint64_t gtid = ctx.globalId();
        const std::uint64_t op_idx = gtid / GpKvsParams::kGroup;
        if (op_idx >= ops.size())
            return;
        const Op &op = ops[op_idx];
        ctx.work(40);
        if (op.is_get) {
            if (gtid % GpKvsParams::kGroup == 0) {
                ctx.hbmTraffic(GpKvsParams::kWays * sizeof(KvPair));
                ctx.work(20);
                const std::uint32_t gset = static_cast<std::uint32_t>(
                    hashKey(op.key) % p_.n_sets);
                get_results_[op_idx] = 0;
                for (std::uint32_t w = 0; w < GpKvsParams::kWays;
                     ++w) {
                    const KvPair &pair =
                        host_copy_[std::uint64_t(gset) *
                                   GpKvsParams::kWays + w];
                    if (pair.key == op.key)
                        get_results_[op_idx] = pair.value;
                }
            }
            return;
        }
        const std::uint32_t set = static_cast<std::uint32_t>(
            hashKey(op.key) % p_.n_sets);
        KvPair *base = &host_copy_[std::uint64_t(set) *
                                   GpKvsParams::kWays];
        ctx.hbmTraffic(sizeof(KvPair));
        const std::uint32_t way = chooseWay(base, op.key);
        if (gtid % GpKvsParams::kGroup != way)
            return;
        base[way] = KvPair{op.key, op.value};
        ctx.hbmTraffic(sizeof(KvPair));
        const std::uint64_t byte_off =
            (std::uint64_t(set) * GpKvsParams::kWays + way) *
            sizeof(KvPair);
        dirty[byte_off / p_.cap_chunk_bytes] = true;
    });
    m_->runKernel(k);

    // The updated indices are only known at chunk granularity; every
    // dirty chunk is transferred and persisted in full.
    std::vector<std::uint64_t> chunks;
    for (std::uint64_t c = 0; c < dirty.size(); ++c) {
        if (dirty[c])
            chunks.push_back(c);
    }
    switch (m_->kind()) {
      case PlatformKind::CapFs:
        m_->capPersistChunks(store_.offset, host_copy_.data(), chunks,
                             p_.cap_chunk_bytes, p_.cap_threads,
                             /*via_fs=*/true);
        break;
      case PlatformKind::CapMm:
      case PlatformKind::CapEadr:
        m_->capPersistChunks(store_.offset, host_copy_.data(), chunks,
                             p_.cap_chunk_bytes, p_.cap_threads,
                             /*via_fs=*/false);
        break;
      default:
        panic("runBatchCap on ", platformName(m_->kind()));
    }
}

WorkloadResult
GpKvs::run()
{
    WorkloadResult r;
    if (m_->kind() == PlatformKind::Gpufs) {
        // Fine-grain per-thread writes deadlock GPUfs (section 6.1).
        r.supported = false;
        return r;
    }
    setup();

    const SimNs t0 = m_->now();
    const std::uint64_t pcie0 = m_->pcieWriteBytes();
    const std::uint64_t pay0 = m_->persistPayloadBytes();

    for (std::uint32_t b = 0; b < p_.batches; ++b) {
        const std::vector<Op> &ops = makeBatch(b);
        switch (m_->kind()) {
          case PlatformKind::Gpm:
            gpmPersistBegin(*m_);
            runBatchGpm(ops, /*ndp=*/false);
            gpmPersistEnd(*m_);
            break;
          case PlatformKind::GpmEadr:
            runBatchGpm(ops, /*ndp=*/false);
            break;
          case PlatformKind::GpmNdp:
            runBatchGpm(ops, /*ndp=*/true);
            break;
          default:
            runBatchCap(ops);
            break;
        }
        r.ops_done += static_cast<double>(ops.size());
    }

    r.op_ns = m_->now() - t0;
    r.pcie_write_bytes = m_->pcieWriteBytes() - pcie0;
    r.persisted_payload = m_->persistPayloadBytes() - pay0;

    // Functional check: the visible store holds each batch's writes,
    // and the last batch's GETs returned what an in-order reference
    // execution would have observed.
    std::vector<KvPair> mirror(std::uint64_t(p_.n_sets) *
                               GpKvsParams::kWays);
    for (std::uint32_t b = 0; b + 1 < p_.batches; ++b)
        applyBatchReference(mirror, b);
    bool gets_ok = true;
    {
        const std::vector<Op> &last = makeBatch(p_.batches - 1);
        for (std::uint32_t i = 0; i < last.size(); ++i) {
            const Op &op = last[i];
            if (op.is_get) {
                std::uint64_t expected = 0;
                const std::uint32_t set = static_cast<std::uint32_t>(
                    hashKey(op.key) % p_.n_sets);
                for (std::uint32_t w = 0; w < GpKvsParams::kWays;
                     ++w) {
                    const KvPair &pair =
                        mirror[std::uint64_t(set) *
                               GpKvsParams::kWays + w];
                    if (pair.key == op.key)
                        expected = pair.value;
                }
                gets_ok = gets_ok && get_results_[i] == expected;
                continue;
            }
            KvPair *base = &mirror[std::uint64_t(hashKey(op.key) %
                                                 p_.n_sets) *
                                   GpKvsParams::kWays];
            const std::uint32_t way = chooseWay(base, op.key);
            if (way != kNoWay)
                base[way] = KvPair{op.key, op.value};
        }
    }
    if (inKernelPersistence(m_->kind()) ||
        m_->kind() == PlatformKind::GpmNdp) {
        r.verified = std::memcmp(m_->pool().visible() + store_.offset,
                                 mirror.data(), p_.storeBytes()) == 0;
    } else {
        r.verified = std::memcmp(host_copy_.data(), mirror.data(),
                                 p_.storeBytes()) == 0;
    }
    r.verified = r.verified && gets_ok;
    return r;
}

void
GpKvs::recover()
{
    telemetry::Span span("recovery", "gpkvs_recover");
    telemetry::count("recovery.invocations");
    PmRecoveryScope rscope(m_->pool().recorder());
    const std::uint32_t crashed_batch =
        m_->pool().load<std::uint32_t>(meta_.offset + kBatchIdOff);

    const std::uint64_t threads =
        std::uint64_t(p_.batch_ops) * GpKvsParams::kGroup;
    const std::uint32_t tpb = 256;

    GpmLog log = GpmLog::open(*m_, "gpkvs.log");
    KernelDesc k;
    k.name = "gpkvs_recover";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(threads, tpb));
    k.block_threads = tpb;
    k.phases.push_back([this, &log, crashed_batch](ThreadCtx &ctx) {
        EpochEntry entry;
        if (!log.read(ctx, &entry, sizeof(entry)))
            return;
        // Entries from earlier, committed batches must not be undone.
        if (entry.batch != crashed_batch)
            return;
        ctx.pmStore(pairAddr(entry.e.set, entry.e.way),
                    KvPair{entry.e.old_key, entry.e.old_value});
        gpmPersist(ctx);
        // Only drop the log entry once the undo itself is durable —
        // recovery must stay recoverable (section 5.2).
        log.remove(ctx, sizeof(entry));
    });
    m_->runKernel(k);
    m_->advance(log.consumeSerializationNs());

    const std::uint32_t zero = 0;
    m_->cpuWritePersist(meta_.offset + kTxnFlagOff, &zero, 4, 1);
}

WorkloadResult
GpKvs::runWithCrash(std::uint32_t crash_batch, double frac,
                    double survive_prob)
{
    GPM_REQUIRE(frac >= 0.0 && frac <= 1.0, "bad crash fraction");
    const std::uint64_t threads =
        std::uint64_t(p_.batch_ops) * GpKvsParams::kGroup;
    WorkloadResult r;
    const CrashOutcome o = runCrashPoint(
        crash_batch,
        CrashPoint::afterThreadPhases(static_cast<std::uint64_t>(
            frac * static_cast<double>(threads))),
        survive_prob, /*open_persist_window=*/true, &r);
    GPM_ASSERT(o.fired || frac >= 1.0, "crash point did not fire");
    return r;
}

CrashOutcome
GpKvs::runCrashPoint(std::uint32_t crash_batch, const CrashPoint &point,
                     double survive_prob, bool open_persist_window,
                     WorkloadResult *result_out)
{
    GPM_REQUIRE(inKernelPersistence(m_->kind()),
                "crash recovery needs in-kernel persistence");
    GPM_REQUIRE(p_.use_hcl,
                "per-thread undo recovery requires the HCL log");
    GPM_REQUIRE(crash_batch < p_.batches, "crash batch out of range");

    setup();
    WorkloadResult r;
    CrashOutcome o;
    // Only PlatformKind::Gpm has a DDIO toggle; eADR needs no window.
    const bool window =
        open_persist_window && m_->kind() == PlatformKind::Gpm;

    // Reference states: every batch before the crashed one applied,
    // and additionally the doomed batch on top — the durable image
    // must equal one of the two (atomicity: all or nothing).
    std::vector<KvPair> reference(std::uint64_t(p_.n_sets) *
                                  GpKvsParams::kWays);
    for (std::uint32_t b = 0; b < crash_batch; ++b)
        applyBatchReference(reference, b);
    std::vector<KvPair> committed = reference;
    applyBatchReference(committed, crash_batch);

    const SimNs t0 = m_->now();
    for (std::uint32_t b = 0; b < crash_batch; ++b) {
        if (window)
            gpmPersistBegin(*m_);
        runBatchGpm(makeBatch(b), /*ndp=*/false);
        if (window)
            gpmPersistEnd(*m_);
        r.ops_done += p_.batch_ops;
    }
    const SimNs clean_ns = m_->now() - t0;

    // The doomed batch: arm the crash point mid-kernel.
    {
        const std::vector<Op> &ops = makeBatch(crash_batch);
        const std::uint32_t batch_id = crash_batch;
        const std::uint32_t flag_and_batch[2] = {1u, batch_id};
        m_->cpuWritePersist(meta_.offset, flag_and_batch, 8, 1);
        if (window)
            gpmPersistBegin(*m_);

        const std::uint64_t threads =
            std::uint64_t(ops.size()) * GpKvsParams::kGroup;
        const std::uint32_t tpb = 256;
        KernelDesc k;
        k.name = "gpkvs_batch_crashing";
        k.blocks = static_cast<std::uint32_t>(ceilDiv(threads, tpb));
        k.block_threads = tpb;
        k.crash = point;
        k.phases.push_back([this, &ops, batch_id](ThreadCtx &ctx) {
            const std::uint64_t gtid = ctx.globalId();
            const std::uint64_t op_idx = gtid / GpKvsParams::kGroup;
            if (op_idx >= ops.size())
                return;
            const Op &op = ops[op_idx];
            if (op.is_get)
                return;
            const std::uint32_t set = static_cast<std::uint32_t>(
                hashKey(op.key) % p_.n_sets);
            KvPair ways[GpKvsParams::kWays];
            m_->pool().read(pairAddr(set, 0), ways, sizeof(ways));
            const std::uint32_t way = chooseWay(ways, op.key);
            if (gtid % GpKvsParams::kGroup != way)
                return;
            EpochEntry entry;
            entry.e = KvLogEntry{set, way, ways[way].key,
                                 ways[way].value};
            entry.batch = batch_id;
            log_.front().insert(ctx, &entry, sizeof(entry));
            ctx.pmStore(pairAddr(set, way),
                        KvPair{op.key, op.value});
            gpmPersist(ctx);
        });
        try {
            m_->runKernel(k);
        } catch (const KernelCrashed &) {
            o.fired = true;
        }
        m_->pool().crash(survive_prob);
    }

    // Reboot: recover if the durable flag says a batch was in flight.
    // Recovery always runs inside a persist window — after a reboot
    // the recovery procedure gets to configure DDIO correctly even if
    // the crashed application never did.
    const SimNs r0 = m_->now();
    if (m_->pool().load<std::uint32_t>(meta_.offset + kTxnFlagOff) ==
        1) {
        if (!window && m_->kind() == PlatformKind::Gpm)
            gpmPersistBegin(*m_);
        recover();
        if (!window && m_->kind() == PlatformKind::Gpm)
            gpmPersistEnd(*m_);
        o.recovery_ran = true;
    }
    r.recovery_ns = m_->now() - r0;
    r.op_ns = clean_ns;

    o.strict_ok = durableEquals(reference) ||
                  (!o.fired && durableEquals(committed));
    o.state_hash = fnv1a(m_->pool().durable() + store_.offset,
                         p_.storeBytes());
    r.verified = o.strict_ok;
    if (result_out)
        *result_out = r;
    return o;
}

bool
GpKvs::durableEquals(const std::vector<KvPair> &reference) const
{
    return std::memcmp(m_->pool().durable() + store_.offset,
                       reference.data(),
                       reference.size() * sizeof(KvPair)) == 0;
}

std::uint64_t
GpKvs::durableStoreHash() const
{
    std::uint64_t h =
        fnv1a(m_->pool().durable() + store_.offset, p_.storeBytes());
    // Variable-size serving: fold the heap's durable allocation state
    // so two runs differing only in slot accounting can't collide.
    if (serve_heap_)
        h = fnv1aU64(serve_heap_->durableBitmapHash(), h);
    return h;
}

bool
GpKvs::lookup(std::uint64_t key, std::uint64_t &value_out) const
{
    const std::uint32_t set =
        static_cast<std::uint32_t>(hashKey(key) % p_.n_sets);
    for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
        const KvPair pair =
            m_->pool().load<KvPair>(pairAddr(set, w));
        if (pair.key == key) {
            value_out = pair.value;
            return true;
        }
    }
    return false;
}

void
GpKvs::serveSetup(std::uint32_t max_batch_ops)
{
    GPM_REQUIRE(inKernelPersistence(m_->kind()),
                "serving requires in-kernel persistence (GPM/eADR)");
    GPM_REQUIRE(p_.use_hcl, "the serving path logs through HCL");
    GPM_REQUIRE(max_batch_ops > 0, "empty serve batch capacity");

    serve_max_ops_ = max_batch_ops;
    // The recovery kernel's grid spans p_.batch_ops ops; keep it in
    // sync with the serve log geometry.
    p_.batch_ops = max_batch_ops;

    store_ = gpmMap(*m_, "gpkvs.data", p_.storeBytes(), /*create=*/true);
    meta_ = gpmMap(*m_, "gpkvs.meta", 256, /*create=*/true);
    if (PmEventRecorder *rec = m_->pool().recorder()) {
        rec->declareRange("gpkvs.data", store_.offset, p_.storeBytes(),
                          sizeof(KvPair), PmRangeKind::Data);
        rec->declareRange("gpkvs.meta", meta_.offset, 8, 0,
                          PmRangeKind::Commit);
        rec->declareOrder("gpkvs.data", "gpkvs.meta", /*strict=*/false);
    }

    const std::uint64_t threads =
        std::uint64_t(max_batch_ops) * GpKvsParams::kGroup;
    const std::uint32_t tpb = 256;
    const std::uint32_t blocks =
        static_cast<std::uint32_t>(ceilDiv(threads, tpb));
    // At most one undo entry per leader thread per in-flight batch,
    // and serveBatch truncates after every commit — 2 rows per thread
    // is already headroom.
    log_.push_back(GpmLog::createHcl(*m_, "gpkvs.log",
                                     sizeof(EpochEntry),
                                     /*max_entries=*/2, blocks, tpb));
}

void
GpKvs::serveBatch(const std::vector<KvRequest> &reqs,
                  std::vector<std::uint64_t> &results,
                  const CrashPoint *crash)
{
    GPM_REQUIRE(serve_max_ops_ > 0, "serveSetup() was not called");
    GPM_REQUIRE(!reqs.empty() && reqs.size() <= serve_max_ops_,
                "serve batch of ", reqs.size(), " ops outside [1, ",
                serve_max_ops_, "]");

    // The dynamic batcher's dedup contract: at most one request per
    // set index. Distinct sets are disjoint 128 B lines, which is
    // what lets the kernel run block-independent and makes batch
    // results independent of intra-batch order.
    set_scratch_.clear();
    for (const KvRequest &rq : reqs)
        set_scratch_.push_back(setOf(rq.key));
    std::sort(set_scratch_.begin(), set_scratch_.end());
    GPM_REQUIRE(std::adjacent_find(set_scratch_.begin(),
                                   set_scratch_.end()) ==
                    set_scratch_.end(),
                "serve batch carries two requests on one set");

    results.assign(reqs.size(), 0);
    if (serve_heap_) {
        serveBatchVar(reqs, results, crash);
        return;
    }
    const std::uint32_t batch_id =
        m_->pool().load<std::uint32_t>(meta_.offset + kBatchIdOff);
    const std::uint32_t flag_and_batch[2] = {1u, batch_id};
    m_->cpuWritePersist(meta_.offset, flag_and_batch, 8, 1);

    const std::uint64_t threads =
        std::uint64_t(reqs.size()) * GpKvsParams::kGroup;
    const std::uint32_t tpb = 256;
    KernelDesc k;
    k.name = "gpkvs_serve";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(threads, tpb));
    k.block_threads = tpb;
    if (crash)
        k.crash = *crash;
    k.phases.push_back([this, &reqs, &results, batch_id](ThreadCtx &ctx) {
        const std::uint64_t gtid = ctx.globalId();
        const std::uint64_t op_idx = gtid / GpKvsParams::kGroup;
        if (op_idx >= reqs.size())
            return;
        const KvRequest &rq = reqs[op_idx];
        ctx.work(40);  // hashing + probe arithmetic
        const std::uint32_t set = setOf(rq.key);

        if (rq.verb == KvVerb::Get) {
            if (gtid % GpKvsParams::kGroup == 0) {
                // Served from the HBM-cached copy of the store.
                ctx.hbmTraffic(GpKvsParams::kWays * sizeof(KvPair));
                ctx.work(20);
                KvPair ways[GpKvsParams::kWays];
                m_->pool().read(pairAddr(set, 0), ways, sizeof(ways));
                for (const KvPair &pair : ways) {
                    if (pair.key == rq.key)
                        results[op_idx] = pair.value;
                }
            }
            return;
        }

        KvPair ways[GpKvsParams::kWays];
        m_->pool().read(pairAddr(set, 0), ways, sizeof(ways));
        ctx.hbmTraffic(sizeof(KvPair));  // this thread probes one way

        std::uint32_t way = kNoWay;
        if (rq.verb == KvVerb::Put) {
            way = chooseWay(ways, rq.key);
        } else {
            // DEL: only an exact key match has a leader.
            for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
                if (ways[w].key == rq.key)
                    way = w;
            }
        }
        if (way == kNoWay || gtid % GpKvsParams::kGroup != way)
            return;  // not the leader (PUT on full set / DEL miss)

        EpochEntry entry;
        entry.e = KvLogEntry{set, way, ways[way].key, ways[way].value};
        entry.batch = batch_id;
        log_.front().insert(ctx, &entry, sizeof(entry));
        const KvPair next = rq.verb == KvVerb::Put
                                ? KvPair{rq.key, rq.value}
                                : KvPair{};
        ctx.pmStore(pairAddr(set, way), next);
        gpmPersist(ctx);
        results[op_idx] = 1;
    });
    m_->runKernel(k);  // KernelCrashed propagates to the caller
    m_->advance(log_.front().consumeSerializationNs());

    // Transaction epilogue, then truncate the per-thread undo tails
    // so a long-running service never outgrows the log.
    const std::uint32_t done_and_next[2] = {0u, batch_id + 1};
    m_->cpuWritePersist(meta_.offset, done_and_next, 8, 1);
    log_.front().clearAll();
}

void
GpKvs::serveSetupVar(std::uint32_t max_batch_ops, GpmHeapParams heap)
{
    serveSetup(max_batch_ops);
    heap.name = "gpkvs.heap";
    // One record covers a whole batch: each op allocates at most one
    // slot (PUT) and frees at most one (overwrite or DEL).
    heap.max_tx_ops =
        std::max<std::uint32_t>(heap.max_tx_ops, 2u * max_batch_ops);
    heap.max_tx_blob = 0;
    serve_heap_ = std::make_unique<GpmHeap>(*m_, heap);
    serve_heap_->setup(/*create=*/true);
    if (PmEventRecorder *rec = m_->pool().recorder()) {
        // The Intent record is durable before the serve kernel
        // publishes any handle into the directory.
        rec->declareOrder(serve_heap_->redoLabel(), "gpkvs.data",
                          /*strict=*/false);
    }
}

void
GpKvs::serveBatchVar(const std::vector<KvRequest> &reqs,
                     std::vector<std::uint64_t> &results,
                     const CrashPoint *crash)
{
    // ---- host plan: predict each PUT's way and every handle this
    // batch replaces or deletes. One op per set (checked by the
    // caller) means the kernel probes exactly the state the plan saw,
    // so the prediction is exact.
    plan_handles_.assign(reqs.size(), 0);
    std::vector<std::uint64_t> allocs, frees;
    struct StagedVal {
        std::uint64_t handle;
        std::uint64_t seed;
    };
    std::vector<StagedVal> staged;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const KvRequest &rq = reqs[i];
        if (rq.verb == KvVerb::Get)
            continue;
        const std::uint32_t set = setOf(rq.key);
        KvPair ways[GpKvsParams::kWays];
        m_->pool().read(pairAddr(set, 0), ways, sizeof(ways));
        if (rq.verb == KvVerb::Put) {
            GPM_REQUIRE(rq.value_len > 0,
                        "variable-size PUT carries no length");
            const std::uint32_t way = chooseWay(ways, rq.key);
            if (way == kNoWay)
                continue;  // set full: the PUT is rejected
            if (ways[way].key == rq.key)
                frees.push_back(ways[way].value);
            const std::uint64_t h = serve_heap_->alloc(rq.value_len);
            allocs.push_back(h);
            staged.push_back({h, rq.value});
            plan_handles_[i] = h;
        } else {
            for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
                if (ways[w].key == rq.key)
                    frees.push_back(ways[w].value);
            }
        }
    }

    // ---- stage payloads into the still-unreachable slots. A crash
    // from here on is reconciled by serveRecover(); the popped free
    // slots come back with the heap's bitmap rebuild.
    if (!staged.empty()) {
        KernelDesc k;
        k.name = "gpkvs_serve_stage";
        k.blocks = static_cast<std::uint32_t>(staged.size());
        k.block_threads = GpKvsParams::kGroup;
        k.phases.push_back([this, &staged](ThreadCtx &ctx) {
            const std::uint64_t b =
                ctx.globalId() / GpKvsParams::kGroup;
            if (ctx.globalId() % GpKvsParams::kGroup != 0) {
                ctx.work(1);
                return;
            }
            serve_heap_->stagePayload(ctx, staged[b].handle,
                                      staged[b].seed);
            gpmPersist(ctx);
        });
        m_->runKernel(k);
    }

    // ---- Intent record: the slot deltas this batch will make real.
    // The record never self-commits — the kvs txn flag below is the
    // composite commit point serveRecover() consults.
    const std::uint32_t batch_id =
        m_->pool().load<std::uint32_t>(meta_.offset + kBatchIdOff);
    serve_heap_->txBegin(GpmHeap::TxMode::Intent, batch_id, allocs,
                         frees);

    const std::uint32_t flag_and_batch[2] = {1u, batch_id};
    m_->cpuWritePersist(meta_.offset, flag_and_batch, 8, 1);

    const std::uint64_t threads =
        std::uint64_t(reqs.size()) * GpKvsParams::kGroup;
    const std::uint32_t tpb = 256;
    KernelDesc k;
    k.name = "gpkvs_serve";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(threads, tpb));
    k.block_threads = tpb;
    if (crash)
        k.crash = *crash;
    k.phases.push_back([this, &reqs, &results, batch_id](ThreadCtx &ctx) {
        const std::uint64_t gtid = ctx.globalId();
        const std::uint64_t op_idx = gtid / GpKvsParams::kGroup;
        if (op_idx >= reqs.size())
            return;
        const KvRequest &rq = reqs[op_idx];
        ctx.work(40);  // hashing + probe arithmetic
        const std::uint32_t set = setOf(rq.key);

        if (rq.verb == KvVerb::Get) {
            if (gtid % GpKvsParams::kGroup == 0) {
                ctx.hbmTraffic(GpKvsParams::kWays * sizeof(KvPair));
                ctx.work(20);
                KvPair ways[GpKvsParams::kWays];
                m_->pool().read(pairAddr(set, 0), ways, sizeof(ways));
                for (const KvPair &pair : ways) {
                    if (pair.key == rq.key)
                        results[op_idx] = serve_heap_->readPayloadHash(
                            ctx, pair.value);
                }
            }
            return;
        }

        KvPair ways[GpKvsParams::kWays];
        m_->pool().read(pairAddr(set, 0), ways, sizeof(ways));
        ctx.hbmTraffic(sizeof(KvPair));

        std::uint32_t way = kNoWay;
        if (rq.verb == KvVerb::Put) {
            way = chooseWay(ways, rq.key);
        } else {
            for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
                if (ways[w].key == rq.key)
                    way = w;
            }
        }
        if (way == kNoWay || gtid % GpKvsParams::kGroup != way)
            return;  // not the leader (PUT on full set / DEL miss)

        EpochEntry entry;
        entry.e = KvLogEntry{set, way, ways[way].key, ways[way].value};
        entry.batch = batch_id;
        log_.front().insert(ctx, &entry, sizeof(entry));
        KvPair next{};
        if (rq.verb == KvVerb::Put) {
            GPM_ASSERT(plan_handles_[op_idx] != 0,
                       "kernel way diverged from the host plan");
            next = KvPair{rq.key, plan_handles_[op_idx]};
        }
        ctx.pmStore(pairAddr(set, way), next);
        gpmPersist(ctx);
        results[op_idx] = 1;
    });
    m_->runKernel(k);  // KernelCrashed propagates; record + flag stay
    m_->advance(log_.front().consumeSerializationNs());

    // Transaction epilogue — THE commit point: after this store is
    // durable the batch is acknowledgeable and serveRecover() rolls
    // the Intent record forward instead of discarding it.
    const std::uint32_t done_and_next[2] = {0u, batch_id + 1};
    m_->cpuWritePersist(meta_.offset, done_and_next, 8, 1);

    serve_heap_->txCommit();
    log_.front().clearAll();
}

bool
GpKvs::serveRecover()
{
    GPM_REQUIRE(serve_max_ops_ > 0, "serveSetup() was not called");
    bool ran = false;
    const std::uint32_t flag =
        m_->pool().load<std::uint32_t>(meta_.offset + kTxnFlagOff);
    if (flag == 1) {
        // Recovery opens its own persist window: a reboot-time
        // procedure gets to configure DDIO even if the crashed
        // service left it in either state.
        if (m_->kind() == PlatformKind::Gpm)
            gpmPersistBegin(*m_);
        recover();
        if (m_->kind() == PlatformKind::Gpm)
            gpmPersistEnd(*m_);
        ran = true;
    }
    if (serve_heap_) {
        // Composite commit decision. The record is Intent-mode, so
        // the heap alone would discard it; it rolls forward exactly
        // when the epilogue ran before the crash — txn flag clear AND
        // the batch counter advanced past the record's batch. flag==1
        // means the undo above just restored the old references, and
        // a record whose prologue never ran (flag clear, counter not
        // advanced) published nothing — both discard.
        GpmHeap::InFlight rec;
        const bool in_flight = serve_heap_->inFlight(rec);
        const bool committed =
            in_flight && flag == 0 &&
            m_->pool().load<std::uint32_t>(meta_.offset +
                                           kBatchIdOff) ==
                rec.batch_id + 1;
        if (m_->kind() == PlatformKind::Gpm)
            gpmPersistBegin(*m_);
        {
            PmRecoveryScope scope(m_->pool().recorder());
            ran = serve_heap_->recover(committed) || ran;
        }
        if (m_->kind() == PlatformKind::Gpm)
            gpmPersistEnd(*m_);
    }
    log_.front().clearAll();
    return ran;
}

std::uint64_t
GpKvs::serveReference(KvPair *set_base, const KvRequest &rq)
{
    if (rq.verb == KvVerb::Get) {
        for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
            if (set_base[w].key == rq.key)
                return set_base[w].value;
        }
        return 0;
    }
    if (rq.verb == KvVerb::Put) {
        const std::uint32_t way = chooseWay(set_base, rq.key);
        if (way == kNoWay)
            return 0;
        set_base[way] = KvPair{rq.key, rq.value};
        return 1;
    }
    for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
        if (set_base[w].key == rq.key) {
            set_base[w] = KvPair{};
            return 1;
        }
    }
    return 0;
}

std::uint64_t
GpKvs::serveReferenceVar(KvPair *set_base, const KvRequest &rq)
{
    if (rq.verb == KvVerb::Get) {
        for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
            if (set_base[w].key == rq.key)
                return set_base[w].value;  // the expected payload hash
        }
        return 0;
    }
    if (rq.verb == KvVerb::Put) {
        const std::uint32_t way = chooseWay(set_base, rq.key);
        if (way == kNoWay)
            return 0;
        set_base[way] = KvPair{
            rq.key, GpmHeap::payloadHash(rq.value, rq.value_len)};
        return 1;
    }
    for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
        if (set_base[w].key == rq.key) {
            set_base[w] = KvPair{};
            return 1;
        }
    }
    return 0;
}

bool
GpKvs::durableEqualsVar(const std::vector<KvPair> &reference) const
{
    GPM_REQUIRE(serve_heap_ != nullptr,
                "durableEqualsVar without serveSetupVar");
    const std::uint64_t n =
        std::uint64_t(p_.n_sets) * GpKvsParams::kWays;
    GPM_REQUIRE(reference.size() == n, "reference mirror of ",
                reference.size(), " slots, store has ", n);
    const std::uint8_t *img = m_->pool().durable();
    std::vector<std::uint64_t> live;
    for (std::uint64_t i = 0; i < n; ++i) {
        KvPair d;
        std::memcpy(&d, img + store_.offset + i * sizeof(KvPair),
                    sizeof(d));
        const KvPair &r = reference[i];
        if (d.key != r.key)
            return false;
        if (d.key == 0) {
            if (d.value != 0)
                return false;
            continue;
        }
        // The mirror stores the expected payload hash where the
        // directory stores a handle.
        if (serve_heap_->durablePayloadHash(d.value) != r.value)
            return false;
        live.push_back(GpmHeap::offOf(d.value));
    }
    // Leak / double-allocation check: live handles and durable bitmap
    // bits must be the same set.
    std::sort(live.begin(), live.end());
    return live == serve_heap_->durableAllocatedOffsets();
}

void
GpKvs::applyBatchReference(std::vector<KvPair> &mirror,
                           std::uint32_t batch) const
{
    for (const Op &op : makeBatch(batch)) {
        if (op.is_get)
            continue;
        const std::uint32_t set = static_cast<std::uint32_t>(
            hashKey(op.key) % p_.n_sets);
        KvPair *base = &mirror[std::uint64_t(set) * GpKvsParams::kWays];
        const std::uint32_t way = chooseWay(base, op.key);
        if (way == kNoWay)
            continue;  // SET failed: the set is full
        base[way] = KvPair{op.key, op.value};
    }
}

} // namespace gpm
