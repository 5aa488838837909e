#include "gpm/gpm_checkpoint.hpp"

#include <algorithm>
#include <cstring>

#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "pmem/pm_events.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

GpmCheckpoint::GpmCheckpoint(Machine &m, PmRegion region, GpmCpHeader hdr)
    : m_(&m), region_(region), hdr_(hdr),
      regs_(hdr.groups), used_(hdr.groups, 0)
{
}

std::uint64_t
GpmCheckpoint::dataOffset() const
{
    return metaOffset() + alignUp(hdr_.groups * sizeof(GpmCpGroupMeta),
                                  256);
}

std::uint64_t
GpmCheckpoint::metaAddr(std::uint32_t group) const
{
    return metaOffset() + group * sizeof(GpmCpGroupMeta);
}

GpmCpGroupMeta
GpmCheckpoint::meta(std::uint32_t group) const
{
    GPM_REQUIRE(group < hdr_.groups, "group ", group, " out of range");
    return m_->pool().load<GpmCpGroupMeta>(metaAddr(group));
}

std::uint64_t
GpmCheckpoint::bufferAddr(std::uint32_t group, std::uint32_t buf) const
{
    GPM_REQUIRE(group < hdr_.groups && buf < 2, "bad buffer address");
    return dataOffset() +
           (std::uint64_t(group) * 2 + buf) * hdr_.group_capacity;
}

GpmCheckpoint
GpmCheckpoint::create(Machine &m, const std::string &path,
                      std::uint64_t size, std::uint32_t elements,
                      std::uint32_t groups)
{
    GPM_REQUIRE(size > 0 && groups > 0 && elements > 0,
                "gpmcp_create with empty geometry");
    GpmCpHeader hdr;
    hdr.magic = kMagic;
    hdr.groups = groups;
    hdr.elements_per_group = elements;
    // 256 B alignment keeps every buffer on the Optane fast path
    // (the paper's "checkpoint structures are 128-byte aligned",
    // tightened to the media's internal line).
    hdr.group_capacity = alignUp(size, 256);

    const std::uint64_t bytes = 256 +
        alignUp(groups * sizeof(GpmCpGroupMeta), 256) +
        std::uint64_t(groups) * 2 * hdr.group_capacity;
    PmRegion region = m.pool().map(path, bytes, /*create=*/true);

    GpmCheckpoint cp(m, region, hdr);
    m.cpuWritePersist(region.offset, &hdr, sizeof(hdr), 1);
    cp.declareDurableIntent(path);
    return cp;
}

GpmCheckpoint
GpmCheckpoint::open(Machine &m, const std::string &path)
{
    PmRegion region = m.pool().region(path);
    GpmCpHeader hdr;
    m.pool().read(region.offset, &hdr, sizeof(hdr));
    GPM_REQUIRE(hdr.magic == kMagic, "'", path, "' is not a gpmcp file");
    m.advance(m.config().syscall_ns);
    GpmCheckpoint cp(m, region, hdr);
    cp.declareDurableIntent(path);
    return cp;
}

/**
 * gpmcheck intent: the double buffers hold data, the per-group meta
 * records (valid index + sequence) are the commit points, and a
 * checkpointed buffer must be strictly durable before the flip that
 * publishes it — flip and copy sharing an epoch would let a crash
 * publish a torn buffer.
 */
void
GpmCheckpoint::declareDurableIntent(const std::string &path) const
{
    PmEventRecorder *rec = m_->pool().recorder();
    if (!rec)
        return;
    rec->declareRange(path + ".bufs", dataOffset(),
                      std::uint64_t(hdr_.groups) * 2 *
                          hdr_.group_capacity,
                      0, PmRangeKind::Data);
    rec->declareRange(path + ".meta", metaOffset(),
                      std::uint64_t(hdr_.groups) *
                          sizeof(GpmCpGroupMeta),
                      0, PmRangeKind::Commit);
    rec->declareOrder(path + ".bufs", path + ".meta", /*strict=*/true);
}

void
GpmCheckpoint::close()
{
    m_->advance(m_->config().syscall_ns);
}

void
GpmCheckpoint::registerData(std::uint32_t group, void *data,
                            std::uint64_t size)
{
    GPM_REQUIRE(group < hdr_.groups, "group ", group, " out of range");
    GPM_REQUIRE(regs_[group].size() < hdr_.elements_per_group,
                "group ", group, " already holds ",
                hdr_.elements_per_group, " elements");
    GPM_REQUIRE(used_[group] + size <= hdr_.group_capacity,
                "group ", group, " capacity exceeded");
    regs_[group].push_back(Registration{data, size, used_[group]});
    used_[group] += size;
}

std::uint64_t
GpmCheckpoint::groupBytes(std::uint32_t group) const
{
    GPM_REQUIRE(group < hdr_.groups, "group out of range");
    return used_[group];
}

std::uint32_t
GpmCheckpoint::sequence(std::uint32_t group) const
{
    return meta(group).seq;
}

std::uint32_t
GpmCheckpoint::validIndex(std::uint32_t group) const
{
    return meta(group).valid_idx;
}

void
GpmCheckpoint::flipHost(std::uint32_t group)
{
    GpmCpGroupMeta mt = meta(group);
    mt.valid_idx ^= 1u;
    mt.seq += 1;
    m_->cpuWritePersist(metaAddr(group), &mt, sizeof(mt), 1);
}

KernelDesc
GpmCheckpoint::copyKernel(const char *name, const std::uint8_t *src,
                          std::uint64_t dst, std::uint64_t bytes,
                          std::uint32_t warp_size, bool fence)
{
    // Each warp copies a 4 KiB chunk of 1024 words. Lane l's step i is
    // one 16 B store (st.global.v4) of words base + 4 (32 i + l) ..
    // + 3, so step i of the warp covers 512 contiguous bytes and the
    // warp's store stream coalesces into back-to-back transactions.
    // That is the same line stream, in the same order, as 32 steps of
    // 4 B word-strided stores (lane l writing words l, l + 32, ...),
    // given two preconditions: @p dst is aligned to the coalescing
    // granule (checkpoint buffers are 256 B-aligned, group_capacity is
    // alignUp(size, 256)), and the granule divides warp_size * 4 B
    // (the default 128 B granule divides 32 * 4 B), so no line
    // straddles two steps in either layout. The last quad of the copy may be short;
    // it is stored from the same call site, so it joins its step's
    // group. Payload and HBM bytes are the same word count either way.
    const std::uint64_t words = ceilDiv(bytes, 4);
    const std::uint32_t words_per_thread = 32;
    const std::uint32_t tpb = 256;

    KernelDesc copy;
    copy.name = name;
    copy.blocks = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, ceilDiv(ceilDiv(words, words_per_thread), tpb)));
    copy.block_threads = tpb;
    copy.phases.push_back([=](ThreadCtx &ctx) {
        const std::uint64_t chunk_words =
            std::uint64_t(warp_size) * words_per_thread;
        const std::uint64_t base = ctx.globalWarp() * chunk_words;
        for (std::uint32_t i = 0; i < words_per_thread / 4; ++i) {
            const std::uint64_t w =
                base + 4 * (std::uint64_t(i) * warp_size + ctx.lane());
            if (w >= words)
                break;
            // src is padded to whole words, so words w .. w + n - 1
            // are there.
            const std::uint64_t n = std::min<std::uint64_t>(4, words - w);
            ctx.pmWrite(dst + w * 4, src + w * 4, n * 4);
            ctx.hbmTraffic(n * 4);
        }
        // A lane fences iff the word-strided layout gave it a word, so
        // the fence count is the same when the last warp holds fewer
        // than 128 words.
        if (fence && base + ctx.lane() < words)
            ctx.threadfenceSystem();
    });
    return copy;
}

void
GpmCheckpoint::checkpointGpm(std::uint32_t group, std::uint64_t dst,
                             std::uint64_t bytes)
{
    KernelDesc copy =
        copyKernel("gpmcp_checkpoint", staging_.data(), dst, bytes,
                   m_->config().warp_size, /*fence=*/true);
    if (crash_point_ && !crash_in_flip_) {
        copy.crash = *crash_point_;
        crash_point_.reset();
    } else if (crash_frac_ >= 0.0) {
        copy.crash = CrashPoint{static_cast<std::uint64_t>(
            crash_frac_ * static_cast<double>(std::uint64_t(copy.blocks) *
                                              copy.block_threads))};
        crash_frac_ = -1.0;
    }
    m_->runKernel(copy);

    // Atomic flip: one thread persists the new valid index + sequence.
    GpmCpGroupMeta mt = meta(group);
    mt.valid_idx ^= 1u;
    mt.seq += 1;
    const std::uint64_t meta_addr = metaAddr(group);
    KernelDesc flip;
    flip.name = "gpmcp_flip";
    flip.blocks = 1;
    flip.block_threads = 1;
    if (crash_point_ && crash_in_flip_) {
        flip.crash = *crash_point_;
        crash_point_.reset();
        crash_in_flip_ = false;
    }
    flip.phases.push_back([=](ThreadCtx &ctx) {
        ctx.pmStore(meta_addr, mt);
        ctx.threadfenceSystem();
    });
    m_->runKernel(flip);
}

void
GpmCheckpoint::checkpoint(std::uint32_t group)
{
    GPM_REQUIRE(group < hdr_.groups, "group ", group, " out of range");
    const std::uint64_t bytes = used_[group];
    GPM_REQUIRE(bytes > 0, "checkpoint of empty group ", group);

    telemetry::Span span("checkpoint", "gpmcp_checkpoint");
    if (span.armed()) {
        span.arg("group", std::uint64_t(group));
        span.arg("bytes", bytes);
    }
    telemetry::count("checkpoint.epochs");
    telemetry::count("checkpoint.bytes", bytes);

    // Gather the registered structures into the HBM-side staging
    // buffer (they are contiguous per registration order, so only the
    // pad up to a whole word needs zeroing).
    staging_.resize(alignUp(bytes, 4));
    for (const Registration &r : regs_[group])
        std::memcpy(staging_.data() + r.offset, r.data, r.size);
    std::fill(staging_.begin() + bytes, staging_.end(), 0);

    const std::uint32_t working = meta(group).valid_idx ^ 1u;
    const std::uint64_t dst = bufferAddr(group, working);

    switch (m_->kind()) {
      case PlatformKind::Gpm:
        // Only toggle DDIO if the caller has not already opened a
        // persistence window around the training loop.
        if (m_->pool().domain() == PersistDomain::McDurable) {
            checkpointGpm(group, dst, bytes);
        } else {
            gpmPersistBegin(*m_);
            checkpointGpm(group, dst, bytes);
            gpmPersistEnd(*m_);
        }
        break;
      case PlatformKind::GpmEadr:
        checkpointGpm(group, dst, bytes);
        break;
      case PlatformKind::GpmNdp:
        // The kernel stores directly to PM but cannot persist; the
        // CPU flushes afterwards and flips.
        m_->runKernel(copyKernel("gpmcp_checkpoint_ndp", staging_.data(),
                                 dst, bytes, m_->config().warp_size,
                                 /*fence=*/false));
        m_->cpuPersistRange(dst, alignUp(bytes, 4), 32);
        flipHost(group);
        break;
      case PlatformKind::CpuOnly:
        m_->cpuWritePersist(dst, staging_.data(), bytes, 32);
        flipHost(group);
        break;
      default:
        m_->capPersist(dst, staging_.data(), bytes, 32);
        flipHost(group);
        break;
    }
}

void
GpmCheckpoint::restore(std::uint32_t group)
{
    GPM_REQUIRE(group < hdr_.groups, "group ", group, " out of range");
    const std::uint64_t bytes = used_[group];
    GPM_REQUIRE(bytes > 0,
                "restore of group ", group,
                " with no registered structures");

    telemetry::Span span("recovery", "gpmcp_restore");
    if (span.armed()) {
        span.arg("group", std::uint64_t(group));
        span.arg("bytes", bytes);
    }
    telemetry::count("recovery.restores");
    telemetry::count("recovery.bytes", bytes);

    const std::uint64_t src = bufferAddr(group, meta(group).valid_idx);
    for (const Registration &r : regs_[group])
        m_->pool().read(src + r.offset, r.data, r.size);

    if (usesGpu(m_->kind())) {
        // A reader kernel pulls the checkpoint straight into HBM.
        m_->nvm().recordRead(bytes);
        m_->advance(m_->config().kernel_launch_ns +
                    std::max(m_->nvm().readTime(bytes),
                             m_->pcie().bulkTime(bytes)));
    } else {
        m_->cpuPmRead(bytes, 4);
    }
}

} // namespace gpm
