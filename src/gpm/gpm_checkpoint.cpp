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

void
GpmCheckpoint::checkpointGpm(std::uint32_t group, std::uint64_t dst,
                             std::uint64_t bytes)
{
    // Copy kernel: each warp streams one contiguous, aligned 4 KiB
    // chunk (lane l writes words l, l+32, ...), so every warp's store
    // stream coalesces into back-to-back 128 B transactions and the
    // media sees aligned sequential runs.
    const std::uint64_t words = ceilDiv(bytes, 4);
    const std::uint32_t warp = m_->config().warp_size;
    const std::uint32_t words_per_thread = 32;
    const std::uint64_t threads_needed =
        ceilDiv(words, words_per_thread);
    const std::uint32_t tpb = 256;
    const std::uint32_t blocks = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, ceilDiv(threads_needed, tpb)));

    const std::uint8_t *src = staging_.data();
    KernelDesc copy;
    copy.name = "gpmcp_checkpoint";
    copy.blocks = blocks;
    copy.block_threads = tpb;
    if (crash_point_ && !crash_in_flip_) {
        copy.crash = *crash_point_;
        crash_point_.reset();
    } else if (crash_frac_ >= 0.0) {
        copy.crash = CrashPoint{static_cast<std::uint64_t>(
            crash_frac_ * static_cast<double>(std::uint64_t(blocks) *
                                              tpb))};
        crash_frac_ = -1.0;
    }
    copy.phases.push_back([=, this](ThreadCtx &ctx) {
        const std::uint64_t chunk_words =
            std::uint64_t(warp) * words_per_thread;
        const std::uint64_t base = ctx.globalWarp() * chunk_words;
        bool wrote = false;
        for (std::uint32_t i = 0; i < words_per_thread; ++i) {
            const std::uint64_t w = base + std::uint64_t(i) * warp +
                                    ctx.lane();
            if (w >= words)
                break;
            std::uint32_t v = 0;
            std::memcpy(&v, src + w * 4,
                        std::min<std::uint64_t>(4, staging_.size() -
                                                       w * 4));
            ctx.pmStore(dst + w * 4, v);
            ctx.hbmTraffic(4);
            wrote = true;
        }
        if (wrote)
            ctx.threadfenceSystem();
    });
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
    // buffer (they are contiguous per registration order).
    staging_.assign(alignUp(bytes, 4), 0);
    for (const Registration &r : regs_[group])
        std::memcpy(staging_.data() + r.offset, r.data, r.size);

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
      case PlatformKind::GpmNdp: {
        // The kernel stores directly to PM but cannot persist; the
        // CPU flushes afterwards and flips.
        const std::uint64_t words = ceilDiv(bytes, 4);
        const std::uint8_t *src = staging_.data();
        KernelDesc copy;
        copy.name = "gpmcp_checkpoint_ndp";
        copy.blocks = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(1, ceilDiv(words, 256 * 32)));
        copy.block_threads = 256;
        const std::uint32_t warp = m_->config().warp_size;
        copy.phases.push_back([=, this](ThreadCtx &ctx) {
            const std::uint64_t chunk = std::uint64_t(warp) * 32;
            const std::uint64_t base = ctx.globalWarp() * chunk;
            for (std::uint32_t i = 0; i < 32; ++i) {
                const std::uint64_t w =
                    base + std::uint64_t(i) * warp + ctx.lane();
                if (w >= words)
                    break;
                std::uint32_t v = 0;
                std::memcpy(&v, src + w * 4,
                            std::min<std::uint64_t>(
                                4, staging_.size() - w * 4));
                ctx.pmStore(dst + w * 4, v);
                ctx.hbmTraffic(4);
            }
        });
        m_->runKernel(copy);
        m_->cpuPersistRange(dst, alignUp(bytes, 4), 32);
        flipHost(group);
        break;
      }
      case PlatformKind::CapFs:
        m_->capFsPersist(dst, staging_.data(), bytes, 1);
        flipHost(group);
        break;
      case PlatformKind::CapMm:
      case PlatformKind::CapEadr:
        m_->capMmPersist(dst, staging_.data(), bytes, 32);
        flipHost(group);
        break;
      case PlatformKind::Gpufs: {
        GPM_REQUIRE(m_->gpufsSupported(bytes),
                    "GPUfs cannot hold files of ", bytes, " bytes");
        const std::uint64_t calls =
            std::max<std::uint64_t>(1, ceilDiv(bytes, 1_MiB));
        m_->gpufsWrite(dst, staging_.data(), bytes, calls);
        flipHost(group);
        break;
      }
      case PlatformKind::CpuOnly:
        m_->cpuWritePersist(dst, staging_.data(), bytes, 32);
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
