#include "workloads/prefix_sum.hpp"

#include <algorithm>
#include <cstring>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "pmem/pm_events.hpp"

namespace gpm {

GpPrefixSum::GpPrefixSum(Machine &m, const PsParams &p) : m_(&m), p_(p)
{
    GPM_REQUIRE(p_.blocks > 0 && p_.block_threads >= 32,
                "bad prefix-sum geometry");
}

std::uint64_t
GpPrefixSum::psumAddr(std::uint64_t thread) const
{
    return psums_.offset + thread * 8;
}

std::uint64_t
GpPrefixSum::outAddr(std::uint64_t i) const
{
    return out_.offset + i * 8;
}

void
GpPrefixSum::setup()
{
    const std::uint64_t threads =
        std::uint64_t(p_.blocks) * p_.block_threads;
    psums_ = gpmMap(*m_, "ps.psums", threads * 8, true);
    out_ = gpmMap(*m_, "ps.out", p_.elements() * 8, true);

    if (PmEventRecorder *rec = m_->pool().recorder()) {
        // Recovery is recompute-with-skip: no commit record, no order
        // rule. Each 8 B sum is atomic (a torn sentinel would fake a
        // completed block).
        rec->declareRange("ps.psums", psums_.offset, threads * 8, 8,
                          PmRangeKind::Data);
        rec->declareRange("ps.out", out_.offset, p_.elements() * 8, 8,
                          PmRangeKind::Data);
    }

    Rng rng(p_.seed);
    input_.resize(p_.elements());
    for (std::uint32_t &v : input_)
        v = static_cast<std::uint32_t>(rng.between(1, 100));
    blocks_skipped_ = 0;
}

void
GpPrefixSum::partialSumsKernel(const std::optional<CrashPoint> &crash)
{
    const bool in_kernel = inKernelPersistence(m_->kind());
    const bool gpu_direct =
        in_kernel || m_->kind() == PlatformKind::GpmNdp;
    const std::uint64_t total_threads =
        std::uint64_t(p_.blocks) * p_.block_threads;

    // Cross-phase scratch: each thread's chunk sum, plus a per-block
    // skip flag decided in phase 0 (Figure 8, line 3).
    std::vector<std::uint64_t> sums(total_threads, 0);
    std::vector<std::uint8_t> skip(p_.blocks, 0);

    KernelDesc k;
    k.name = "ps_partial_sums";
    k.blocks = p_.blocks;
    k.block_threads = p_.block_threads;
    k.crash = crash;
    // Phase 0: all but the last thread compute and persist.
    k.phases.push_back([this, &sums, &skip, gpu_direct,
                        in_kernel](ThreadCtx &ctx) {
        const std::uint32_t blk = ctx.blockIdx();
        const std::uint64_t sentinel_thread =
            std::uint64_t(blk + 1) * p_.block_threads - 1;
        if (ctx.threadIdx() == 0) {
            // Partial sum of the block's last thread already durable?
            skip[blk] = ctx.pmLoad<std::uint64_t>(
                            psumAddr(sentinel_thread)) != kEmpty;
            if (skip[blk])
                ++blocks_skipped_;
        }
        if (ctx.pmLoad<std::uint64_t>(psumAddr(sentinel_thread)) !=
            kEmpty)
            return;

        const std::uint64_t gtid = ctx.globalId();
        const std::uint64_t base =
            gtid * p_.elems_per_thread;
        std::uint64_t sum = 0;
        for (std::uint32_t i = 0; i < p_.elems_per_thread; ++i)
            sum += input_[base + i];
        sums[gtid] = sum;
        ctx.work(p_.elems_per_thread * 2);
        ctx.hbmTraffic(std::uint64_t(p_.elems_per_thread) * 4);

        if (ctx.threadIdx() != p_.block_threads - 1 && gpu_direct) {
            ctx.pmStore(psumAddr(gtid), sum);
            if (in_kernel)
                ctx.threadfenceSystem();
        }
    });
    // Phase 1 (after the __syncthreads barrier): the last thread of
    // the block persists its sum — the recovery sentinel.
    k.phases.push_back([this, &sums, &skip, gpu_direct,
                        in_kernel](ThreadCtx &ctx) {
        if (skip[ctx.blockIdx()])
            return;
        if (ctx.threadIdx() != p_.block_threads - 1)
            return;
        if (gpu_direct) {
            ctx.pmStore(psumAddr(ctx.globalId()),
                        sums[ctx.globalId()]);
            if (in_kernel)
                ctx.threadfenceSystem();
        }
    });
    m_->runKernel(k);

    if (!gpu_direct) {
        // CAP: partial sums leave the device in bulk after the kernel.
        switch (m_->kind()) {
          case PlatformKind::CapFs:
            m_->capFsPersist(psums_.offset, sums.data(),
                             total_threads * 8, 1);
            break;
          default:
            m_->capMmPersist(psums_.offset, sums.data(),
                             total_threads * 8, p_.cap_threads);
            break;
        }
    } else if (m_->kind() == PlatformKind::GpmNdp) {
        m_->cpuPersistRange(psums_.offset, total_threads * 8,
                            p_.cap_threads);
    }
}

void
GpPrefixSum::finalKernel()
{
    const bool in_kernel = inKernelPersistence(m_->kind());
    const bool gpu_direct =
        in_kernel || m_->kind() == PlatformKind::GpmNdp;
    const std::uint64_t total_threads =
        std::uint64_t(p_.blocks) * p_.block_threads;
    const std::uint64_t n = p_.elements();

    // Thread offsets from the durable partial sums (a small scan; on
    // the GPU this is the inter-block scan kernel).
    std::vector<std::uint64_t> psums(total_threads);
    m_->pool().read(psums_.offset, psums.data(), total_threads * 8);
    std::vector<std::uint64_t> offsets(total_threads, 0);
    std::uint64_t running = 0;
    for (std::uint64_t t = 0; t < total_threads; ++t) {
        offsets[t] = running;
        running += psums[t];
    }
    chargeGpuCompute(*m_, static_cast<double>(total_threads) * 2,
                     total_threads * 16);

    // Final values (inclusive prefix), computed per thread chunk.
    std::vector<std::uint64_t> final_vals(n);
    for (std::uint64_t t = 0; t < total_threads; ++t) {
        std::uint64_t acc = offsets[t];
        const std::uint64_t base = t * p_.elems_per_thread;
        for (std::uint32_t i = 0; i < p_.elems_per_thread; ++i) {
            acc += input_[base + i];
            final_vals[base + i] = acc;
        }
    }

    // Persist the output: warp-interleaved streaming copy (aligned
    // sequential runs — PS's high PM bandwidth in Fig 12).
    const std::uint32_t tpb = 256;
    const std::uint32_t words_per_thread = 16;
    const std::uint32_t warp =
        static_cast<std::uint32_t>(m_->config().warp_size);
    KernelDesc k;
    k.name = "ps_final";
    k.blocks = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1,
            ceilDiv(n, std::uint64_t(tpb) * words_per_thread)));
    k.block_threads = tpb;
    k.phases.push_back([this, &final_vals, n, warp, words_per_thread,
                        gpu_direct, in_kernel](ThreadCtx &ctx) {
        const std::uint64_t chunk =
            std::uint64_t(warp) * words_per_thread;
        const std::uint64_t base = ctx.globalWarp() * chunk;
        ctx.work(words_per_thread * 3);
        ctx.hbmTraffic(std::uint64_t(words_per_thread) * 12);
        bool wrote = false;
        for (std::uint32_t i = 0; i < words_per_thread; ++i) {
            const std::uint64_t w =
                base + std::uint64_t(i) * warp + ctx.lane();
            if (w >= n)
                break;
            if (gpu_direct) {
                ctx.pmStore(outAddr(w), final_vals[w]);
                wrote = true;
            }
        }
        if (wrote && in_kernel)
            ctx.threadfenceSystem();
    });
    m_->runKernel(k);

    if (!gpu_direct) {
        switch (m_->kind()) {
          case PlatformKind::CapFs:
            m_->capFsPersist(out_.offset, final_vals.data(), n * 8, 1);
            break;
          default:
            m_->capMmPersist(out_.offset, final_vals.data(), n * 8,
                             p_.cap_threads);
            break;
        }
    } else if (m_->kind() == PlatformKind::GpmNdp) {
        m_->cpuPersistRange(out_.offset, n * 8, p_.cap_threads);
    }
}

WorkloadResult
GpPrefixSum::run()
{
    WorkloadResult r;
    if (m_->kind() == PlatformKind::Gpufs) {
        r.supported = false;  // per-thread writes deadlock GPUfs
        return r;
    }
    setup();

    if (m_->kind() == PlatformKind::Gpm)
        gpmPersistBegin(*m_);
    const SimNs t0 = m_->now();
    const std::uint64_t pcie0 = m_->pcieWriteBytes();
    const std::uint64_t pay0 = m_->persistPayloadBytes();

    partialSumsKernel(std::nullopt);
    finalKernel();

    r.op_ns = m_->now() - t0;
    r.pcie_write_bytes = m_->pcieWriteBytes() - pcie0;
    r.persisted_payload = m_->persistPayloadBytes() - pay0;
    if (m_->kind() == PlatformKind::Gpm)
        gpmPersistEnd(*m_);

    const std::vector<std::uint64_t> ref = referencePrefix();
    r.verified = true;
    for (std::uint64_t i = 0; i < ref.size(); i += 997) {
        if (m_->pool().load<std::uint64_t>(outAddr(i)) != ref[i] &&
            inKernelPersistence(m_->kind())) {
            r.verified = false;
            break;
        }
    }
    r.ops_done = static_cast<double>(p_.elements());
    return r;
}

WorkloadResult
GpPrefixSum::runWithCrash(double frac, double survive_prob)
{
    GPM_REQUIRE(inKernelPersistence(m_->kind()),
                "prefix-sum resume needs in-kernel persistence");
    setup();
    if (m_->kind() == PlatformKind::Gpm)
        gpmPersistBegin(*m_);

    const std::uint64_t total_threads =
        std::uint64_t(p_.blocks) * p_.block_threads;
    try {
        partialSumsKernel(CrashPoint::afterThreadPhases(
            static_cast<std::uint64_t>(
                frac * 2.0 * static_cast<double>(total_threads))));
        GPM_ASSERT(false, "prefix-sum crash point did not fire");
    } catch (const KernelCrashed &) {
    }
    m_->pool().crash(survive_prob);

    // Resume: re-run the kernel; the sentinel check skips completed
    // blocks (the recovery logic is native to the kernel, section
    // 5.4). Then finish.
    WorkloadResult r;
    const SimNs r0 = m_->now();
    {
        PmRecoveryScope rscope(m_->pool().recorder());
        blocks_skipped_ = 0;
        partialSumsKernel(std::nullopt);
        finalKernel();
    }
    r.recovery_ns = m_->now() - r0;
    r.op_ns = r.recovery_ns;

    const std::vector<std::uint64_t> ref = referencePrefix();
    r.verified = true;
    for (std::uint64_t i = 0; i < ref.size(); ++i) {
        if (durablePrefix(i) != ref[i]) {
            r.verified = false;
            break;
        }
    }
    r.ops_done = static_cast<double>(blocks_skipped_);
    return r;
}

CrashOutcome
GpPrefixSum::runCrashPoint(const CrashPoint &point, double survive_prob,
                           bool open_persist_window)
{
    GPM_REQUIRE(inKernelPersistence(m_->kind()),
                "prefix-sum resume needs in-kernel persistence");
    setup();
    CrashOutcome o;
    const bool window =
        open_persist_window && m_->kind() == PlatformKind::Gpm;
    if (window)
        gpmPersistBegin(*m_);

    try {
        partialSumsKernel(point);
    } catch (const KernelCrashed &) {
        o.fired = true;
    }
    m_->pool().crash(survive_prob);

    // Resume under a fresh persist window (reboot-time recovery gets
    // DDIO right even when the crashed run never did): the sentinel
    // check skips completed blocks, everything else recomputes.
    if (!window && m_->kind() == PlatformKind::Gpm)
        gpmPersistBegin(*m_);
    {
        PmRecoveryScope rscope(m_->pool().recorder());
        blocks_skipped_ = 0;
        partialSumsKernel(std::nullopt);
        finalKernel();
    }
    o.recovery_ran = true;

    const std::vector<std::uint64_t> ref = referencePrefix();
    o.strict_ok = true;
    for (std::uint64_t i = 0; i < ref.size(); ++i) {
        if (durablePrefix(i) != ref[i]) {
            o.strict_ok = false;
            break;
        }
    }
    o.state_hash = fnv1a(m_->pool().durable() + out_.offset,
                         p_.elements() * 8);
    if (!window && m_->kind() == PlatformKind::Gpm)
        gpmPersistEnd(*m_);
    return o;
}

std::vector<std::uint64_t>
GpPrefixSum::referencePrefix() const
{
    std::vector<std::uint64_t> out(p_.elements());
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < out.size(); ++i) {
        acc += input_[i];
        out[i] = acc;
    }
    return out;
}

std::uint64_t
GpPrefixSum::durablePrefix(std::uint64_t i) const
{
    return m_->pool().loadDurable<std::uint64_t>(outAddr(i));
}

} // namespace gpm
