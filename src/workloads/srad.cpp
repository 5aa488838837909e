#include "workloads/srad.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "pmem/pm_events.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

GpSrad::GpSrad(Machine &m, const SradParams &p) : m_(&m), p_(p)
{
    GPM_REQUIRE(p_.width >= 4 && p_.height >= 4, "image too small");
}

std::uint64_t
GpSrad::imgAddr(std::uint32_t buf, std::uint64_t pix) const
{
    // +4: keep the streaming stores off the 256 B alignment.
    return img_.offset + 4 + (std::uint64_t(buf) * p_.pixels() + pix) * 4;
}

std::uint64_t
GpSrad::coefAddr(std::uint64_t pix) const
{
    return coef_.offset + 4 + pix * 4;
}

std::vector<float>
sradMakeInput(const SradParams &p)
{
    // Speckled input: smooth ramp with multiplicative noise.
    Rng rng(p.seed);
    std::vector<float> img(p.pixels());
    for (std::uint32_t y = 0; y < p.height; ++y) {
        for (std::uint32_t x = 0; x < p.width; ++x) {
            const float base =
                0.4f + 0.4f * std::sin(0.05f * x) * std::cos(0.07f * y);
            const float speckle =
                0.7f + 0.6f * static_cast<float>(rng.uniform());
            img[std::size_t(y) * p.width + x] = base * speckle;
        }
    }
    return img;
}

void
GpSrad::setup()
{
    const std::uint64_t n = p_.pixels();
    img_ = gpmMap(*m_, "srad.img", 8 + n * 8, true);
    coef_ = gpmMap(*m_, "srad.coef", 8 + n * 4, true);
    meta_ = gpmMap(*m_, "srad.meta", 64, true);

    if (PmEventRecorder *rec = m_->pool().recorder()) {
        // The iteration counter is the commit record: once it says
        // pass N committed, both buffers N touched must be durable —
        // strictly earlier, since the flip is a separate 1x1 launch.
        rec->declareRange("srad.img", img_.offset, 8 + n * 8, 4,
                          PmRangeKind::Data);
        rec->declareRange("srad.coef", coef_.offset, 8 + n * 4, 4,
                          PmRangeKind::Data);
        rec->declareRange("srad.meta", meta_.offset, 4, 0,
                          PmRangeKind::Commit);
        rec->declareOrder("srad.img", "srad.meta", /*strict=*/true);
        rec->declareOrder("srad.coef", "srad.meta", /*strict=*/true);
    }

    host_img_ = sradMakeInput(p_);
    host_coef_.assign(n, 0.0f);

    // Bulk-load the input into image buffer 0 (setup).
    m_->cpuWritePersist(imgAddr(0, 0), host_img_.data(), n * 4,
                        p_.cap_threads);
    const std::uint32_t zero = 0;
    m_->cpuWritePersist(meta_.offset, &zero, 4, 1);
}

void
sradDiffuse(const SradParams &p, const std::vector<float> &src,
            std::vector<float> &dst, std::vector<float> &coef)
{
    const std::uint32_t w = p.width, h = p.height;
    double mean = 0.0, sq = 0.0;
    for (const float v : src) {
        mean += v;
        sq += double(v) * v;
    }
    mean /= static_cast<double>(src.size());
    const double var = sq / static_cast<double>(src.size()) -
                       mean * mean;
    const float q0 = static_cast<float>(var / (mean * mean));

    auto at = [&](std::uint32_t x, std::uint32_t y) {
        return src[std::size_t(std::min(y, h - 1)) * w +
                   std::min(x, w - 1)];
    };
    for (std::uint32_t y = 0; y < h; ++y) {
        for (std::uint32_t x = 0; x < w; ++x) {
            const std::size_t i = std::size_t(y) * w + x;
            const float c = src[i];
            const float dn = at(x, y ? y - 1 : 0) - c;
            const float ds = at(x, y + 1) - c;
            const float dw = at(x ? x - 1 : 0, y) - c;
            const float de = at(x + 1, y) - c;
            const float g2 =
                (dn * dn + ds * ds + dw * dw + de * de) / (c * c + 1e-6f);
            const float l = (dn + ds + dw + de) / (c + 1e-6f);
            const float num = 0.5f * g2 - 0.0625f * l * l;
            const float den = 1.0f + 0.25f * l;
            const float q = num / (den * den + 1e-6f);
            coef[i] = std::clamp(
                1.0f / (1.0f + (q - q0) / (q0 * (1.0f + q0) + 1e-6f)),
                0.0f, 1.0f);
        }
    }
    for (std::uint32_t y = 0; y < h; ++y) {
        for (std::uint32_t x = 0; x < w; ++x) {
            const std::size_t i = std::size_t(y) * w + x;
            auto cf = [&](std::uint32_t xx, std::uint32_t yy) {
                return coef[std::size_t(std::min(yy, h - 1)) * w +
                            std::min(xx, w - 1)];
            };
            const float div =
                cf(x, y + 1) * (at(x, y + 1) - src[i]) +
                cf(x, y) * (at(x, y ? y - 1 : 0) - src[i]) +
                cf(x + 1, y) * (at(x + 1, y) - src[i]) +
                cf(x, y) * (at(x ? x - 1 : 0, y) - src[i]);
            dst[i] = src[i] + 0.25f * p.lambda * div;
        }
    }
}

void
GpSrad::runIteration(std::uint32_t iter,
                     const std::optional<CrashPoint> &crash)
{
    const bool in_kernel = inKernelPersistence(m_->kind());
    const bool gpu_direct =
        in_kernel || m_->kind() == PlatformKind::GpmNdp;
    const std::uint64_t n = p_.pixels();
    const std::uint32_t dst_buf = 1 - iter % 2;

    std::vector<float> next(n), coef(n);
    sradDiffuse(p_, host_img_, next, coef);

    // The kernel: each thread owns a contiguous run of pixels per
    // warp chunk so the PM stores stream warp-contiguously (then land
    // unaligned because of the +4 layout pad).
    const std::uint32_t tpb = 256;
    // 15 words per thread: the per-warp chunk (15 x 128 B) is not a
    // multiple of the 256 B XPLine, so half the streaming runs start
    // mid-line — the "streaming but not necessarily aligned" PM
    // traffic section 6.1 describes for SRAD.
    const std::uint32_t words_per_thread = 15;
    const std::uint32_t warp =
        static_cast<std::uint32_t>(m_->config().warp_size);
    KernelDesc k;
    k.name = "srad_iteration";
    k.blocks = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1,
            ceilDiv(n, std::uint64_t(tpb) * words_per_thread)));
    k.block_threads = tpb;
    k.crash = crash;
    k.phases.push_back([this, &next, &coef, n, dst_buf, gpu_direct,
                        in_kernel, warp,
                        words_per_thread](ThreadCtx &ctx) {
        const std::uint64_t chunk =
            std::uint64_t(warp) * words_per_thread;
        const std::uint64_t base = ctx.globalWarp() * chunk;
        ctx.work(words_per_thread * 30);
        ctx.hbmTraffic(words_per_thread * 5 * 4);
        bool wrote = false;
        for (std::uint32_t i = 0; i < words_per_thread; ++i) {
            const std::uint64_t pix =
                base + std::uint64_t(i) * warp + ctx.lane();
            if (pix >= n)
                break;
            if (gpu_direct) {
                ctx.pmStore(coefAddr(pix), coef[pix]);
                ctx.pmStore(imgAddr(dst_buf, pix), next[pix]);
                wrote = true;
            }
        }
        if (wrote && in_kernel)
            ctx.threadfenceSystem();
    });
    m_->runKernel(k);
    host_img_ = std::move(next);
    host_coef_ = std::move(coef);

    if (crash)
        return;  // a doomed iteration never commits, fired or not

    // Commit the iteration counter.
    if (in_kernel) {
        const std::uint64_t meta_addr = meta_.offset;
        const std::uint32_t done = iter + 1;
        KernelDesc commit;
        commit.name = "srad_commit";
        commit.blocks = 1;
        commit.block_threads = 1;
        commit.phases.push_back([meta_addr, done](ThreadCtx &ctx) {
            ctx.pmStore(meta_addr, done);
            ctx.threadfenceSystem();
        });
        m_->runKernel(commit);
    } else {
        if (m_->kind() == PlatformKind::GpmNdp) {
            m_->cpuPersistScattered(n * 8, p_.cap_threads);
        } else {
            m_->capPersist(imgAddr(dst_buf, 0), host_img_.data(), n * 4,
                           p_.cap_threads);
            m_->capPersist(coefAddr(0), host_coef_.data(), n * 4,
                           p_.cap_threads);
        }
        const std::uint32_t done = iter + 1;
        m_->cpuWritePersist(meta_.offset, &done, 4, 1);
    }
}

WorkloadResult
GpSrad::run()
{
    WorkloadResult r;
    {
        WorkloadSpan span("setup", "srad");
        setup();
    }

    if (m_->kind() == PlatformKind::Gpm)
        gpmPersistBegin(*m_);
    const SimNs t0 = m_->now();
    const std::uint64_t pcie0 = m_->pcieWriteBytes();
    const std::uint64_t pay0 = m_->persistPayloadBytes();

    for (std::uint32_t iter = 0; iter < p_.iterations; ++iter)
        runIteration(iter, std::nullopt);

    r.op_ns = m_->now() - t0;
    r.pcie_write_bytes = m_->pcieWriteBytes() - pcie0;
    r.persisted_payload = m_->persistPayloadBytes() - pay0;
    if (m_->kind() == PlatformKind::Gpm)
        gpmPersistEnd(*m_);

    WorkloadSpan verify("verify", "srad");
    const std::vector<float> ref = referenceImage();
    r.verified = host_img_ == ref;
    r.ops_done = static_cast<double>(p_.pixels()) * p_.iterations;
    return r;
}

std::uint64_t
GpSrad::doomedThreadPhases(const SradParams &p)
{
    const std::uint64_t blocks = std::max<std::uint64_t>(
        1, ceilDiv(p.pixels(), std::uint64_t(256) * 15));
    return blocks * 256;
}

WorkloadResult
GpSrad::runWithCrash(std::uint32_t crash_iter, double survive_prob)
{
    // Same mid-kernel point the fixed-fraction harness always used:
    // half the launch's thread phases.
    WorkloadResult r;
    const CrashOutcome o = runCrashPoint(
        crashReference(p_, crash_iter),
        CrashPoint::afterFraction(0.5, doomedThreadPhases(p_)), survive_prob,
        /*open_persist_window=*/true, &r);
    GPM_ASSERT(o.fired, "SRAD crash point did not fire");
    return r;
}

CrashReference
GpSrad::crashReference(const SradParams &p, std::uint32_t crash_iter)
{
    GPM_REQUIRE(crash_iter < p.iterations, "crash iteration too late");
    telemetry::Span span("oracle", "reference");
    span.arg("workload", "srad");
    const std::uint64_t n = p.pixels();
    std::vector<float> img = sradMakeInput(p), next(n), coef(n);
    CrashReference ref;
    ref.crash_batch = crash_iter;
    for (std::uint32_t iter = 0; iter < p.iterations; ++iter) {
        if (iter == crash_iter)
            ref.pre_crash = CrashImage(img.data(), n * 4);
        sradDiffuse(p, img, next, coef);
        img.swap(next);
        if (iter == crash_iter)
            ref.committed = CrashImage(img.data(), n * 4);
    }
    ref.final = CrashImage(img.data(), n * 4);
    return ref;
}

CrashOutcome
GpSrad::runCrashPoint(const CrashReference &ref, const CrashPoint &point,
                      double survive_prob, bool open_persist_window,
                      WorkloadResult *result_out)
{
    GPM_REQUIRE(ref.crash_batch < p_.iterations,
                "crash iteration too late");
    GPM_REQUIRE(ref.final.bytes.size() == p_.pixels() * 4,
                "crash reference built for other params");
    std::uint32_t done = 0;  // iterations the durable counter holds
    CrashSteps s;
    s.workload = CrashWorkload::Srad;
    s.crash_step = ref.crash_batch;
    s.setup = [this] { setup(); };
    s.step = [this](std::uint32_t iter,
                    const std::optional<CrashPoint> &armed) {
        runIteration(iter, armed);
    };
    s.recover = [this, &done] {
        // Reboot from the durable iteration counter and the image
        // buffer it names (double buffering keeps the previous pass
        // intact under a torn one).
        const std::uint64_t n = p_.pixels();
        {
            PmRecoveryScope rscope(m_->pool().recorder());
            done = m_->pool().load<std::uint32_t>(meta_.offset);
            host_img_.assign(n, 0.0f);
            m_->pool().read(imgAddr(done % 2, 0), host_img_.data(),
                            n * 4);
        }
        m_->cpuPmRead(n * 4, p_.cap_threads);
    };
    s.resume = [this, &done] {
        for (std::uint32_t iter = done; iter < p_.iterations; ++iter)
            runIteration(iter, std::nullopt);
    };
    s.ops_done = [this, &done] { return p_.iterations - done; };
    s.check = [this, &ref, &done](CrashOutcome &o) {
        // Recompute recovery: one legal final state wherever (or
        // whether) the crash landed.
        const std::uint64_t bytes = p_.pixels() * 4;
        o.strict_ok = ref.final.equals(host_img_.data(), bytes);
        const std::uint8_t *img =
            m_->pool().visible() + imgAddr(p_.iterations % 2, 0);
        o.state_hash =
            fnv1aU64(m_->pool().load<std::uint32_t>(meta_.offset),
                     ref.final.equals(img, bytes) ? ref.final.hash
                                                  : fnv1a(img, bytes));
        return o.strict_ok && done == ref.crash_batch;
    };
    return runCrashSequence(*m_, s, point, survive_prob,
                            open_persist_window, result_out);
}

std::vector<float>
GpSrad::referenceImage() const
{
    const std::uint64_t n = p_.pixels();
    std::vector<float> img = sradMakeInput(p_);
    std::vector<float> coef(n);
    for (std::uint32_t iter = 0; iter < p_.iterations; ++iter) {
        std::vector<float> tmp(n);
        sradDiffuse(p_, img, tmp, coef);
        img = std::move(tmp);
    }
    return img;
}

double
GpSrad::imageVariance() const
{
    double mean = 0.0, sq = 0.0;
    for (const float v : host_img_) {
        mean += v;
        sq += double(v) * v;
    }
    const double inv = 1.0 / static_cast<double>(host_img_.size());
    mean *= inv;
    return sq * inv - mean * mean;
}

} // namespace gpm
