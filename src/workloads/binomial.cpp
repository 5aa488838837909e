#include "workloads/binomial.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"

namespace gpm {

namespace {
constexpr float kRiskFree = 0.02f;
} // namespace

GpBinomial::GpBinomial(Machine &m, const BinomialParams &p)
    : m_(&m), p_(p)
{
    GPM_REQUIRE(p_.options > 0 && p_.steps >= 2,
                "bad binomial configuration");
}

void
GpBinomial::setup()
{
    out_ = gpmMap(*m_, "binomial.prices",
                  std::uint64_t(p_.options) * 4, true);
    Rng rng(p_.seed);
    spot_.resize(p_.options);
    strike_.resize(p_.options);
    vol_.resize(p_.options);
    years_.resize(p_.options);
    for (std::uint32_t i = 0; i < p_.options; ++i) {
        spot_[i] = 30.0f + 80.0f * static_cast<float>(rng.uniform());
        strike_[i] = 30.0f + 80.0f * static_cast<float>(rng.uniform());
        vol_[i] = 0.15f + 0.4f * static_cast<float>(rng.uniform());
        years_[i] = 0.5f + 1.5f * static_cast<float>(rng.uniform());
    }
}

void
GpBinomial::option(std::uint32_t i, float &spot, float &strike,
                   float &vol, float &years) const
{
    GPM_REQUIRE(i < p_.options, "option index out of range");
    spot = spot_[i];
    strike = strike_[i];
    vol = vol_[i];
    years = years_[i];
}

float
GpBinomial::referencePrice(std::uint32_t i) const
{
    // Cox–Ross–Rubinstein European call.
    const float s = spot_[i], k = strike_[i], v = vol_[i];
    const float dt = years_[i] / static_cast<float>(p_.steps);
    const float u = std::exp(v * std::sqrt(dt));
    const float d = 1.0f / u;
    const float disc = std::exp(-kRiskFree * dt);
    const float pu = (std::exp(kRiskFree * dt) - d) / (u - d);

    std::vector<float> values(p_.steps + 1);
    for (std::uint32_t j = 0; j <= p_.steps; ++j) {
        const float price =
            s * std::pow(u, static_cast<float>(j)) *
            std::pow(d, static_cast<float>(p_.steps - j));
        values[j] = std::max(price - k, 0.0f);
    }
    for (std::uint32_t level = p_.steps; level > 0; --level) {
        for (std::uint32_t j = 0; j < level; ++j)
            values[j] =
                disc * (pu * values[j + 1] + (1.0f - pu) * values[j]);
    }
    return values[0];
}

WorkloadResult
GpBinomial::run()
{
    WorkloadResult r;
    if (m_->kind() == PlatformKind::Gpufs) {
        r.supported = false;
        return r;
    }
    setup();

    // Precompute all prices host-side (the per-thread tree work is
    // charged in the kernel below).
    std::vector<float> prices(p_.options);
    for (std::uint32_t i = 0; i < p_.options; ++i)
        prices[i] = referencePrice(i);

    const bool in_kernel = inKernelPersistence(m_->kind());
    const bool gpu_direct =
        in_kernel || m_->kind() == PlatformKind::GpmNdp;

    if (m_->kind() == PlatformKind::Gpm)
        gpmPersistBegin(*m_);
    const SimNs t0 = m_->now();
    const std::uint64_t pay0 = m_->persistPayloadBytes();

    const std::uint32_t tpb = 128;
    KernelDesc k;
    k.name = "binomial";
    k.blocks = p_.options;
    k.block_threads = tpb;
    // Phase 0: the block's threads share the tree levels.
    k.phases.push_back([this, tpb](ThreadCtx &ctx) {
        const double level_work =
            static_cast<double>(p_.steps) * p_.steps / 2.0;
        ctx.work(level_work / tpb + 4);
        ctx.hbmTraffic(4 * p_.steps / tpb + 16);
    });
    // Phase 1 (after the block barrier): ONE thread writes + persists
    // the option's price — the whole block's PM parallelism.
    const std::uint64_t out_base = out_.offset;
    k.phases.push_back([this, out_base, &prices, gpu_direct,
                        in_kernel](ThreadCtx &ctx) {
        if (ctx.threadIdx() != 0)
            return;
        if (gpu_direct) {
            ctx.pmStore(out_base +
                            std::uint64_t(ctx.blockIdx()) * 4,
                        prices[ctx.blockIdx()]);
            if (in_kernel)
                ctx.threadfenceSystem();
        }
    });
    m_->runKernel(k);

    if (!gpu_direct) {
        switch (m_->kind()) {
          case PlatformKind::CapFs:
            m_->capFsPersist(out_.offset, prices.data(),
                             prices.size() * 4, 1);
            break;
          default:
            m_->capMmPersist(out_.offset, prices.data(),
                             prices.size() * 4, p_.cap_threads);
            break;
        }
    } else if (m_->kind() == PlatformKind::GpmNdp) {
        m_->cpuPersistRange(out_.offset, prices.size() * 4,
                            p_.cap_threads);
    }

    r.op_ns = m_->now() - t0;
    r.persisted_payload = m_->persistPayloadBytes() - pay0;
    r.ops_done = p_.options;
    if (m_->kind() == PlatformKind::Gpm)
        gpmPersistEnd(*m_);

    r.verified = true;
    if (gpu_direct) {
        for (std::uint32_t i = 0; i < p_.options; ++i) {
            if (m_->pool().load<float>(out_.offset + i * 4) !=
                prices[i]) {
                r.verified = false;
                break;
            }
        }
    }
    return r;
}

float
GpBinomial::durablePrice(std::uint32_t i) const
{
    return m_->pool().loadDurable<float>(out_.offset + i * 4);
}

} // namespace gpm
