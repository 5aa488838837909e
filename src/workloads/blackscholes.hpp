/**
 * @file
 * BLK workload (Table 1: CUDA-SDK Black-Scholes over 256 M options,
 * checkpointing the predicted prices).
 *
 * The closed-form Black-Scholes valuation is computed for a scaled
 * option book; each iteration re-prices the book as time-to-maturity
 * decays (a realistic revaluation sweep), and the call/put price
 * arrays are the checkpointed state.
 */
#pragma once

#include "workloads/iterative.hpp"

namespace gpm {

/** Option book size. */
struct BlkParams {
    std::uint32_t options = 3u << 16;  ///< 196608 options, 1.5 MiB state
    std::uint64_t seed = 13;
};

/** The Black-Scholes app. */
class BlackScholesApp final : public IterativeApp
{
  public:
    /** Annual risk-free rate r of every option. */
    static constexpr float kRiskFree = 0.02f;

    explicit BlackScholesApp(const BlkParams &p) : p_(p) {}

    std::string name() const override { return "blk"; }
    void init() override;
    void computeIteration(Machine &m, std::uint32_t iter) override;
    void registerState(GpmCheckpoint &cp) override;
    std::uint64_t
    stateBytes() const override
    {
        return std::uint64_t(2) * p_.options * sizeof(float);
    }
    std::uint64_t
    paperStateBytes() const override
    {
        return std::uint64_t(4) << 30;  // Table 1: 4 GB (fails GPUfs)
    }
    std::vector<std::uint8_t> snapshot() const override;

    /** Call and put of one option. */
    struct Price {
        float call = 0, put = 0;
    };

    /** Reference price of option @p i at iteration @p iter (tests):
     *  the pricing function computeIteration runs, for one option,
     *  in the baseline ISA. */
    Price referencePrice(std::uint32_t i, std::uint32_t iter) const;

    /** Time to maturity T, in years, that iteration @p iter prices. */
    static float yearsToMaturity(std::uint32_t iter);

    /**
     * Standard normal CDF N(x) as the pricer computes it: an in-repo
     * approximation (rational-Chebyshev erfc with a polynomial exp)
     * within 2.8e-7 of the exact value (DESIGN.md S17).
     */
    static float normCdf(float x);

    float call(std::uint32_t i) const { return calls_[i]; }
    float put(std::uint32_t i) const { return puts_[i]; }
    float spot(std::uint32_t i) const { return spot_[i]; }
    float strike(std::uint32_t i) const { return strike_[i]; }
    float vol(std::uint32_t i) const { return vol_[i]; }

  private:
    BlkParams p_;
    std::vector<float> spot_, strike_, vol_;  ///< inputs (HBM-resident)
    std::vector<float> log_sk_;               ///< log(spot / strike)
    std::vector<float> calls_, puts_;         ///< checkpointed outputs
};

} // namespace gpm
