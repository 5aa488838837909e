#include "workloads/blackscholes.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/rng.hpp"

namespace gpm {

namespace {
constexpr float kInitialYears = 2.0f;
constexpr float kYearsPerIter = 0.05f;

// The pricing loop must stay free of libm calls and of float
// compare-selects so GCC vectorizes it at -O3 without -ffast-math:
// std::nearbyint is a libm call under plain SSE2, and with the default
// -ftrapping-math GCC will not if-convert a float clamp. Rounding and
// clamping are therefore done on integers and bit patterns below.

/**
 * e^x for x in [-87, 88]: Cody-Waite reduction x = n ln2 + r with
 * |r| <= ln2/2, then a degree-5 minimax polynomial for e^r (relative
 * error 1.05e-7). Adding 1.5 * 2^23 rounds x log2(e) to the nearest
 * integer n, which then sits in the low mantissa bits; 2^n is built
 * directly in the exponent field, so n must stay in [-126, 127].
 */
inline float
expApprox(float x)
{
    constexpr float kRound = 12582912.0f;  // 1.5 * 2^23
    const float shifted = x * 1.44269504f + kRound;
    const std::int32_t n =
        std::bit_cast<std::int32_t>(shifted) -
        std::bit_cast<std::int32_t>(kRound);
    const float nf = shifted - kRound;
    const float r = (x - nf * 0.693359375f) - nf * -2.12194440e-4f;
    const float er =
        1.0f + r +
        r * r *
            (0.499992318f +
             r * (0.166671145f + r * (0.0418901132f + r * 0.00831252496f)));
    return er * std::bit_cast<float>((n + 127) << 23);
}

/**
 * N(d) and N(-d) from one exponential. q = N(-|d|) is half of
 * Numerical Recipes' erfcc(|d| / sqrt 2) (fractional error below
 * 1.2e-7); the sign of d then picks which of q and 1 - q is N(d).
 * |d| is clamped to 12 on its bit pattern (non-negative floats order
 * like their bits), where N(-12) ~ 1.8e-33: that keeps the
 * exponential's argument above -74, so no result is denormal, and
 * maps infinities to 0 and 1.
 */
inline void
normCdfPair(float d, float &cdf, float &cdf_neg)
{
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(d);
    const float a = std::bit_cast<float>(std::min(
        bits & 0x7fffffffu, std::bit_cast<std::uint32_t>(12.0f)));
    const float z = a * 0.70710678f;
    const float t = 1.0f / (1.0f + 0.5f * z);
    const float poly =
        -1.26551223f +
        t * (1.00002368f +
             t * (0.37409196f +
                  t * (0.09678418f +
                       t * (-0.18628806f +
                            t * (0.27886807f +
                                 t * (-1.13520398f +
                                      t * (1.48851587f +
                                           t * (-0.82215223f +
                                                t * 0.17087277f))))))));
    const float q = 0.5f * t * expApprox(poly - z * z);
    const std::uint32_t lo = std::bit_cast<std::uint32_t>(q);
    const std::uint32_t hi = std::bit_cast<std::uint32_t>(1.0f - q);
    const std::uint32_t neg = 0u - (bits >> 31);  // all ones iff d < 0
    cdf = std::bit_cast<float>((lo & neg) | (hi & ~neg));
    cdf_neg = std::bit_cast<float>((hi & neg) | (lo & ~neg));
}

/** What every option priced at one time to maturity shares. */
struct Maturity {
    float years, sqrt_t, discount;
};

Maturity
maturityAt(std::uint32_t iter)
{
    const float years = BlackScholesApp::yearsToMaturity(iter);
    return {years, std::sqrt(years),
            std::exp(-BlackScholesApp::kRiskFree * years)};
}

/** Closed-form European call and put of one option. */
inline void
priceOption(float s, float k, float v, float log_sk, Maturity mt,
            float &call, float &put)
{
    const float d1 =
        (log_sk + (BlackScholesApp::kRiskFree + 0.5f * v * v) * mt.years) /
        (v * mt.sqrt_t);
    const float d2 = d1 - v * mt.sqrt_t;
    float n1, n1_neg, n2, n2_neg;
    normCdfPair(d1, n1, n1_neg);
    normCdfPair(d2, n2, n2_neg);
    const float k_disc = k * mt.discount;
    call = s * n1 - k_disc * n2;
    put = k_disc * n2_neg - s * n1_neg;
}

/**
 * Prices options [0, n) at one maturity. GCC emits one clone of the
 * loop per listed ISA and the loader binds the widest the host runs.
 * Every clone computes the baseline's bits: the library compiles with
 * -ffp-contract=off, so no clone fuses a multiply and an add, and each
 * remaining operation rounds the same in any vector width.
 */
__attribute__((target_clones("avx512f", "avx2", "default"))) void
priceBook(const float *s, const float *k, const float *v,
          const float *log_sk, std::uint32_t n, Maturity mt, float *calls,
          float *puts)
{
    for (std::uint32_t i = 0; i < n; ++i)
        priceOption(s[i], k[i], v[i], log_sk[i], mt, calls[i], puts[i]);
}
} // namespace

float
BlackScholesApp::yearsToMaturity(std::uint32_t iter)
{
    return std::max(kInitialYears - kYearsPerIter * iter, 0.05f);
}

float
BlackScholesApp::normCdf(float x)
{
    float cdf, cdf_neg;
    normCdfPair(x, cdf, cdf_neg);
    return cdf;
}

void
BlackScholesApp::init()
{
    Rng rng(p_.seed);
    spot_.resize(p_.options);
    strike_.resize(p_.options);
    vol_.resize(p_.options);
    log_sk_.resize(p_.options);
    for (std::uint32_t i = 0; i < p_.options; ++i) {
        spot_[i] = 20.0f + 100.0f * static_cast<float>(rng.uniform());
        strike_[i] = 20.0f + 100.0f * static_cast<float>(rng.uniform());
        vol_[i] = 0.1f + 0.5f * static_cast<float>(rng.uniform());
        log_sk_[i] = std::log(spot_[i] / strike_[i]);
    }
    calls_.assign(p_.options, 0.0f);
    puts_.assign(p_.options, 0.0f);
}

void
BlackScholesApp::computeIteration(Machine &m, std::uint32_t iter)
{
    priceBook(spot_.data(), strike_.data(), vol_.data(), log_sk_.data(),
              p_.options, maturityAt(iter), calls_.data(), puts_.data());

    chargeGpuCompute(m, static_cast<double>(p_.options) * 60.0,
                     std::uint64_t(p_.options) * 5 * sizeof(float));
}

BlackScholesApp::Price
BlackScholesApp::referencePrice(std::uint32_t i, std::uint32_t iter) const
{
    Price out;
    priceOption(spot_[i], strike_[i], vol_[i], log_sk_[i], maturityAt(iter),
                out.call, out.put);
    return out;
}

void
BlackScholesApp::registerState(GpmCheckpoint &cp)
{
    cp.registerData(0, calls_.data(), calls_.size() * sizeof(float));
    cp.registerData(0, puts_.data(), puts_.size() * sizeof(float));
}

std::vector<std::uint8_t>
BlackScholesApp::snapshot() const
{
    std::vector<std::uint8_t> out(stateBytes());
    std::memcpy(out.data(), calls_.data(),
                calls_.size() * sizeof(float));
    std::memcpy(out.data() + calls_.size() * sizeof(float),
                puts_.data(), puts_.size() * sizeof(float));
    return out;
}

} // namespace gpm
