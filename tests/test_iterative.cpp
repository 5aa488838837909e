/**
 * @file
 * Tests for the iterative checkpointing workloads (DNN, CFD, BLK, HS):
 * functional behaviour, platform coverage, checkpoint/restore/resume
 * correctness and mid-checkpoint crash atomicity.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <memory>
#include <vector>

#include "common/hash.hpp"
#include "workloads/blackscholes.hpp"
#include "workloads/cfd.hpp"
#include "workloads/dnn.hpp"
#include "workloads/hotspot.hpp"

namespace gpm {
namespace {

std::unique_ptr<IterativeApp>
makeApp(int which)
{
    switch (which) {
      case 0: return std::make_unique<DnnApp>(DnnParams{});
      case 1: return std::make_unique<CfdApp>(CfdParams{});
      case 2: return std::make_unique<BlackScholesApp>(BlkParams{});
      default: return std::make_unique<HotspotApp>(HotspotParams{});
    }
}

IterativeParams
schedule()
{
    IterativeParams p;
    p.iterations = 12;
    p.checkpoint_every = 4;
    return p;
}

TEST(Dnn, LossDecreasesWithTraining)
{
    DnnApp app{DnnParams{}};
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 16_MiB);
    app.init();
    app.computeIteration(m, 0);
    const double first = app.lastLoss();
    for (std::uint32_t i = 1; i < 60; ++i)
        app.computeIteration(m, i);
    EXPECT_LT(app.lastLoss(), 0.7 * first);
    EXPECT_GT(app.accuracy(), 0.5);
}

TEST(Cfd, FieldEvolvesAndStaysFinite)
{
    CfdApp app{CfdParams{}};
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 16_MiB);
    app.init();
    const double d0 = app.totalDensity();
    for (std::uint32_t i = 0; i < 10; ++i)
        app.computeIteration(m, i);
    const double d1 = app.totalDensity();
    EXPECT_TRUE(std::isfinite(d1));
    EXPECT_NE(d0, d1);  // the pocket advects
    EXPECT_NEAR(d1, d0, 0.2 * d0);  // ... without blowing up
}

double
exactNormCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

/** Run the BLK schedule up to each of @p checked iterations and call
 *  @p check(app, iter) after pricing it. */
template <typename Check>
void
forBlkIterations(std::initializer_list<std::uint32_t> checked, Check check)
{
    BlackScholesApp app{BlkParams{}};
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 16_MiB);
    app.init();
    std::uint32_t iter = 0;
    for (const std::uint32_t until : checked) {
        for (; iter <= until; ++iter)
            app.computeIteration(m, iter);
        SCOPED_TRACE(::testing::Message() << "iteration " << until);
        check(app, until);
    }
}

// Strikes and spots lie in [20, 120] and prices below 128, where a
// float ulp is 7.6e-6.
TEST(BlackScholes, PutCallParityHolds)
{
    forBlkIterations({0, 10, 19}, [](const BlackScholesApp &app,
                                     std::uint32_t iter) {
        const double years = BlackScholesApp::yearsToMaturity(iter);
        const double discount =
            std::exp(-double(BlackScholesApp::kRiskFree) * years);
        // C - P = S - K e^{-rT}. The pricer's N(d) + N(-d) is 1 up to
        // one rounding, so parity holds to a few ulp at 128.
        for (std::uint32_t i = 0; i < BlkParams{}.options; ++i) {
            const double c = app.call(i), p = app.put(i);
            ASSERT_NEAR(c - p, app.spot(i) - app.strike(i) * discount,
                        5e-5)
                << "option " << i;
            ASSERT_TRUE(std::isfinite(c) && std::isfinite(p));
            ASSERT_GE(c, -1e-4);
            ASSERT_GE(p, -1e-4);
            // The loop runs the widest vector clone the host has; the
            // reference prices one option in the baseline ISA.
            const BlackScholesApp::Price ref = app.referencePrice(i, iter);
            ASSERT_EQ(app.call(i), ref.call) << "option " << i;
            ASSERT_EQ(app.put(i), ref.put) << "option " << i;
        }
    });
}

TEST(BlackScholes, CallsMatchDoublePrecisionClosedForm)
{
    forBlkIterations({0, 10, 19}, [](const BlackScholesApp &app,
                                     std::uint32_t iter) {
        const double r = BlackScholesApp::kRiskFree;
        const double years = BlackScholesApp::yearsToMaturity(iter);
        // |C - C_exact| <= S eps_N + K eps_N + rounding, with the CDF
        // bound eps_N = 2.8e-7 contributing at most 6.7e-5.
        for (std::uint32_t i = 0; i < BlkParams{}.options; ++i) {
            const double s = app.spot(i), k = app.strike(i),
                         v = app.vol(i);
            const double d1 = (std::log(s / k) + (r + 0.5 * v * v) * years) /
                              (v * std::sqrt(years));
            const double d2 = d1 - v * std::sqrt(years);
            const double exact = s * exactNormCdf(d1) -
                                 k * std::exp(-r * years) * exactNormCdf(d2);
            ASSERT_NEAR(app.call(i), exact, 1e-4) << "option " << i;
        }
    });
}

TEST(BlackScholes, NormCdfWithinBoundOfErfc)
{
    for (int step = -120000; step <= 120000; ++step) {
        const float d = static_cast<float>(step * 1e-4);
        ASSERT_NEAR(BlackScholesApp::normCdf(d), exactNormCdf(d), 4e-7)
            << "d = " << d;
    }
}

TEST(Hotspot, HeatsUpUnderPowerAndSaturates)
{
    HotspotApp app{HotspotParams{}};
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 16_MiB);
    app.init();
    const float t0 = app.maxTemp();
    for (std::uint32_t i = 0; i < 40; ++i)
        app.computeIteration(m, i);
    EXPECT_GT(app.maxTemp(), t0 + 10.0f);
    EXPECT_LT(app.maxTemp(), 400.0f);
}

class IterativeAllApps : public ::testing::TestWithParam<int>
{
};

TEST_P(IterativeAllApps, RunsOnEveryPlatform)
{
    for (PlatformKind kind :
         {PlatformKind::Gpm, PlatformKind::GpmNdp, PlatformKind::GpmEadr,
          PlatformKind::CapFs, PlatformKind::CapMm,
          PlatformKind::CapEadr, PlatformKind::Gpufs}) {
        auto app = makeApp(GetParam());
        SimConfig cfg;
        Machine m(cfg, kind, 64_MiB);
        const WorkloadResult r = app->run(m, schedule());
        if (kind == PlatformKind::Gpufs && GetParam() >= 2) {
            // BLK and HS exceed GPUfs's 2 GB file limit (Fig 9 "*").
            EXPECT_FALSE(r.supported) << app->name();
            continue;
        }
        EXPECT_TRUE(r.supported) << app->name();
        EXPECT_GT(r.op_ns, 0.0) << app->name();
        EXPECT_GT(r.persisted_payload, 0u) << app->name();
    }
}

TEST_P(IterativeAllApps, CheckpointedBytesMatchState)
{
    auto app = makeApp(GetParam());
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    const IterativeParams p = schedule();
    app->run(m, p);
    // Durable consistent buffer equals the live snapshot (the last
    // checkpoint happened on the final iteration).
    GpmCheckpoint cp = GpmCheckpoint::open(m, app->name() + ".cp");
    EXPECT_EQ(cp.sequence(0), p.iterations / p.checkpoint_every);
}

TEST_P(IterativeAllApps, CrashRestoreResumesToSameState)
{
    for (const bool in_checkpoint : {false, true}) {
        auto app = makeApp(GetParam());
        SimConfig cfg;
        Machine m(cfg, PlatformKind::Gpm, 64_MiB, 99);
        const WorkloadResult r = app->runWithCrashRestore(
            m, schedule(), /*crash_iter=*/7, in_checkpoint,
            /*survive_prob=*/0.3);
        EXPECT_TRUE(r.verified)
            << app->name() << " in_checkpoint=" << in_checkpoint;
        EXPECT_GT(r.recovery_ns, 0.0);
    }
}

TEST_P(IterativeAllApps, CheckpointingFasterOnGpmThanCap)
{
    auto a = makeApp(GetParam());
    auto b = makeApp(GetParam());
    SimConfig cfg;
    Machine gpm_m(cfg, PlatformKind::Gpm, 64_MiB);
    Machine cap_m(cfg, PlatformKind::CapFs, 64_MiB);
    const WorkloadResult rg = a->run(gpm_m, schedule());
    const WorkloadResult rc = b->run(cap_m, schedule());
    EXPECT_LT(rg.op_ns, rc.op_ns) << a->name();
    // Checkpoints move identical bytes: write amplification is 1.
    EXPECT_EQ(rg.persisted_payload, rc.persisted_payload);
}

// The fingerprints hash only modelled results, and the checkpoint tests
// compare an app with itself, so this pins the apps' numerics: a host
// rewrite of their arithmetic must keep every bit of the state.
TEST_P(IterativeAllApps, StateAfterCanonicalScheduleIsPinned)
{
    // FNV-1a of snapshot() after the Fig 9 schedule (20 iterations,
    // a checkpoint every 5th) at default params: DNN, CFD, BLK, HS.
    constexpr std::uint64_t kStateFnv[] = {
        0x098993a3c05664a2ull, 0xabd79fa273dd0d78ull,
        0xe9d0de662d494f0aull, 0xe21e4ead3b11fd66ull};
    auto app = makeApp(GetParam());
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    IterativeParams p;
    p.iterations = 20;
    p.checkpoint_every = 5;
    app->run(m, p);
    const std::vector<std::uint8_t> state = app->snapshot();
    EXPECT_EQ(fnv1a(state.data(), state.size()), kStateFnv[GetParam()])
        << app->name() << " state fnv " << std::hex
        << fnv1a(state.data(), state.size());
}

INSTANTIATE_TEST_SUITE_P(Apps, IterativeAllApps,
                         ::testing::Range(0, 4));

} // namespace
} // namespace gpm
