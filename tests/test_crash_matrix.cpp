/**
 * @file
 * Crash-matrix torture tests: a bounded deterministic sweep of crash
 * points x eviction seeds x persist domains over every registered
 * workload invariant, byte-identical reproducibility of same-seed
 * sweeps, the crash-point grammar, and the exact persist-boundary
 * instants of GpmLog::insert's tail bump and GpmCheckpoint's
 * copy-then-flip protocol.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/status.hpp"
#include "crashtest/torture_runner.hpp"
#include "gpm/gpm_checkpoint.hpp"
#include "gpm/gpm_log.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "harness/experiments.hpp"

namespace gpm {
namespace {

// ---- scheduler ---------------------------------------------------------

TEST(CrashScheduler, DefaultGridMixesFractionsAndBoundaries)
{
    const std::vector<CrashSpec> specs =
        CrashScheduler::enumerate(CrashGrid::defaults());
    EXPECT_EQ(specs.size(), 8u);

    std::set<std::string> labels;
    bool frac = false, before = false, after = false, store = false;
    for (const CrashSpec &s : specs) {
        EXPECT_TRUE(labels.insert(s.label()).second)
            << "duplicate spec " << s.label();
        frac |= s.kind == CrashSpec::Kind::Fraction;
        before |= s.kind == CrashSpec::Kind::BeforeFence;
        after |= s.kind == CrashSpec::Kind::AfterFence;
        store |= s.kind == CrashSpec::Kind::AfterStore;
    }
    EXPECT_TRUE(frac && before && after && store);
}

TEST(CrashScheduler, ParseRoundTripsTheGrammar)
{
    for (const char *tok : {"frac:0.50", "before-fence:3",
                            "after-fence:12", "after-store:7"}) {
        EXPECT_EQ(CrashScheduler::parse(tok).label(), tok);
    }
    EXPECT_EQ(CrashScheduler::parseList("frac:0.25,after-store:1")
                  .size(),
              2u);

    for (const char *bad : {"frac", "frac:1.5", "frac:x",
                            "before-fence:0", "after-fence:",
                            "mid-kernel:3", ""}) {
        EXPECT_THROW(CrashScheduler::parse(bad), FatalError)
            << "accepted '" << bad << "'";
    }
}

TEST(CrashScheduler, MaterializeResolvesFractionsAgainstTheKernel)
{
    CrashSpec s{CrashSpec::Kind::Fraction, 0.5, 0};
    const CrashPoint p = s.materialize(1000);
    EXPECT_EQ(p.trigger, CrashPoint::Trigger::ThreadPhases);
    EXPECT_EQ(p.count, 500u);

    CrashSpec f{CrashSpec::Kind::BeforeFence, 0.0, 3};
    EXPECT_EQ(f.materialize(1000).trigger,
              CrashPoint::Trigger::BeforeFence);
    EXPECT_EQ(f.materialize(1000).count, 3u);
}

// ---- the bounded CI matrix ---------------------------------------------

TortureConfig
boundedConfig()
{
    TortureConfig cfg;
    // All five registered workloads, all three persist domains.
    cfg.specs = CrashScheduler::parseList(
        "frac:0.25,frac:0.75,before-fence:1,after-store:2");
    cfg.seeds = {1, 2, 3, 4, 5};
    cfg.survive_probs = {0.5};
    return cfg;
}

TEST(CrashMatrix, BoundedMatrixHasNoViolations)
{
    TortureConfig cfg = boundedConfig();
    const TortureReport report = TortureRunner::run(cfg);

    // >= 4 workloads x 3 domains x (fraction + boundary points) x
    // >= 5 eviction seeds, and at least 200 scenarios total.
    cfg.applyDefaults();
    EXPECT_GE(cfg.workloads.size(), 4u);
    EXPECT_EQ(cfg.domains.size(), 3u);
    EXPECT_GE(cfg.seeds.size(), 5u);
    ASSERT_EQ(report.results.size(), cfg.scenarioCount());
    EXPECT_GE(report.results.size(), 200u);

    for (const TortureResult &r : report.results) {
        EXPECT_NE(r.cls, OutcomeClass::Violation)
            << r.key() << ": " << r.detail;
    }
    EXPECT_EQ(report.violations(), 0u);

    // The sweep must actually exercise the machinery: crashes fire,
    // partial line survival happens, and the DDIO trap shows up under
    // llc-volatile (and only there).
    std::size_t fired = 0, survivors = 0;
    for (const TortureResult &r : report.results) {
        fired += r.outcome.fired;
        survivors += r.outcome.crash_survivors > 0;
        if (r.cls == OutcomeClass::DdioTrap) {
            EXPECT_EQ(r.scenario.domain, PersistDomain::LlcVolatile);
        }
    }
    EXPECT_GT(fired, 0u);
    EXPECT_GT(survivors, 0u);
    EXPECT_GT(report.countOf(OutcomeClass::DdioTrap), 0u);
    EXPECT_GT(report.countOf(OutcomeClass::StrictOk), 0u);
}

TEST(CrashMatrix, SameConfigReproducesByteIdenticalOutcomes)
{
    TortureConfig cfg;
    cfg.workloads = {"kvs", "prefix-sum"};
    cfg.specs = CrashScheduler::parseList("frac:0.50,after-fence:1");
    cfg.seeds = {7, 8};
    cfg.survive_probs = {0.5};

    const TortureReport a = TortureRunner::run(cfg);
    const TortureReport b = TortureRunner::run(cfg);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].key(), b.results[i].key());
        EXPECT_EQ(a.results[i].outcome.state_hash,
                  b.results[i].outcome.state_hash)
            << a.results[i].key();
        EXPECT_EQ(a.results[i].cls, b.results[i].cls);
    }
    EXPECT_EQ(a.signature(), b.signature());
}

TEST(CrashMatrix, ScaleGridIsTheDocumentedShape)
{
    // gpmtorture --scale sweeps CrashGrid::fine() x 12 seeds: 30
    // specs x 5 workloads x 3 domains x 12 seeds x 2 survival
    // probabilities = 10800 scenarios, the 10k+ standing oracle.
    const std::vector<CrashSpec> specs =
        CrashScheduler::enumerate(CrashGrid::fine());
    EXPECT_EQ(specs.size(), 30u);
    std::set<std::string> labels;
    for (const CrashSpec &s : specs)
        EXPECT_TRUE(labels.insert(s.label()).second)
            << "duplicate spec " << s.label();

    TortureConfig cfg;
    cfg.specs = specs;
    for (std::uint64_t s = 1; s <= 12; ++s)
        cfg.seeds.push_back(s);
    cfg.applyDefaults();
    EXPECT_EQ(cfg.scenarioCount(), 10800u);
}

TEST(CrashMatrix, EvictionSeedsChangeSurvivalNotCorrectness)
{
    // Sweep eviction seeds in both Gpm-platform domains. Under
    // mc-durable every store is fenced durable, so recovery must be
    // strict whatever survives; under llc-volatile everything since
    // the last drain is pending, so the per-128 B survival coin flips
    // actually differ from seed to seed (the axis is live).
    TortureConfig cfg;
    cfg.workloads = {"kvs"};
    cfg.domains = {PersistDomain::McDurable,
                   PersistDomain::LlcVolatile};
    cfg.specs = CrashScheduler::parseList("frac:0.50");
    cfg.seeds = {11, 12, 13, 14, 15, 16, 17, 18};
    cfg.survive_probs = {0.5};
    const TortureReport report = TortureRunner::run(cfg);
    EXPECT_EQ(report.violations(), 0u);

    std::set<std::uint64_t> survivor_counts;
    for (const TortureResult &r : report.results) {
        if (r.scenario.domain == PersistDomain::McDurable)
            EXPECT_TRUE(r.outcome.strict_ok) << r.key();
        else
            survivor_counts.insert(r.outcome.crash_survivors);
    }
    // The seed axis is live: survival patterns differ across seeds.
    EXPECT_GT(survivor_counts.size(), 1u);
}

TEST(CrashMatrix, SimperfCellsAreBitIdenticalAcrossSweepWidths)
{
    // simperf's fig9-cells stage asserts exact ops equality across
    // widths; this is the same contract on every modelled field, on
    // the two cheapest cells.
    using namespace gpm::bench;
    const std::vector<BenchCell> cells = {
        {Bench::PrefixSum, PlatformKind::Gpm, 1},
        {Bench::Srad, PlatformKind::Gpm, 1},
    };
    SimConfig cfg;
    const std::vector<WorkloadResult> a = runBenchCells(cells, cfg, 1);
    const std::vector<WorkloadResult> b = runBenchCells(cells, cfg, 4);
    ASSERT_EQ(a.size(), cells.size());
    ASSERT_EQ(b.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(a[i].supported, b[i].supported) << i;
        EXPECT_EQ(a[i].op_ns, b[i].op_ns) << i;
        EXPECT_EQ(a[i].persist_ns, b[i].persist_ns) << i;
        EXPECT_EQ(a[i].recovery_ns, b[i].recovery_ns) << i;
        EXPECT_EQ(a[i].persisted_payload, b[i].persisted_payload) << i;
        EXPECT_EQ(a[i].pcie_write_bytes, b[i].pcie_write_bytes) << i;
        EXPECT_EQ(a[i].ops_done, b[i].ops_done) << i;
        EXPECT_EQ(a[i].verified, b[i].verified) << i;
    }
}

TEST(CrashMatrix, BoundaryEventsFireAndRecover)
{
    const DomainSetup setup =
        domainSetupFor(PersistDomain::McDurable);
    const auto inv = makeInvariant("kvs");
    for (const char *tok :
         {"before-fence:1", "after-fence:1", "after-store:1"}) {
        const CrashPoint p = CrashScheduler::parse(tok).materialize(
            inv->doomedThreadPhases());
        const TortureOutcome o = inv->run(setup, p, 3, 0.0);
        EXPECT_TRUE(o.error.empty()) << tok << ": " << o.error;
        EXPECT_TRUE(o.fired) << tok;
        EXPECT_TRUE(o.strict_ok) << tok;
        EXPECT_EQ(o.crashes, 1u) << tok;
    }
}

// ---- GpmLog::insert tail-bump boundary ---------------------------------

struct LogEntry {
    std::uint64_t a = 0, b = 0;
};

/** Run one 32-thread insert kernel armed with @p point. */
GpmLog
crashInsert(Machine &m, const CrashPoint &point)
{
    gpmPersistBegin(m);
    GpmLog log = GpmLog::createHcl(m, "log", sizeof(LogEntry), 2, 1,
                                   32);
    KernelDesc k;
    k.name = "crashing_insert";
    k.blocks = 1;
    k.block_threads = 32;
    k.crash = point;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const LogEntry e{ctx.globalId() + 1, ~ctx.globalId()};
        log.insert(ctx, &e, sizeof(e));
    });
    EXPECT_THROW(m.runKernel(k), KernelCrashed);
    m.pool().crash(/*survive_prob=*/0.0);
    return GpmLog::open(m, "log");
}

TEST(GpmLogBoundary, MidTailBumpCrashLeavesSentinelUnset)
{
    // insert = chunk stores, fence, tail store, fence. Dying just
    // before the second fence is the mid-tail-bump instant: the tail
    // store is issued but never persisted, so recovery must see an
    // empty per-thread log.
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB, 5);
    GpmLog log = crashInsert(m, CrashPoint::beforeFence(2));
    for (std::uint64_t t = 0; t < 32; ++t)
        EXPECT_EQ(log.tailOf(t), 0u) << "thread " << t;
}

TEST(GpmLogBoundary, CrashAfterTailFencePreservesEntry)
{
    // Just after the second fence the tail is durable — and HCL's
    // ordering guarantees the entry behind it is complete.
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB, 5);
    GpmLog log = crashInsert(m, CrashPoint::afterFence(2));
    EXPECT_EQ(log.tailOf(0), 1u);
    LogEntry e;
    log.readEntryHost(0, 0, &e, sizeof(e));
    EXPECT_EQ(e.a, 1u);
    EXPECT_EQ(e.b, ~std::uint64_t(0));
    for (std::uint64_t t = 1; t < 32; ++t)
        EXPECT_EQ(log.tailOf(t), 0u) << "thread " << t;
}

// ---- GpmCheckpoint copy/flip boundary ----------------------------------

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t salt)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(i * 31 + salt);
    return v;
}

TEST(CheckpointBoundary, CrashBetweenCopyAndFlipKeepsOldCopy)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB, 9);
    gpmPersistBegin(m);
    GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", 4096, 4, 1);
    std::vector<std::uint8_t> data = pattern(4000, 1);
    cp.registerData(0, data.data(), data.size());
    cp.checkpoint(0);
    const std::uint32_t valid_before = cp.validIndex(0);
    const std::uint32_t seq_before = cp.sequence(0);

    // The copy completed and persisted; the flip never started.
    // (Refill in place: the registration pins data.data().)
    const std::vector<std::uint8_t> next = pattern(4000, 2);
    std::copy(next.begin(), next.end(), data.begin());
    cp.armCrashNextCheckpoint(CrashPoint::afterThreadPhases(0),
                              /*in_flip=*/true);
    EXPECT_THROW(cp.checkpoint(0), KernelCrashed);
    m.pool().crash(/*survive_prob=*/0.5);

    GpmCheckpoint reopened = GpmCheckpoint::open(m, "cp");
    EXPECT_EQ(reopened.validIndex(0), valid_before);
    EXPECT_EQ(reopened.sequence(0), seq_before);
    std::vector<std::uint8_t> out(4000, 0);
    reopened.registerData(0, out.data(), out.size());
    reopened.restore(0);
    EXPECT_EQ(out, pattern(4000, 1));
}

TEST(CheckpointBoundary, FlipStoreWithoutPersistDoesNotCommit)
{
    // Die after the flip kernel's first PM store but before its
    // fence: the new valid index is issued yet not durable, so with
    // zero line survival the old copy must still win.
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB, 9);
    gpmPersistBegin(m);
    GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", 4096, 4, 1);
    std::vector<std::uint8_t> data = pattern(4000, 1);
    cp.registerData(0, data.data(), data.size());
    cp.checkpoint(0);
    const std::uint32_t valid_before = cp.validIndex(0);

    const std::vector<std::uint8_t> next = pattern(4000, 2);
    std::copy(next.begin(), next.end(), data.begin());
    cp.armCrashNextCheckpoint(CrashPoint::afterPmStore(1),
                              /*in_flip=*/true);
    EXPECT_THROW(cp.checkpoint(0), KernelCrashed);
    m.pool().crash(/*survive_prob=*/0.0);

    GpmCheckpoint reopened = GpmCheckpoint::open(m, "cp");
    EXPECT_EQ(reopened.validIndex(0), valid_before);
    std::vector<std::uint8_t> out(4000, 0);
    reopened.registerData(0, out.data(), out.size());
    reopened.restore(0);
    EXPECT_EQ(out, pattern(4000, 1));
}

} // namespace
} // namespace gpm
