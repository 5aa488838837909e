/**
 * @file
 * Tests for the experiment harness: naming/classification, the
 * comparable-time rule for checkpointing rows, canonical parameter
 * sanity, the CXL preset, and cross-platform speedup directions the
 * figures rely on.
 */
#include <gtest/gtest.h>

#include "harness/experiments.hpp"

namespace gpm {
namespace bench {
namespace {

TEST(Harness, NamesAndClassesMatchThePaper)
{
    EXPECT_EQ(benchName(Bench::Kvs95), "gpKVS (95:5)");
    EXPECT_EQ(benchName(Bench::DbInsert), "gpDB (I)");
    EXPECT_EQ(benchName(Bench::Hotspot), "HS");
    EXPECT_EQ(benchClass(Bench::Kvs), "Transactional");
    EXPECT_EQ(benchClass(Bench::Blk), "Checkpointing");
    EXPECT_EQ(benchClass(Bench::Srad), "Native");
    int transactional = 0, checkpointing = 0, native = 0;
    for (const Bench b : kAllBenches) {
        transactional += benchClass(b) == "Transactional";
        checkpointing += benchClass(b) == "Checkpointing";
        native += benchClass(b) == "Native";
    }
    EXPECT_EQ(transactional, 4);  // gpKVS x2 + gpDB x2
    EXPECT_EQ(checkpointing, 4);  // DNN CFD BLK HS
    EXPECT_EQ(native, 3);         // BFS SRAD PS
}

TEST(Harness, ComparableNsUsesCheckpointTimeForCheckpointing)
{
    WorkloadResult r;
    r.op_ns = 100.0;
    r.persist_ns = 10.0;
    EXPECT_DOUBLE_EQ(comparableNs(Bench::Dnn, r), 10.0);
    EXPECT_DOUBLE_EQ(comparableNs(Bench::Kvs, r), 100.0);
    r.persist_ns = 0.0;  // fall back when not separable
    EXPECT_DOUBLE_EQ(comparableNs(Bench::Cfd, r), 100.0);
}

TEST(Harness, CanonicalParamsFitThePool)
{
    // Every canonical workload must fit the canonical PM capacity.
    EXPECT_LT(kvsParams().storeBytes() * 2, pmCapacity());
    EXPECT_LT(dbParams().tableBytes() * 2, pmCapacity());
    EXPECT_GT(kvsParams().storeBytes(),
              50 * kvsParams().batch_ops * sizeof(KvPair));
    // 95:5 differs from the SET-only config only in the mix.
    EXPECT_EQ(kvs95Params().n_sets, kvsParams().n_sets);
    EXPECT_DOUBLE_EQ(kvs95Params().get_ratio, 0.95);
}

TEST(Harness, CxlPresetIsStrictlyBetterInterconnect)
{
    const SimConfig base;
    const SimConfig cxl = SimConfig::cxlAttachedPm();
    EXPECT_GT(cxl.pcie_gbps, base.pcie_gbps);
    EXPECT_LT(cxl.fence_mc_ns, base.fence_mc_ns);
    EXPECT_GE(cxl.pcie_concurrency, base.pcie_concurrency);
    // The media is the same.
    EXPECT_DOUBLE_EQ(cxl.nvm_random_gbps, base.nvm_random_gbps);
}

TEST(Harness, Figure9DirectionsHold)
{
    // The load-bearing orderings of Fig 9, as regression guards.
    SimConfig cfg;
    for (const Bench b : {Bench::Kvs, Bench::Bfs}) {
        const SimNs capfs = comparableNs(
            b, runBench(b, PlatformKind::CapFs, cfg));
        const SimNs capmm = comparableNs(
            b, runBench(b, PlatformKind::CapMm, cfg));
        const SimNs gpm =
            comparableNs(b, runBench(b, PlatformKind::Gpm, cfg));
        EXPECT_LT(capmm, capfs) << benchName(b);
        EXPECT_LT(gpm, capmm) << benchName(b);
    }
}

TEST(Harness, Figure9GpufsColumnMatchesPaper)
{
    // Fig 9's GPUfs column: only the bulk writers (DNN, CFD, SRAD) run;
    // per-thread writers deadlock GPUfs and BLK/HS exceed its 2 GB
    // file limit — the paper's "*" entries.
    std::vector<BenchCell> cells;
    for (const Bench b : kAllBenches)
        cells.push_back({b, PlatformKind::Gpufs});
    const std::vector<WorkloadResult> results =
        runBenchCells(cells, SimConfig{}, 2);
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Bench b = cells[i].b;
        const bool runs =
            b == Bench::Dnn || b == Bench::Cfd || b == Bench::Srad;
        EXPECT_EQ(results[i].supported, runs) << benchName(b);
        if (runs) {
            EXPECT_TRUE(results[i].verified) << benchName(b);
        }
    }
}

TEST(Harness, Figure10DirectionsHold)
{
    SimConfig cfg;
    // eADR helps GPM; NDP hurts it; both stay ahead of CAP-fs.
    const Bench b = Bench::DbUpdate;
    const SimNs capfs =
        comparableNs(b, runBench(b, PlatformKind::CapFs, cfg));
    const SimNs ndp =
        comparableNs(b, runBench(b, PlatformKind::GpmNdp, cfg));
    const SimNs gpm =
        comparableNs(b, runBench(b, PlatformKind::Gpm, cfg));
    const SimNs eadr =
        comparableNs(b, runBench(b, PlatformKind::GpmEadr, cfg));
    EXPECT_LT(eadr, gpm);
    EXPECT_LT(gpm, ndp);
    EXPECT_LT(ndp, capfs);
}

TEST(Harness, SeedsChangeNothingFunctionalButExist)
{
    SimConfig cfg;
    const WorkloadResult a = runBench(Bench::Dnn, PlatformKind::Gpm,
                                      cfg, 1);
    const WorkloadResult b = runBench(Bench::Dnn, PlatformKind::Gpm,
                                      cfg, 999);
    // Timing is seed-independent for a clean (crash-free) run.
    EXPECT_DOUBLE_EQ(a.op_ns, b.op_ns);
}

} // namespace
} // namespace bench
} // namespace gpm
