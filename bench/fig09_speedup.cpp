/**
 * @file
 * Figure 9: speedup of CAP-mm, GPM and GPUfs over CAP-fs across the
 * eleven workload configurations, clustered by class.
 *
 * Paper shape: CAP-mm ~2x on gpKVS; GPM 7-8x on gpKVS, 16/8/17/18/11x
 * on the checkpointing group, up to 85x on BFS; GPUfs below 1x where
 * it runs at all and "*" (unsupported) on the fine-grain workloads.
 *
 * The 44 (workload, platform) cells are independent worlds, so they
 * are swept across GPM_EXEC_WORKERS host threads via runBenchCells;
 * the table is built from the canonical-order result slots and is
 * bit-identical at any worker count.
 */
#include "bench/bench_util.hpp"
#include "common/env.hpp"
#include "harness/experiments.hpp"
#include "memsim/media_backend.hpp"

using namespace gpm;
using namespace gpm::bench;

int
main()
{
    // Cells already fan out across GPM_EXEC_WORKERS, so only the media
    // selection (GPM_MEDIA) applies inside each cell's machine.
    SimConfig cfg;
    applyMediaConfig(cfg, mediaFromEnv(cfg.media));
    constexpr PlatformKind kCols[] = {
        PlatformKind::CapFs, PlatformKind::CapMm,
        PlatformKind::Gpm,   PlatformKind::Gpufs,
    };
    std::vector<BenchCell> cells;
    for (const Bench b : kAllBenches)
        for (const PlatformKind kind : kCols)
            cells.push_back({b, kind, 1});
    const std::vector<WorkloadResult> results =
        runBenchCells(cells, cfg, sweepJobsFromEnv(1));

    Table table({"Class", "Workload", "CAP-fs (ms)", "CAP-mm", "GPM",
                 "GPUfs"});
    std::size_t i = 0;
    for (const Bench b : kAllBenches) {
        const SimNs base = comparableNs(b, results[i++]);
        auto speedup = [&]() -> std::string {
            const WorkloadResult &r = results[i++];
            if (!r.supported)
                return "*";
            return Table::num(base / comparableNs(b, r)) + "x";
        };
        const std::string cap_mm = speedup();
        const std::string gpm = speedup();
        const std::string gpufs = speedup();
        table.addRow({benchClass(b), benchName(b),
                      Table::num(toMs(base)), cap_mm, gpm, gpufs});
    }
    report("Figure 9: speedup over CAP-fs ('*' = unsupported on GPUfs)",
           table);
    return 0;
}
