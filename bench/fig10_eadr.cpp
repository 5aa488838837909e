/**
 * @file
 * Figure 10: GPM-NDP / GPM / GPM-eADR / CAP-eADR speedup over CAP-fs
 * (log-scale bars in the paper).
 *
 * Paper shape: GPM up to 6x over GPM-NDP (direct persistence matters
 * beyond direct access); GPM-eADR up to 13x over GPM on fence-heavy
 * (logging) workloads and ~flat on checkpointing; GPM-eADR ~24x
 * CAP-eADR on average (eADR does not rescue CAP's data movement).
 *
 * The 55 (workload, platform) cells are swept across GPM_EXEC_WORKERS
 * host threads via runBenchCells; the table and geomeans reduce the
 * canonical-order result slots, so every printed number is
 * bit-identical at any worker count.
 */
#include <cmath>

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
        PlatformKind::CapFs, PlatformKind::GpmNdp, PlatformKind::Gpm,
        PlatformKind::GpmEadr, PlatformKind::CapEadr,
    };
    std::vector<BenchCell> cells;
    for (const Bench b : kAllBenches)
        for (const PlatformKind kind : kCols)
            cells.push_back({b, kind, 1});
    const std::vector<WorkloadResult> results =
        runBenchCells(cells, cfg, sweepJobsFromEnv(1));

    Table table({"Class", "Workload", "GPM-NDP", "GPM", "GPM-eADR",
                 "CAP-eADR"});
    double geo_gpm_eadr = 0, geo_cap_eadr = 0;
    int count = 0;
    std::size_t i = 0;
    for (const Bench b : kAllBenches) {
        const SimNs base = comparableNs(b, results[i++]);
        auto cell = [&]() { return comparableNs(b, results[i++]); };
        const double ndp = base / cell();
        const double gpm = base / cell();
        const double gpm_eadr = base / cell();
        const double cap_eadr = base / cell();
        geo_gpm_eadr += std::log(gpm_eadr);
        geo_cap_eadr += std::log(cap_eadr);
        ++count;
        table.addRow({benchClass(b), benchName(b),
                      Table::num(ndp) + "x", Table::num(gpm) + "x",
                      Table::num(gpm_eadr) + "x",
                      Table::num(cap_eadr) + "x"});
    }
    table.addRow({"", "geomean", "", "",
                  Table::num(std::exp(geo_gpm_eadr / count)) + "x",
                  Table::num(std::exp(geo_cap_eadr / count)) + "x"});
    report("Figure 10: speedup over CAP-fs (eADR projections)", table);
    return 0;
}
