/**
 * @file
 * Simulator host-performance benchmark: how fast does the simulation
 * itself run, and how well does it scale across host threads?
 *
 * Unlike the figure benches (which report *modelled* time), simperf
 * times the host wall-clock of three representative stages and emits
 * machine-readable results to BENCH_simperf.json:
 *
 *  1. fig9-cells: the full Figure 9 (workload x platform) matrix,
 *     with independent cells (each its own Machine) swept over
 *     1/2/4/8 host threads by the harness sweep engine — the
 *     coarse-grain parallel lever. The summed ops come from the
 *     canonical-order result slots and must match bitwise across
 *     widths (enforced below).
 *  2. crash-matrix: a 300-scenario bounded torture sweep (5 workloads
 *     x 3 domains x 4 crash specs x 5 eviction seeds), itself swept
 *     at every width via TortureConfig::jobs; the FNV signature folds
 *     canonical-order slots and must match bitwise across widths
 *     (enforced below).
 *  3. media-record: the interleaved media backend's recordWrite path
 *     at 1/2/4/8 DIMMs (the Jobs column is the DIMM count) — 16 Ki
 *     warps appending into private granule slabs, record + close
 *     timed end to end. One DIMM must replay the legacy single-table
 *     model bit for bit (tier totals enforced below); wider sets
 *     shard the stream table per DIMM and should raise throughput.
 *
 * --smoke shrinks every stage to a seconds-scale CI gate; the JSON
 * shape is identical so downstream tooling never branches.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/status.hpp"
#include "crashtest/torture_runner.hpp"
#include "harness/experiments.hpp"
#include "memsim/media_backend.hpp"
#include "telemetry/json.hpp"

using namespace gpm;
using namespace gpm::bench;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct StageRow {
    std::string stage;
    unsigned jobs = 1;
    std::size_t units = 0;   ///< cells or scenarios completed
    double wall_s = 0.0;

    double
    unitsPerSec() const
    {
        return wall_s > 0 ? units / wall_s : 0.0;
    }
};

/**
 * Sweep every cell once across @p jobs host workers (the harness
 * sweep engine) and return wall seconds. ops_sink sums ops_done over
 * the canonical-order result slots, so it is schedule-independent and
 * doubles as the cross-width bit-identity check.
 */
double
runCells(const std::vector<BenchCell> &cells, unsigned jobs,
         double &ops_sink)
{
    const SimConfig cfg;
    const auto t0 = Clock::now();
    const std::vector<WorkloadResult> results =
        runBenchCells(cells, cfg, static_cast<int>(jobs));
    const double wall = secondsSince(t0);
    ops_sink = 0.0;
    for (const WorkloadResult &r : results) {
        if (r.supported)
            ops_sink += r.ops_done;
    }
    return wall;
}

TortureConfig
crashMatrixConfig(bool smoke)
{
    TortureConfig cfg;
    cfg.specs = CrashScheduler::parseList(
        "frac:0.25,frac:0.75,before-fence:1,after-store:2");
    cfg.seeds = smoke ? std::vector<std::uint64_t>{1}
                      : std::vector<std::uint64_t>{1, 2, 3, 4, 5};
    cfg.survive_probs = {0.5};
    return cfg;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const unsigned host_threads =
        std::max(1u, std::thread::hardware_concurrency());

    // The jobs axis never exaggerates: widths beyond the host's
    // actual thread count are reported but cannot speed anything up.
    const std::vector<unsigned> widths =
        smoke ? std::vector<unsigned>{1, 2}
              : std::vector<unsigned>{1, 2, 4, 8};

    std::vector<BenchCell> fig9;
    if (smoke) {
        fig9 = {{Bench::PrefixSum, PlatformKind::Gpm, 1},
                {Bench::Srad, PlatformKind::Gpm, 1}};
    } else {
        for (const Bench b : kAllBenches)
            for (const PlatformKind kind :
                 {PlatformKind::CapFs, PlatformKind::CapMm,
                  PlatformKind::Gpm, PlatformKind::Gpufs})
                fig9.push_back({b, kind, 1});
    }

    std::vector<StageRow> rows;
    double ref_ops = -1.0;

    // Stage 1: cell-level parallelism over the Fig 9 matrix.
    for (const unsigned jobs : widths) {
        double ops = 0.0;
        StageRow r{"fig9-cells", jobs, fig9.size(),
                   runCells(fig9, jobs, ops)};
        if (ref_ops < 0)
            ref_ops = ops;
        GPM_REQUIRE(ops == ref_ops,
                    "fig9 ops diverged across widths: ", ops, " vs ",
                    ref_ops);
        rows.push_back(r);
    }

    // Stage 2: the bounded crash matrix, itself swept at each width.
    // The signature folds canonical-order result slots, so it must be
    // bit-identical whatever the worker count.
    TortureConfig tcfg = crashMatrixConfig(smoke);
    TortureReport treport;
    std::uint64_t ref_sig = 0;
    for (const unsigned jobs : widths) {
        tcfg.jobs = static_cast<int>(jobs);
        const auto t0 = Clock::now();
        const TortureReport r = TortureRunner::run(tcfg);
        rows.push_back(
            {"crash-matrix", jobs, r.results.size(), secondsSince(t0)});
        GPM_REQUIRE(r.violations() == 0,
                    "crash matrix reported violations at jobs=", jobs);
        if (jobs == widths.front()) {
            ref_sig = r.signature();
            treport = r;
        }
        GPM_REQUIRE(r.signature() == ref_sig,
                    "crash-matrix signature diverged at jobs=", jobs,
                    ": ", hex(r.signature()), " vs ", hex(ref_sig));
    }

    // Stage 3: the multi-DIMM media backend's recordWrite hot path.
    // Same drive pattern as BM_NvmModelInterleaved: per-warp private
    // granule slabs striped over the DIMM set, streams round-robined
    // so every record resolves through the stream table. Slabs are
    // granule-aligned, so tier totals must be bitwise identical at
    // every width (enforced), and the one-DIMM row IS the legacy
    // model's cost.
    {
        const std::uint64_t writes = smoke ? (1ull << 22)
                                           : (1ull << 25);
        constexpr std::uint64_t kStreams = 16384;
        constexpr std::uint64_t kSlab = 4096;
        NvmTierBytes media_ref{};
        for (const unsigned dimms : {1u, 2u, 4u, 8u}) {
            SimConfig mcfg;
            mcfg.media.kind = MediaKind::Interleaved;
            mcfg.media.dimms = static_cast<int>(dimms);
            const std::unique_ptr<MediaBackend> nvm =
                makeMediaBackend(mcfg);
            std::vector<std::uint64_t> off(kStreams, 0);
            const auto t0 = Clock::now();
            for (std::uint64_t i = 0; i < writes; ++i) {
                const std::uint64_t s = i & (kStreams - 1);
                nvm->recordWrite(s, s * kSlab + off[s], 64);
                off[s] = (off[s] + 64) & (kSlab - 1);
                if ((i & ((1u << 22) - 1)) == (1u << 22) - 1)
                    nvm->closeRuns();
            }
            nvm->closeRuns();
            rows.push_back({"media-record", dimms,
                            static_cast<std::size_t>(writes),
                            secondsSince(t0)});
            if (dimms == 1)
                media_ref = nvm->bytes();
            GPM_REQUIRE(nvm->bytes() == media_ref,
                        "media tier totals diverged at dimms=", dimms);
        }
    }

    // ---- report ---------------------------------------------------------
    Table table({"Stage", "Jobs", "Units", "Wall (s)", "Units/s"});
    for (const StageRow &r : rows)
        table.addRow({r.stage, std::to_string(r.jobs),
                      std::to_string(r.units), Table::num(r.wall_s),
                      Table::num(r.unitsPerSec())});
    report("simperf: host wall-clock of the simulator itself (" +
               std::to_string(host_threads) + " host threads)",
           table);

    const double base = rows.front().wall_s;
    double best = base;
    for (const StageRow &r : rows)
        if (r.stage == "fig9-cells" && r.wall_s < best)
            best = r.wall_s;
    std::cout << "fig9 matrix best speedup: "
              << Table::num(best > 0 ? base / best : 0.0) << "x over "
              << widths.size() << " widths\n";

    // Same keys the hand-rolled emitter used, now through the shared
    // telemetry serializer (one escaping/number policy, validated
    // structure), plus the uniform schema/tool envelope fields.
    {
        std::ofstream js("BENCH_simperf.json", std::ios::trunc);
        telemetry::JsonWriter w(js);
        w.beginObject();
        w.field("schema", "gpm-metrics-v1");
        w.field("tool", "simperf");
        w.field("host_threads", host_threads);
        w.field("smoke", smoke);
        w.key("stages");
        w.beginArray();
        for (const StageRow &r : rows) {
            w.beginObject();
            w.field("stage", r.stage);
            w.field("jobs", r.jobs);
            w.field("units", std::uint64_t(r.units));
            w.field("wall_s", r.wall_s);
            w.field("units_per_s", r.unitsPerSec());
            w.endObject();
        }
        w.endArray();
        w.key("crash_matrix");
        w.beginObject();
        w.field("scenarios", std::uint64_t(treport.results.size()));
        w.field("violations", std::uint64_t(treport.violations()));
        w.field("signature", hex(treport.signature()));
        w.field("bit_identical_widths",
                std::uint64_t(widths.size()));
        w.endObject();
        w.field("fig9_best_speedup", best > 0 ? base / best : 0.0);
        {
            double media_base = 0.0, media_best = 0.0;
            for (const StageRow &r : rows) {
                if (r.stage != "media-record")
                    continue;
                if (r.jobs == 1)
                    media_base = r.wall_s;
                if (media_best == 0.0 || r.wall_s < media_best)
                    media_best = r.wall_s;
            }
            w.field("media_record_best_speedup",
                    media_best > 0 ? media_base / media_best : 0.0);
        }
        w.endObject();
        GPM_REQUIRE(w.complete() && js.good(),
                    "failed writing BENCH_simperf.json");
    }
    std::string error;
    GPM_REQUIRE(telemetry::validateJsonFile(
                    "BENCH_simperf.json",
                    {"schema", "tool", "stages", "crash_matrix"}, &error),
                "BENCH_simperf.json failed validation: ", error);
    return 0;
}
