/**
 * @file
 * Golden-pin check: runs every sweep named in golden_pins.tsv and
 * compares its unit count, class counts and signature with the
 * manifest, at sweep widths 1 and 4. The rows are the same pins the
 * CLIs print (gpmtorture default/serve/pmheap sweeps, gpmcheck clean
 * grid, pmheap cells and seeded-bug corpus with witness replay) and the
 * Fig 9 matrix fingerprint perfbench's fig-grid prints, so tier-1 ctest
 * guards the simulator's observable behaviour end to end.
 * Scale sweeps (gpmtorture --scale: the default grid, the mid-traffic
 * serve grid and the pmheap grid) and the crash-results row (every
 * crash path's WorkloadResult, bit for bit) are checked at width 4
 * only, by their own test under the ctest label golden-scale.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/check_runner.hpp"
#include "crashtest/crash_scheduler.hpp"
#include "crashtest/torture_runner.hpp"
#include "harness/experiments.hpp"
#include "harness/sweep.hpp"
#include "persistency_bugs/corpus.hpp"

namespace gpm {
namespace {

/** What one sweep produced, in the manifest's column format. */
struct PinRow {
    std::size_t units = 0;
    std::string classes;
    std::string signature;
};

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** @p scale selects gpmtorture --scale: the fine crash grid over seeds
 *  1..12. Empty @p domains means all three. */
PinRow
tortureRow(std::vector<std::string> workloads, int jobs, bool scale = false,
           std::vector<PersistDomain> domains = {})
{
    TortureConfig cfg;
    cfg.workloads = std::move(workloads);
    cfg.domains = std::move(domains);
    cfg.jobs = jobs;
    if (scale) {
        cfg.specs = CrashScheduler::enumerate(CrashGrid::fine());
        for (std::uint64_t s = 1; s <= 12; ++s)
            cfg.seeds.push_back(s);
    }
    const TortureReport r = TortureRunner::run(cfg);
    const auto counts = r.classCounts();
    std::ostringstream classes;
    for (std::size_t c = 0; c < counts.size(); ++c)
        classes << (c ? "," : "")
                << outcomeClassName(static_cast<OutcomeClass>(c)) << "="
                << counts[c];
    return {r.results.size(), classes.str(), hex16(r.signature())};
}

PinRow
checkRow(CheckConfig cfg, int jobs)
{
    cfg.jobs = jobs;
    const CheckReport r = runCheck(cfg);
    std::size_t errors = 0;
    for (const CheckCell &c : r.cells)
        errors += c.error.empty() ? 0 : 1;
    std::ostringstream classes;
    classes << "findings=" << r.findingsAtLeast(Severity::Warn)
            << ",confirmed=" << r.confirmed() << ",cell-errors=" << errors;
    return {r.cells.size(), classes.str(), hex16(r.signature())};
}

/** FNV-1a over every field of @p r, doubles by their bits, in the
 *  field order of perfbench's result fingerprint. */
std::uint64_t
foldResult(const WorkloadResult &r, std::uint64_t h)
{
    h = fnv1aU64(r.supported, h);
    h = fnv1aU64(std::bit_cast<std::uint64_t>(r.op_ns), h);
    h = fnv1aU64(std::bit_cast<std::uint64_t>(r.persist_ns), h);
    h = fnv1aU64(std::bit_cast<std::uint64_t>(r.recovery_ns), h);
    h = fnv1aU64(r.persisted_payload, h);
    h = fnv1aU64(r.pcie_write_bytes, h);
    h = fnv1aU64(std::bit_cast<std::uint64_t>(r.ops_done), h);
    return fnv1aU64(r.verified, h);
}

/** Every crash path's full WorkloadResult: Table 5's eight crash cells
 *  (bench::runBenchWithCrash) and the native workloads' crash-and-
 *  resume runs at their canonical params, swept @p jobs wide. */
PinRow
crashResultsRow(int jobs)
{
    using bench::Bench;
    const SimConfig cfg;
    const auto native = [&cfg](auto run) {
        return [&cfg, run] {
            Machine m(cfg, PlatformKind::Gpm, bench::pmCapacity());
            return run(m);
        };
    };
    std::vector<std::function<WorkloadResult()>> runs;
    for (const Bench b : {Bench::Kvs, Bench::Kvs95, Bench::DbInsert,
                          Bench::DbUpdate, Bench::Dnn, Bench::Cfd,
                          Bench::Blk, Bench::Hotspot})
        runs.push_back([&cfg, b] { return bench::runBenchWithCrash(b, cfg); });
    runs.push_back(native([](Machine &m) {
        return GpSrad(m, bench::sradParams()).runWithCrash(2, 0.5);
    }));
    runs.push_back(native([](Machine &m) {
        return GpPrefixSum(m, bench::psParams()).runWithCrash(0.5, 0.5);
    }));
    runs.push_back(native([](Machine &m) {
        return GpBfs(m, bench::bfsParams()).runWithCrash(0.6, 0.5);
    }));

    SweepOptions opt;
    opt.workers = jobs;
    const std::vector<WorkloadResult> results = sweep(
        runs, [](SweepLane &, const auto &run) { return run(); }, opt);
    std::uint64_t h = kFnvOffset;
    std::size_t verified = 0;
    for (const WorkloadResult &r : results) {
        h = foldResult(r, h);
        verified += r.verified ? 1 : 0;
    }
    return {results.size(), "verified=" + std::to_string(verified),
            hex16(h)};
}

/** The Fig 9 matrix as perfbench's fig-grid runs it: every workload
 *  on CAP-fs, CAP-mm, GPM and GPUfs at seed 1, folded in that order,
 *  swept @p jobs wide. */
PinRow
fig9CellsRow(int jobs)
{
    std::vector<bench::BenchCell> cells;
    for (const bench::Bench b : bench::kAllBenches)
        for (const PlatformKind k :
             {PlatformKind::CapFs, PlatformKind::CapMm, PlatformKind::Gpm,
              PlatformKind::Gpufs})
            cells.push_back({b, k, 1});
    const std::vector<WorkloadResult> results =
        bench::runBenchCells(cells, bench::benchConfig(), jobs);
    std::uint64_t h = kFnvOffset;
    std::size_t verified = 0;
    for (const WorkloadResult &r : results) {
        h = foldResult(r, h);
        verified += r.verified ? 1 : 0;
    }
    return {results.size(), "verified=" + std::to_string(verified),
            hex16(h)};
}

struct Sweep {
    std::function<PinRow(int)> run;
    bool scale = false;  ///< checked at jobs 4 only (label golden-scale)
};

/** Every pinned sweep, configured exactly as its CLI runs it. */
const std::map<std::string, Sweep> &
sweeps()
{
    static const std::map<std::string, Sweep> m = {
        {"torture-default", {[](int j) { return tortureRow({}, j); }}},
        {"torture-serve", {[](int j) { return tortureRow({"serve"}, j); }}},
        {"torture-pmheap",
         {[](int j) { return tortureRow({"pmheap"}, j); }}},
        {"torture-scale",
         {[](int j) { return tortureRow({}, j, true); }, true}},
        // gpmtorture --scale --workloads serve
        //            --domains mc-durable,llc-durable
        // llc-volatile is left out: there the DDIO trap loses acked
        // writes by design (test_service checks that it is detected).
        {"torture-serve-scale",
         {[](int j) {
              return tortureRow({"serve"}, j, true,
                                {PersistDomain::McDurable,
                                 PersistDomain::LlcDurable});
          },
          true}},
        {"torture-pmheap-scale",
         {[](int j) { return tortureRow({"pmheap"}, j, true); }, true}},
        {"crash-results", {crashResultsRow, true}},
        {"fig9-cells", {fig9CellsRow}},
        {"check-clean", {[](int j) { return checkRow({}, j); }}},
        {"check-pmheap",
         {[](int j) {
             CheckConfig cfg;
             cfg.workloads = {"pmheap"};
             return checkRow(cfg, j);
         }}},
        {"check-corpus",
         {[](int j) {
             CheckConfig cfg;
             cfg.factory = makeBugInvariant;
             cfg.workloads = registeredBugs();
             cfg.domains = {PersistDomain::McDurable};
             cfg.confirm_witnesses = true;
             return checkRow(cfg, j);
         }}},
    };
    return m;
}

/** Check the manifest rows whose sweep is (or is not) a scale sweep at
 *  each of @p widths. */
void
checkManifest(bool scale, std::initializer_list<int> widths)
{
    std::ifstream in(GPM_GOLDEN_MANIFEST);
    ASSERT_TRUE(in) << "cannot open " << GPM_GOLDEN_MANIFEST;

    std::map<std::string, PinRow> manifest;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name;
        PinRow want;
        ASSERT_TRUE(fields >> name >> want.units >> want.classes >>
                    want.signature)
            << "malformed manifest row: " << line;
        ASSERT_TRUE(manifest.emplace(name, want).second)
            << "duplicate manifest row " << name;
    }
    // The manifest and the sweep table must name the same sweeps, so
    // neither a pin nor a sweep can drop out silently.
    ASSERT_EQ(manifest.size(), sweeps().size());

    for (const auto &[name, want] : manifest) {
        const auto it = sweeps().find(name);
        ASSERT_NE(it, sweeps().end()) << "unknown sweep " << name;
        if (it->second.scale != scale)
            continue;
        for (const int jobs : widths) {
            SCOPED_TRACE(::testing::Message()
                         << name << " at jobs " << jobs);
            const PinRow got = it->second.run(jobs);
            EXPECT_EQ(got.units, want.units);
            EXPECT_EQ(got.classes, want.classes);
            EXPECT_EQ(got.signature, want.signature);
        }
    }
}

TEST(GoldenPins, ManifestSweepsMatchAtJobs1And4)
{
    checkManifest(false, {1, 4});
}

TEST(GoldenPins, ScaleSweepsMatchAtJobs4)
{
    checkManifest(true, {4});
}

} // namespace
} // namespace gpm
