/**
 * @file
 * Golden-pin check: runs every sweep named in golden_pins.tsv and
 * compares its unit count, class counts and signature with the
 * manifest, at sweep widths 1 and 4. The rows are the same pins the
 * CLIs print (gpmtorture default/serve/pmheap sweeps, gpmcheck clean
 * grid and seeded-bug corpus with witness replay), so tier-1 ctest
 * guards the simulator's observable behaviour end to end. Scale
 * sweeps (gpmtorture --scale) are checked at width 4 only, by their
 * own test under the ctest label golden-scale.
 */
#include <gtest/gtest.h>

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
 *  1..12. */
PinRow
tortureRow(std::vector<std::string> workloads, int jobs, bool scale = false)
{
    TortureConfig cfg;
    cfg.workloads = std::move(workloads);
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
        {"check-clean", {[](int j) { return checkRow({}, j); }}},
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
