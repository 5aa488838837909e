/**
 * @file
 * gpmtorture — the crash-matrix torture CLI.
 *
 * Sweeps recovery invariants across crash points x eviction seeds x
 * persist domains and prints the scenario x outcome table, the per
 * workload x domain summary, and the determinism signature. Exits
 * nonzero when any scenario is classified as a violation.
 *
 *     gpmtorture [flags]
 *
 *     --workloads kvs,db-insert,...   default: all registered
 *     --domains   llc-volatile,mc-durable,llc-durable
 *     --points    frac:0.5,before-fence:1,after-fence:2,after-store:3
 *     --seeds     1,2,3               eviction seeds
 *     --survive   0.0,0.5             line-survival probabilities
 *     --jobs      N                   sweep workers (0 = hw threads;
 *                                     default GPM_EXEC_WORKERS, else 1)
 *     --scale                         CrashGrid::fine() + 12 seeds:
 *                                     the 10k+ scenario grid
 *     --tsv                           tab-separated full table
 *     --summary-only                  omit the full table
 *     --list                          print workloads + grammar
 *
 * Every scenario is a private Machine + PmPool world and the sweep
 * engine lands results in canonical slots, so the report — table
 * order, counts, signature — is bit-identical at any --jobs; only the
 * printed sweep wall-clock changes.
 *
 * Crash-point grammar: frac:<f in [0,1]> | before-fence:<n> |
 * after-fence:<n> | after-store:<n> (event ordinals are 1-based and
 * global to the doomed kernel launch).
 */
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/status.hpp"
#include "crashtest/torture_runner.hpp"
#include "memsim/media_backend.hpp"

using namespace gpm;

namespace {

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

/**
 * Split a list-valued flag, rejecting an empty value: an empty list
 * would silently fall back to the flag's default axis (for --seeds,
 * the full 1200-scenario sweep), which is never what a caller who
 * passed the flag meant.
 */
std::vector<std::string>
splitList(const char *flag, const std::string &s)
{
    std::vector<std::string> out = splitCommas(s);
    GPM_REQUIRE(!out.empty(), flag, ": empty list");
    return out;
}

void
usage()
{
    std::printf(
        "usage: gpmtorture [--workloads w,...] [--domains d,...]\n"
        "                  [--points p,...] [--seeds s,...]\n"
        "                  [--survive f,...] [--jobs n] [--media m]\n"
        "                  [--scale]\n"
        "                  [--tsv] [--summary-only] [--list]\n");
}

void
list()
{
    std::printf("workloads:");
    for (const std::string &w : registeredInvariants())
        std::printf(" %s", w.c_str());
    std::printf("\nextended workloads (opt-in via --workloads):");
    for (const std::string &w : extendedInvariants())
        std::printf(" %s", w.c_str());
    std::printf("\n");
    std::printf("domains: llc-volatile mc-durable llc-durable\n");
    std::printf("media backends: %s\n", mediaUsage());
    std::printf("crash points: frac:<f> before-fence:<n> "
                "after-fence:<n> after-store:<n>\n");
    std::printf("default grid:");
    for (const CrashSpec &s :
         CrashScheduler::enumerate(CrashGrid::defaults()))
        std::printf(" %s", s.label().c_str());
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    TortureConfig cfg;
    cfg.jobs = sweepJobsFromEnv(cfg.jobs);
    bool tsv = false;
    bool summary_only = false;
    bool scale = false;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc) {
                    usage();
                    std::exit(2);
                }
                return argv[++i];
            };
            if (arg == "--workloads") {
                cfg.workloads = splitList("--workloads", value());
            } else if (arg == "--domains") {
                for (const std::string &d :
                     splitList("--domains", value()))
                    cfg.domains.push_back(parsePersistDomain(d));
            } else if (arg == "--points") {
                for (const std::string &p :
                     splitList("--points", value()))
                    cfg.specs.push_back(CrashScheduler::parse(p));
            } else if (arg == "--seeds") {
                for (const std::string &s :
                     splitList("--seeds", value()))
                    cfg.seeds.push_back(std::strtoull(s.c_str(),
                                                      nullptr, 10));
            } else if (arg == "--survive") {
                for (const std::string &s :
                     splitList("--survive", value()))
                    cfg.survive_probs.push_back(
                        std::strtod(s.c_str(), nullptr));
            } else if (arg == "--jobs") {
                const std::string v = value();
                const std::optional<int> jobs = parseSweepJobs(v);
                GPM_REQUIRE(jobs.has_value(),
                            "--jobs: want an integer in [0, ",
                            kMaxSweepJobs, "], got '", v, "'");
                cfg.jobs = *jobs;
            } else if (arg == "--media") {
                const std::string v = value();
                const std::optional<MediaConfig> m =
                    parseMediaConfig(v);
                if (!m)
                    fatal("unknown media backend '", v, "' (valid: ",
                          mediaUsage(), ")");
                cfg.media = *m;
            } else if (arg == "--scale") {
                scale = true;
            } else if (arg == "--tsv") {
                tsv = true;
            } else if (arg == "--summary-only") {
                summary_only = true;
            } else if (arg == "--list") {
                list();
                return 0;
            } else {
                usage();
                return 2;
            }
        }

        // --scale widens the spec and seed axes to the 10k+ grid
        // unless the caller pinned them explicitly.
        if (scale) {
            if (cfg.specs.empty())
                cfg.specs =
                    CrashScheduler::enumerate(CrashGrid::fine());
            if (cfg.seeds.empty())
                for (std::uint64_t s = 1; s <= 12; ++s)
                    cfg.seeds.push_back(s);
        }

        // Validate workload names before the sweep starts.
        for (const std::string &w : cfg.workloads)
            makeInvariant(w);

        TortureConfig counted = cfg;
        counted.applyDefaults();
        std::printf("sweeping %zu crash scenarios (--jobs %d, "
                    "--media %s)...\n",
                    counted.scenarioCount(), cfg.jobs,
                    mediaKey(cfg.media).c_str());

        const auto t0 = std::chrono::steady_clock::now();
        const TortureReport report = TortureRunner::run(cfg);
        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (!summary_only) {
            if (tsv)
                report.table().printTsv(std::cout);
            else
                report.table().print(std::cout);
            std::printf("\n");
        }
        report.summary().print(std::cout);
        const std::array<std::size_t, 4> counts =
            report.classCounts();
        std::printf("\nscenarios: %zu  strict-ok: %zu  ddio-trap: %zu"
                    "  not-fired: %zu  violations: %zu\n",
                    report.results.size(),
                    counts[static_cast<int>(OutcomeClass::StrictOk)],
                    counts[static_cast<int>(OutcomeClass::DdioTrap)],
                    counts[static_cast<int>(OutcomeClass::NotFired)],
                    counts[static_cast<int>(OutcomeClass::Violation)]);
        std::printf("signature: %016llx\n",
                    static_cast<unsigned long long>(
                        report.signature()));
        std::printf("sweep wall: %.3f s  (%zu scenarios, --jobs %d, "
                    "%.0f scenarios/s)\n",
                    wall_s, report.results.size(), cfg.jobs,
                    wall_s > 0 ? report.results.size() / wall_s : 0.0);

        if (counts[static_cast<int>(OutcomeClass::Violation)] != 0) {
            for (const TortureResult &r : report.results) {
                if (r.cls == OutcomeClass::Violation)
                    std::printf("VIOLATION %s: %s\n", r.key().c_str(),
                                r.detail.c_str());
            }
            return 1;
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gpmtorture: %s\n", e.what());
        return 2;
    }
}
