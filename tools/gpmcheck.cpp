/**
 * @file
 * gpmcheck — the persistency-ordering analyzer CLI.
 *
 * Runs every workload x persist-domain cell once, clean, under an
 * attached event recorder, then proves (or refutes) the declared
 * persist-ordering rules over the captured trace — no crash-point
 * enumeration. Findings can be confirmed dynamically: each carries a
 * minimal CrashSpec witness that --witness replays through the
 * torture machinery.
 *
 *     gpmcheck [flags]
 *
 *     --workloads kvs,db-insert,...   default: all registered
 *     --domains   llc-volatile,mc-durable,llc-durable
 *     --severity  info|warn|error     report + exit floor (default warn)
 *     --witness                       replay finding witnesses
 *     --corpus                        sweep the seeded-bug corpus
 *                                     instead of the real workloads
 *     --jobs      N                   sweep workers (0 = hw threads;
 *                                     default GPM_EXEC_WORKERS, else 1)
 *     --seed      N                   trace-capture seed (default 1)
 *     --tsv                           tab-separated findings table
 *     --summary-only                  omit the findings table
 *     --list                         print workloads + rule catalog
 *
 * Exit status: 0 = no findings at/above the severity floor, 1 =
 * findings (or a cell error), 2 = usage error.
 *
 * The cells sweep through the harness engine into canonical slots, so
 * the findings, summary, and signature are bit-identical at any
 * --jobs.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/check_runner.hpp"
#include "common/env.hpp"
#include "common/status.hpp"
#include "persistency_bugs/corpus.hpp"

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
        "usage: gpmcheck [--workloads w,...] [--domains d,...]\n"
        "                [--severity info|warn|error] [--witness]\n"
        "                [--corpus] [--jobs n] [--seed n] [--tsv]\n"
        "                [--summary-only] [--list]\n");
}

void
list()
{
    std::printf("workloads:");
    for (const std::string &w : registeredInvariants())
        std::printf(" %s", w.c_str());
    std::printf("\ncorpus:");
    for (const std::string &w : registeredBugs())
        std::printf(" %s", w.c_str());
    std::printf("\ndomains: llc-volatile mc-durable llc-durable\n");
    std::printf(
        "rules:\n"
        "  unpersisted-store  stores in a declared range that never\n"
        "                     became durable\n"
        "  epoch-order        a declared persist-order rule violated\n"
        "                     (out-of-order, same-epoch seal, or\n"
        "                     commit-before-data)\n"
        "  torn-update        one atomic cell persisting across epochs\n"
        "  redundant-fence    fences that drained nothing (perf lint)\n"
        "  redundant-flush    flushes that drained nothing (perf lint)\n"
        "  crash-unreachable  declared ranges no armed launch stores\n"
        "                     to (dead torture coverage)\n"
        "witness grammar: frac:<f> before-fence:<n> after-fence:<n> "
        "after-store:<n>\n");
}

} // namespace

int
main(int argc, char **argv)
{
    CheckConfig cfg;
    cfg.jobs = sweepJobsFromEnv(cfg.jobs);
    Severity floor = Severity::Warn;
    bool corpus = false;
    bool tsv = false;
    bool summary_only = false;

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
            } else if (arg == "--severity") {
                floor = parseSeverity(value());
            } else if (arg == "--witness") {
                cfg.confirm_witnesses = true;
            } else if (arg == "--corpus") {
                corpus = true;
            } else if (arg == "--jobs") {
                const std::string v = value();
                const std::optional<int> jobs = parseSweepJobs(v);
                GPM_REQUIRE(jobs.has_value(),
                            "--jobs: want an integer in [0, ",
                            kMaxSweepJobs, "], got '", v, "'");
                cfg.jobs = *jobs;
            } else if (arg == "--seed") {
                cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
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

        if (corpus) {
            cfg.factory = makeBugInvariant;
            if (cfg.workloads.empty())
                cfg.workloads = registeredBugs();
        }
        cfg.confirm_floor = floor;

        // Validate names before the sweep starts.
        for (const std::string &w : cfg.workloads)
            (corpus ? makeBugInvariant : makeInvariant)(w);

        CheckConfig counted = cfg;
        counted.applyDefaults();
        std::printf("analyzing %zu workload x domain cells "
                    "(--jobs %d%s)...\n",
                    counted.workloads.size() * counted.domains.size(),
                    cfg.jobs,
                    cfg.confirm_witnesses ? ", witness replay on" : "");

        const auto t0 = std::chrono::steady_clock::now();
        const CheckReport report = runCheck(cfg);
        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();

        if (!summary_only) {
            Table t = report.table(floor);
            if (t.rows() != 0) {
                if (tsv)
                    t.printTsv(std::cout);
                else
                    t.print(std::cout);
                std::printf("\n");
            }
        }
        report.summary().print(std::cout);

        std::size_t errors = 0;
        for (const CheckCell &c : report.cells)
            if (!c.error.empty())
                ++errors;
        const std::size_t flagged = report.findingsAtLeast(floor);
        std::printf("\ncells: %zu  findings>=%s: %zu  confirmed: %zu"
                    "  cell-errors: %zu\n",
                    report.cells.size(), severityName(floor), flagged,
                    report.confirmed(), errors);
        std::printf("signature: %016llx\n",
                    static_cast<unsigned long long>(
                        report.signature()));
        std::printf("check wall: %.3f s  (%zu cells, --jobs %d)\n",
                    wall_s, report.cells.size(), cfg.jobs);

        for (const CheckCell &c : report.cells)
            if (!c.error.empty())
                std::printf("CELL ERROR %s: %s\n",
                            c.scenario.key().c_str(), c.error.c_str());
        return (flagged != 0 || errors != 0) ? 1 : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gpmcheck: %s\n", e.what());
        return 2;
    }
}
