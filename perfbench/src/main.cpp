/**
 * @file
 * perfbench: one workload per invocation.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *
 * Human-readable lines come first; the last line of stdout is one JSON
 * object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
 * the end-to-end metrics, --trace 1 the per-layer ones. Exit status is 0
 * when every output check passed, 1 when one failed, 2 on a usage error.
 */
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <string>

#include "telemetry/json.hpp"
#include "workloads.hpp"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1\n"
                 "workloads:",
                 why);
    for (const std::string &w : perfbench::workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

/** Strict decimal parse of a whole argument. */
bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 19)
        return false;
    out = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
        out = out * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return true;
}

void
printResult(const perfbench::Outcome &o)
{
    using gpm::telemetry::JsonWriter;
    std::string line = "{\"correct\": ";
    line += o.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(o.tally.attempted);
    line += ", \"failed\": " + std::to_string(o.tally.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < o.metrics.size(); ++i) {
        const perfbench::Metric &m = o.metrics[i];
        char value[40];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        line += (i ? ", \"" : "\"") + JsonWriter::escape(m.name) +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                JsonWriter::escape(m.unit) + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        std::uint64_t n = 0;
        if (arg == "--workload") {
            opt.workload = val;
            have[0] = true;
        } else if (arg == "--seed") {
            if (!parseU64(val, n) || n == 0)
                return usage("--seed wants a positive integer");
            opt.seed = n;
            have[1] = true;
        } else if (arg == "--seconds") {
            if (!parseU64(val, n) || n == 0 || n > 3600)
                return usage("--seconds wants an integer in [1, 3600]");
            opt.seconds = static_cast<double>(n);
            have[2] = true;
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                return usage("--trace wants 0 or 1");
            opt.trace = val == "1";
            have[3] = true;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        return usage("all four arguments are required");
    bool known = false;
    for (const std::string &w : perfbench::workloadNames())
        known = known || w == opt.workload;
    if (!known)
        return usage(("unknown workload " + opt.workload).c_str());

    try {
        std::setvbuf(stdout, nullptr, _IOLBF, 0);
        std::printf("perfbench %s seed %" PRIu64 " seconds %.0f trace %d\n",
                    opt.workload.c_str(), opt.seed, opt.seconds,
                    opt.trace ? 1 : 0);
        const perfbench::Outcome o = perfbench::runWorkload(opt);
        printResult(o);
        return o.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
