/**
 * @file
 * The benchmark's four workloads and the driver that times them.
 *
 * Every layer is reached from outside, through the program's public
 * entry points: gpm::bench::runBench (harness), gpm::TortureRunner::run
 * (crashtest) and gpm::ServiceEngine::run (service). An untraced run
 * reports the end-to-end metrics; a traced run repeats the same passes
 * under a telemetry session and derives the per-layer metrics from the
 * spans and counters the program already emits.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "derive.hpp"

namespace perfbench {

/** One benchmark invocation. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** One reported metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one invocation measured. */
struct Outcome {
    bool correct = true;
    Tally tally;
    std::vector<Metric> metrics;
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Run @p opt's workload: human-readable lines go to stdout as they are
 * measured; the caller prints the result line. Throws on a workload
 * name not in workloadNames().
 */
Outcome runWorkload(const Options &opt);

} // namespace perfbench
