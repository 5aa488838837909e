/**
 * @file
 * gpmbench — command-line driver for the GPMbench suite.
 *
 * Runs any (workload, platform) cell of the evaluation matrix with
 * the canonical (paper-scaled) configuration and prints the measured
 * simulated time, throughput, persisted payload and PM traffic:
 *
 *     gpmbench [--media M] list
 *     gpmbench [--media M] run <workload> <platform> [seed]
 *     gpmbench [--media M] crash <workload> [seed]
 *     gpmbench [--jobs N] [--media M] matrix  # the full Fig 9 grid
 *
 * Workloads: kvs kvs95 dbi dbu dnn cfd blk hs bfs srad ps
 * Platforms: gpm ndp eadr capfs capmm capeadr gpufs
 *
 * --jobs N applies to matrix only: whole (workload, platform) cells are
 * swept over N host workers (0 = one per hardware thread, default 1),
 * with rows printed in canonical cell order; results are bit-identical
 * at any width, only wall-clock changes.
 * --media M selects the PM media backend behind every cell's machine
 * (nvm, interleaved[:dimms], cxl, hybrid[:cache_mib]); defaults to
 * the GPM_MEDIA environment variable, else the single-DIMM paper
 * model. The key tables and the flag grammars live in the harness and
 * common (benchFromKey/platformFromKey, parseSweepJobs,
 * parseMediaConfig) and are shared with the other CLIs.
 *
 * Exit codes: 0 success, 1 a failed recovery check, 2 usage error.
 */
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "harness/experiments.hpp"
#include "memsim/media_backend.hpp"

using namespace gpm;
using namespace gpm::bench;

namespace {

void
printResult(Bench b, PlatformKind kind, const WorkloadResult &r)
{
    if (!r.supported) {
        std::printf("%-14s %-9s unsupported\n",
                    benchName(b).c_str(), platformName(kind).c_str());
        return;
    }
    std::printf("%-14s %-9s %10.3f ms  %8.2f Mops/s  "
                "%8.2f MiB persisted  %7.2f MiB PM traffic  %s\n",
                benchName(b).c_str(), platformName(kind).c_str(),
                toMs(r.op_ns), r.mops(),
                r.persisted_payload / (1024.0 * 1024.0),
                r.pcie_write_bytes / (1024.0 * 1024.0),
                r.verified ? "verified" : "VERIFY-FAILED");
}

/** Print @p msg and the usage text to stderr; returns exit code 2. */
int
usageError(const std::string &msg)
{
    std::fprintf(
        stderr,
        "gpmbench: %s\n\n"
        "  gpmbench [--media M] list\n"
        "  gpmbench [--media M] run <workload> <platform> [seed]\n"
        "  gpmbench [--media M] crash <workload> [seed]\n"
        "  gpmbench [--jobs N] [--media M] matrix\n\n"
        "workloads: kvs kvs95 dbi dbu dnn cfd blk hs bfs srad ps\n"
        "platforms: gpm ndp eadr capfs capmm capeadr gpufs\n"
        "--jobs N:  matrix sweep workers (0 = hardware threads, "
        "default 1)\n"
        "--media M: PM media backend (%s);\n"
        "           default from GPM_MEDIA, else nvm\n"
        "exit: 0 ok, 1 recovery check failed, 2 usage error\n",
        msg.c_str(), mediaUsage());
    return 2;
}

/** Strict decimal seed: digits only, no sign, no trailing junk. */
std::optional<std::uint64_t>
parseSeed(const char *s)
{
    const char *end = s + std::strlen(s);
    std::uint64_t v = 0;
    const auto [p, ec] = std::from_chars(s, end, v);
    if (s == end || ec != std::errc{} || p != end)
        return std::nullopt;
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    SimConfig cfg = bench::benchConfig();
    std::optional<int> jobs;
    int argi = 1;
    while (argi < argc && (std::strcmp(argv[argi], "--jobs") == 0 ||
                           std::strcmp(argv[argi], "--media") == 0)) {
        const std::string flag = argv[argi];
        if (argi + 1 >= argc)
            return usageError(flag + " needs a value");
        const char *v = argv[argi + 1];
        if (flag == "--jobs") {
            jobs = parseSweepJobs(v);
            if (!jobs)
                return usageError("invalid --jobs value '" +
                                  std::string(v) +
                                  "' (want an integer in [0, " +
                                  std::to_string(kMaxSweepJobs) + "])");
        } else {
            const std::optional<MediaConfig> m = parseMediaConfig(v);
            if (!m)
                return usageError("unknown media backend '" +
                                  std::string(v) + "' (valid: " +
                                  mediaUsage() + ")");
            applyMediaConfig(cfg, *m);
        }
        argi += 2;
    }
    if (argi >= argc)
        return usageError("missing command");
    const std::string cmd = argv[argi];
    if (jobs && cmd != "matrix")
        return usageError("--jobs applies to matrix only");
    // Positional arguments after the command: args[0] is the first.
    const std::vector<std::string> args(argv + argi + 1, argv + argc);
    const auto seedArg = [&](std::size_t i) -> std::optional<std::uint64_t> {
        return args.size() > i ? parseSeed(args[i].c_str())
                               : std::optional<std::uint64_t>(1);
    };

    if (cmd == "list") {
        if (!args.empty())
            return usageError("list takes no arguments");
        for (const BenchKey &n : benchKeys()) {
            std::printf("%-7s %-14s %s\n", n.key,
                        benchName(n.bench).c_str(),
                        benchClass(n.bench).c_str());
        }
        return 0;
    }

    if (cmd == "run") {
        if (args.size() < 2 || args.size() > 3)
            return usageError("run wants <workload> <platform> [seed]");
        const auto b = benchFromKey(args[0]);
        if (!b)
            return usageError("unknown workload '" + args[0] + "'");
        const auto kind = platformFromKey(args[1]);
        if (!kind)
            return usageError("unknown platform '" + args[1] + "'");
        const std::optional<std::uint64_t> seed = seedArg(2);
        if (!seed)
            return usageError("invalid seed '" + args[2] + "'");
        printResult(*b, *kind, runBench(*b, *kind, cfg, *seed));
        return 0;
    }

    if (cmd == "crash") {
        if (args.empty() || args.size() > 2)
            return usageError("crash wants <workload> [seed]");
        const auto b = benchFromKey(args[0]);
        if (!b)
            return usageError("unknown workload '" + args[0] + "'");
        const std::optional<std::uint64_t> seed = seedArg(1);
        if (!seed)
            return usageError("invalid seed '" + args[1] + "'");
        const WorkloadResult r = runBenchWithCrash(*b, cfg, *seed);
        if (r.op_ns == 0 && r.recovery_ns == 0) {
            std::printf("%s embeds its recovery in the application "
                        "itself (native persistence)\n",
                        benchName(*b).c_str());
            return 0;
        }
        std::printf("%-14s recovered=%s  restoration %.3f ms\n",
                    benchName(*b).c_str(), r.verified ? "yes" : "NO",
                    toMs(r.recovery_ns));
        return r.verified ? 0 : 1;
    }

    if (cmd == "matrix") {
        if (!args.empty())
            return usageError("matrix takes no arguments");
        constexpr PlatformKind kMatrixPlatforms[] = {
            PlatformKind::CapFs,
            PlatformKind::CapMm,
            PlatformKind::Gpm,
            PlatformKind::Gpufs,
        };
        std::vector<BenchCell> cells;
        for (const BenchKey &n : benchKeys())
            for (const PlatformKind kind : kMatrixPlatforms)
                cells.push_back({n.bench, kind, 1});
        // Rows print in canonical cell order whatever finished first.
        const std::vector<WorkloadResult> results =
            runBenchCells(cells, cfg, jobs.value_or(1));
        for (std::size_t i = 0; i < cells.size(); ++i)
            printResult(cells[i].b, cells[i].kind, results[i]);
        return 0;
    }

    return usageError("unknown command '" + cmd + "'");
}
