/**
 * @file
 * gpmtrace — run any GPMbench workload under a telemetry session and
 * write a Chrome-trace timeline plus a metrics snapshot.
 *
 *     gpmtrace --workload kvs [--platform gpm] [--seed N] [--media M]
 *              [--trace trace.json] [--metrics metrics.json]
 *              [--summary [N]] [--no-crash]
 *     gpmtrace list
 *
 * The run executes the canonical (workload, platform) cell cleanly,
 * then — unless --no-crash, and only for workloads with an explicit
 * recovery path — a crash + recovery pass, so the timeline carries
 * every span category: launch, block, flush, line-commit, log,
 * checkpoint, crash, recovery, scenario. trace.json loads directly in
 * Perfetto (ui.perfetto.dev) or chrome://tracing; metrics.json is the
 * uniform gpm-metrics-v1 envelope (see docs/telemetry.md).
 *
 * Both artifacts are re-validated after writing (strict JSON parse +
 * required-key probe) and the accounting identity
 * pm_line_bytes == pm_line_txns * coalesce granule is asserted, so a
 * malformed or inconsistent artifact fails the run that produced it.
 *
 * --summary prints the top-N hottest kernels by traced wall time, the
 * observed NVM tier-byte breakdown, coalescing efficiency and
 * histogram percentiles. Blocks run on one sequential executor, so
 * there is no per-worker utilization to report.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiments.hpp"
#include "memsim/media_backend.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

using namespace gpm;
using namespace gpm::bench;

namespace {

struct Options {
    std::optional<Bench> workload;
    PlatformKind platform = PlatformKind::Gpm;
    std::uint64_t seed = 1;
    std::string trace_path = "trace.json";
    std::string metrics_path = "metrics.json";
    bool summary = false;
    int summary_top = 10;
    bool crash_pass = true;
};

int
usage()
{
    std::printf(
        "gpmtrace — timeline + metrics for one workload run\n\n"
        "  gpmtrace --workload W [--platform P] [--seed N] [--media M]\n"
        "           [--trace FILE] [--metrics FILE]\n"
        "           [--summary [N]] [--no-crash]\n"
        "  gpmtrace list\n\n"
        "workloads: kvs kvs95 dbi dbu dnn cfd blk hs bfs srad ps\n"
        "platforms: gpm ndp eadr capfs capmm capeadr gpufs\n"
        "media:     %s\n"
        "--no-crash: skip the crash + recovery pass\n"
        "--summary:  print top-N hottest kernels, NVM tier bytes,\n"
        "            coalescing efficiency and histogram percentiles\n",
        mediaUsage());
    return 2;
}

/** Aggregate of one kernel's "launch" spans. */
struct KernelAgg {
    std::uint64_t launches = 0;
    double wall_us = 0.0;
};

void
printSummary(const Options &opt, const telemetry::Session &session,
             const SimConfig &cfg)
{
    const telemetry::MetricsSnapshot snap = session.metrics.snapshot();
    const std::vector<telemetry::TraceEvent> events =
        session.trace.collect();

    // Hottest kernels by traced wall time.
    std::map<std::string, KernelAgg> kernels;
    for (const telemetry::TraceEvent &ev : events) {
        if (std::strcmp(ev.cat, "launch") == 0) {
            KernelAgg &k = kernels[ev.name];
            ++k.launches;
            k.wall_us += ev.dur_us;
        }
    }
    std::vector<std::pair<std::string, KernelAgg>> hot(kernels.begin(),
                                                       kernels.end());
    std::sort(hot.begin(), hot.end(), [](const auto &a, const auto &b) {
        return a.second.wall_us > b.second.wall_us;
    });

    std::printf("== gpmtrace summary: %s on %s (seed %llu) ==\n",
                benchName(*opt.workload).c_str(),
                platformName(opt.platform).c_str(),
                static_cast<unsigned long long>(opt.seed));

    std::printf("\nhottest kernels (traced host wall time):\n");
    const int top = std::min<int>(opt.summary_top,
                                  static_cast<int>(hot.size()));
    for (int i = 0; i < top; ++i) {
        std::printf("  %-24s %6llu launches  %10.1f us\n",
                    hot[i].first.c_str(),
                    static_cast<unsigned long long>(
                        hot[i].second.launches),
                    hot[i].second.wall_us);
    }

    const std::uint64_t seq_a = snap.counter("nvm.observed_seq_aligned_bytes");
    const std::uint64_t seq_u =
        snap.counter("nvm.observed_seq_unaligned_bytes");
    const std::uint64_t rnd = snap.counter("nvm.observed_random_bytes");
    const std::uint64_t total = seq_a + seq_u + rnd;
    std::printf("\nNVM tier bytes (observed by the media model):\n");
    std::printf("  seq-aligned   %12llu (%5.1f%%)\n",
                static_cast<unsigned long long>(seq_a),
                total ? 100.0 * seq_a / total : 0.0);
    std::printf("  seq-unaligned %12llu (%5.1f%%)\n",
                static_cast<unsigned long long>(seq_u),
                total ? 100.0 * seq_u / total : 0.0);
    std::printf("  random        %12llu (%5.1f%%)\n",
                static_cast<unsigned long long>(rnd),
                total ? 100.0 * rnd / total : 0.0);
    const std::uint64_t read_bytes =
        snap.counter("nvm.observed_read_bytes");
    const std::uint64_t read_ops = snap.counter("nvm.observed_read_ops");
    std::printf("  reads         %12llu bytes in %llu ops\n",
                static_cast<unsigned long long>(read_bytes),
                static_cast<unsigned long long>(read_ops));

    std::printf("\nmedia backend: %s\n", mediaKey(cfg.media).c_str());
    for (const auto &[name, v] : snap.counters) {
        if (name.rfind("media.", 0) == 0)
            std::printf("  %-28s %12llu\n", name.c_str() + 6,
                        static_cast<unsigned long long>(v));
    }

    const std::uint64_t payload = snap.counter("sim.pm_payload_bytes");
    const std::uint64_t line_bytes = snap.counter("sim.pm_line_bytes");
    const std::uint64_t accesses = snap.counter("exec.flushed_accesses");
    const std::uint64_t txns = snap.counter("exec.coalesced_line_txns");
    std::printf("\ncoalescing efficiency:\n");
    std::printf("  %llu stores -> %llu line txns (%.2f stores/txn)\n",
                static_cast<unsigned long long>(accesses),
                static_cast<unsigned long long>(txns),
                txns ? static_cast<double>(accesses) / txns : 0.0);
    std::printf("  %llu payload bytes over %llu line bytes "
                "(%.1f%% of line traffic is payload)\n",
                static_cast<unsigned long long>(payload),
                static_cast<unsigned long long>(line_bytes),
                line_bytes ? 100.0 * payload / line_bytes : 0.0);

    std::printf("\nworker utilization: not reported (blocks run on one "
                "sequential executor)\n");

    // Tail percentiles of every recorded distribution — the same
    // log2-bin estimator gpmserve's latency accounting uses.
    if (!snap.histograms.empty()) {
        std::printf("\nhistogram percentiles (log2-bin estimates):\n");
        std::printf("  %-32s %8s %10s %10s %10s %10s\n", "name",
                    "count", "mean", "p50", "p99", "p999");
        for (const auto &[name, h] : snap.histograms) {
            std::printf("  %-32s %8llu %10.1f %10.1f %10.1f %10.1f\n",
                        name.c_str(),
                        static_cast<unsigned long long>(h.count),
                        h.mean(), h.p50(), h.p99(), h.p999());
        }
    }
}

bool
writeTrace(const std::string &path, const telemetry::Session &session,
           std::string *error)
{
    {
        std::ofstream os(path);
        if (!os) {
            *error = "cannot open " + path;
            return false;
        }
        telemetry::JsonWriter w(os);
        session.trace.writeJson(w);
    }
    return telemetry::validateJsonFile(path, {"traceEvents"}, error);
}

bool
writeMetrics(const std::string &path, const Options &opt,
             const SimConfig &cfg, const telemetry::Session &session,
             bool identities_ok, std::string *error)
{
    const telemetry::MetricsSnapshot snap = session.metrics.snapshot();
    {
        std::ofstream os(path);
        if (!os) {
            *error = "cannot open " + path;
            return false;
        }
        telemetry::JsonWriter w(os);
        w.beginObject();
        w.field("schema", "gpm-metrics-v1");
        w.field("tool", "gpmtrace");
        w.field("workload", benchKey(*opt.workload));
        w.field("platform", platformKey(opt.platform));
        w.field("seed", opt.seed);
        w.field("media", mediaKey(cfg.media));
        w.field("identities_ok", identities_ok);
        snap.writeFields(w);
        w.endObject();
    }
    return telemetry::validateJsonFile(
        path, {"schema", "tool", "counters", "gauges", "histograms"},
        error);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    SimConfig cfg = bench::benchConfig();

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "gpmtrace: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "list") {
            for (const BenchKey &n : benchKeys()) {
                std::printf("%-7s %-14s %s\n", n.key,
                            benchName(n.bench).c_str(),
                            benchClass(n.bench).c_str());
            }
            return 0;
        } else if (a == "--workload") {
            const char *v = next("--workload");
            opt.workload = benchFromKey(v);
            if (!opt.workload) {
                std::fprintf(stderr, "gpmtrace: unknown workload '%s'\n",
                             v);
                return 2;
            }
        } else if (a == "--platform") {
            const char *v = next("--platform");
            const auto kind = platformFromKey(v);
            if (!kind) {
                std::fprintf(stderr, "gpmtrace: unknown platform '%s'\n",
                             v);
                return 2;
            }
            opt.platform = *kind;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(next("--seed"), nullptr, 10);
        } else if (a == "--media") {
            const char *v = next("--media");
            const std::optional<MediaConfig> m = parseMediaConfig(v);
            if (!m) {
                std::fprintf(stderr,
                             "gpmtrace: unknown media backend '%s' "
                             "(valid: %s)\n",
                             v, mediaUsage());
                return 2;
            }
            applyMediaConfig(cfg, *m);
        } else if (a == "--trace") {
            opt.trace_path = next("--trace");
        } else if (a == "--metrics") {
            opt.metrics_path = next("--metrics");
        } else if (a == "--summary") {
            opt.summary = true;
            if (i + 1 < argc && argv[i + 1][0] != '-' &&
                std::strtol(argv[i + 1], nullptr, 10) > 0)
                opt.summary_top =
                    static_cast<int>(std::strtol(argv[++i], nullptr, 10));
        } else if (a == "--no-crash") {
            opt.crash_pass = false;
        } else {
            std::fprintf(stderr, "gpmtrace: unknown argument '%s'\n",
                         a.c_str());
            return usage();
        }
    }
    if (!opt.workload)
        return usage();

    telemetry::ScopedSession session;

    WorkloadResult clean;
    {
        telemetry::Span span("scenario", "clean-run");
        clean = runBench(*opt.workload, opt.platform, cfg, opt.seed);
    }
    if (!clean.supported) {
        std::fprintf(stderr, "gpmtrace: %s is unsupported on %s\n",
                     benchName(*opt.workload).c_str(),
                     platformName(opt.platform).c_str());
        return 1;
    }

    bool recovered_ok = true;
    if (opt.crash_pass) {
        // Crash + recovery pass: puts crash and recovery spans on the
        // timeline. Workloads with native persistence report (0, 0)
        // and are skipped, exactly as in gpmbench's crash command.
        telemetry::Span span("scenario", "crash-recovery");
        const WorkloadResult r =
            runBenchWithCrash(*opt.workload, cfg, opt.seed);
        if (r.op_ns != 0 || r.recovery_ns != 0)
            recovered_ok = r.verified;
    }

    // Accounting identity: every coalesced line transaction moves
    // exactly one coalesce granule. Holds across clean and crashed
    // passes because launch counters only record completed launches.
    const telemetry::MetricsSnapshot snap =
        session->metrics.snapshot();
    const bool identities_ok =
        snap.counter("sim.pm_line_bytes") ==
        snap.counter("sim.pm_line_txns") * cfg.coalesce_bytes;

    std::string error;
    if (!writeTrace(opt.trace_path, *session, &error)) {
        std::fprintf(stderr, "gpmtrace: trace validation failed: %s\n",
                     error.c_str());
        return 1;
    }
    if (!writeMetrics(opt.metrics_path, opt, cfg, *session,
                      identities_ok, &error)) {
        std::fprintf(stderr, "gpmtrace: metrics validation failed: %s\n",
                     error.c_str());
        return 1;
    }

    std::printf("gpmtrace: %s on %s: %.3f ms simulated, %s\n",
                benchName(*opt.workload).c_str(),
                platformName(opt.platform).c_str(), toMs(clean.op_ns),
                clean.verified ? "verified" : "VERIFY-FAILED");
    std::printf("gpmtrace: wrote %s (%zu events) and %s\n",
                opt.trace_path.c_str(), session->trace.eventCount(),
                opt.metrics_path.c_str());
    if (!identities_ok)
        std::fprintf(stderr,
                     "gpmtrace: ACCOUNTING IDENTITY FAILED: "
                     "pm_line_bytes != pm_line_txns * %zu\n",
                     cfg.coalesce_bytes);
    if (!recovered_ok)
        std::fprintf(stderr, "gpmtrace: crash pass failed to recover\n");

    if (opt.summary)
        printSummary(opt, *session, cfg);

    return (clean.verified && identities_ok && recovered_ok) ? 0 : 1;
}
