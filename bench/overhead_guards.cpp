/**
 * @file
 * Disabled-mode overhead guards for the two instrumentation layers
 * on the simulator's hot paths, each asserted under 2 %:
 *
 *  - telemetry: every instrumentation site costs, when no session is
 *    installed, one relaxed/acquire atomic load (Span construction,
 *    telemetry::count) or one plain array add (HotShard);
 *  - analysis: every PmPool gpmcheck hook (store, fence, flush, crash,
 *    recovery read) costs, when no PmEventRecorder is attached, one
 *    pointer load and a never-taken branch.
 *
 * Both time the same representative hot loop — FNV-1a hashing of a
 * 64 B buffer, roughly the per-iteration work of a simulated thread
 * phase — with and without their layer's site shapes.
 *
 * Methodology: the two variants alternate for several rounds and the
 * minimum wall time of each is compared (minimum-of-rounds discards
 * scheduler noise; alternation cancels frequency drift). Each guard
 * retries the whole comparison a few times before failing so a single
 * noisy CI machine pass cannot produce a flaky red.
 *
 * Both guards always run. Results land in BENCH_telemetry_overhead.json
 * and BENCH_analysis_overhead.json through the shared telemetry JSON
 * serializer; the exit status is 0 only when both stay in budget.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/status.hpp"
#include "pmem/pm_events.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

using namespace gpm;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kIters = 2'000'000;
constexpr int kRounds = 7;
constexpr int kAttempts = 5;
constexpr double kLimitPct = 2.0;

/**
 * The measured loop. Each iteration hashes a 64 B buffer and feeds
 * one byte back, so iterations form a dependency chain the optimizer
 * cannot collapse, then runs @p hook — the site shapes under test, or
 * nothing for the baseline.
 */
template <typename Hook>
std::uint64_t
hotLoop(Hook &&hook)
{
    unsigned char buf[64];
    for (unsigned i = 0; i < 64; ++i)
        buf[i] = static_cast<unsigned char>(i * 37 + 11);

    std::uint64_t h = kFnvBasis;
    for (std::uint64_t it = 0; it < kIters; ++it) {
        for (unsigned i = 0; i < 64; ++i) {
            h ^= buf[i];
            h *= kFnvPrime;
        }
        buf[it & 63u] = static_cast<unsigned char>(h);
        hook(it);
    }
    return h;
}

template <typename Hook>
double
timeLoop(Hook &&hook, std::uint64_t &sink)
{
    const auto t0 = Clock::now();
    sink += hotLoop(hook);
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Alternate the baseline and @p hook for kRounds, compare the minima,
 * retry up to kAttempts times, write BENCH_<tool>.json and report
 * whether the overhead stayed under kLimitPct.
 */
template <typename Hook>
bool
runGuard(const char *tool, const char *what, Hook &&hook)
{
    std::uint64_t sink = 0;
    double overhead_pct = 0.0;
    double base_s = 0.0, hooked_s = 0.0;
    bool pass = false;
    for (int attempt = 0; attempt < kAttempts && !pass; ++attempt) {
        base_s = 1e30;
        hooked_s = 1e30;
        for (int r = 0; r < kRounds; ++r) {
            base_s = std::min(base_s,
                              timeLoop([](std::uint64_t) {}, sink));
            hooked_s = std::min(hooked_s, timeLoop(hook, sink));
        }
        overhead_pct = 100.0 * (hooked_s - base_s) / base_s;
        pass = overhead_pct < kLimitPct;
        std::printf("%s attempt %d: base %.4f s, hooked %.4f s, "
                    "overhead %+.3f%%%s\n",
                    tool, attempt + 1, base_s, hooked_s, overhead_pct,
                    pass ? "" : " (retrying)");
    }

    const std::string path = std::string("BENCH_") + tool + ".json";
    std::ofstream js(path, std::ios::trunc);
    telemetry::JsonWriter w(js);
    w.beginObject();
    w.field("schema", "gpm-metrics-v1");
    w.field("tool", tool);
    w.field("iters", kIters);
    w.field("base_s", base_s);
    w.field("hooked_s", hooked_s);
    w.field("overhead_pct", overhead_pct);
    w.field("limit_pct", kLimitPct);
    w.field("pass", pass);
    w.field("sink", sink);  // defeats whole-loop elision
    w.endObject();
    GPM_REQUIRE(w.complete() && js.good(), "failed writing ", path);

    if (pass)
        std::printf("%s disabled-mode overhead %.3f%% < %.1f%% budget\n",
                    what, overhead_pct, kLimitPct);
    else
        std::printf("FAIL: %s disabled-mode overhead %.3f%% exceeds the "
                    "%.1f%% budget\n",
                    what, overhead_pct, kLimitPct);
    return pass;
}

/** The three disabled-telemetry site shapes used on the sim's hot
 *  paths: an inert Span, a count(), and a HotShard add. */
bool
telemetryGuard()
{
    GPM_REQUIRE(!telemetry::enabled(),
                "overhead bench must run without a session installed");
    telemetry::HotShard shard;
    const bool pass =
        runGuard("telemetry_overhead", "telemetry", [&](std::uint64_t) {
            telemetry::Span span("bench", "hot-iter");  // inert
            telemetry::count("bench.iters");
            shard.add(telemetry::HotCounter::BlocksExecuted, 1);
        });
    shard.clear();
    return pass;
}

/**
 * Holds the recorder pointer the analysis hooks test. The volatile
 * qualifier forces one real load per iteration — the honest price of
 * the member read PmPool pays at each site — and keeps the optimizer
 * from hoisting the null test out of the loop.
 */
struct RecorderSlot {
    PmEventRecorder *volatile rec = nullptr;
};

/** The disabled-recorder site shapes from PmPool's hot paths. */
bool
analysisGuard()
{
    RecorderSlot slot;
    return runGuard("analysis_overhead", "recorder", [&](std::uint64_t it) {
        // writeCommon / persistOwner shape: one load, one test.
        if (PmEventRecorder *rec = slot.rec)
            rec->store(PersistDomain::McDurable, OwnerId(0), it, 8);
        // read-path shape: chained guard, second test unreached.
        if (PmEventRecorder *rec = slot.rec; rec && rec->inRecovery())
            rec->recoveryRead(PersistDomain::McDurable, it, 8);
    });
}

} // namespace

int
main()
{
    const bool telemetry_ok = telemetryGuard();
    const bool analysis_ok = analysisGuard();
    return telemetry_ok && analysis_ok ? 0 : 1;
}
