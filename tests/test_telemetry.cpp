/**
 * @file
 * Telemetry subsystem suite: JSON emission/validation, the metrics
 * registry, the trace timeline, and — most importantly — the
 * observer contract against the simulator itself:
 *
 *  - accounting identities: the counters a session collects must
 *    agree with the model's own observations (pm_line_bytes ==
 *    pm_line_txns * granule; per-launch NVM tier deltas sum to the
 *    media model's whole-run totals),
 *  - parallel equality: every modelled metric is bit-identical at
 *    1/4/8 executor workers (telemetry observes, never perturbs),
 *  - crash/recovery paths land on the timeline.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/kernel.hpp"
#include "harness/experiments.hpp"
#include "platform/machine.hpp"
#include "pmem/pm_pool.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {
namespace {

namespace tm = gpm::telemetry;

// ---- JSON writer / validator -------------------------------------------

TEST(TelemetryJson, WriterProducesValidNestedDocument)
{
    std::ostringstream os;
    {
        tm::JsonWriter w(os);
        w.beginObject();
        w.field("name", "quote\"back\\slash\nnewline");
        w.field("count", std::uint64_t(42));
        w.field("neg", -7);
        w.field("ratio", 0.25);
        w.field("on", true);
        w.key("list");
        w.beginArray();
        w.value(1);
        w.value("two");
        w.beginObject();
        w.field("nested", false);
        w.endObject();
        w.endArray();
        w.endObject();
        EXPECT_TRUE(w.complete());
    }
    std::string error;
    EXPECT_TRUE(tm::validateJson(os.str(), &error)) << error;
    EXPECT_NE(os.str().find("\\\"back\\\\slash\\n"), std::string::npos);
}

TEST(TelemetryJson, NumberPolicyDegradesNonFinite)
{
    EXPECT_EQ(tm::JsonWriter::number(0.0), "0");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(tm::validateJson(
        tm::JsonWriter::number(std::nan(""))));
    EXPECT_TRUE(tm::validateJson(tm::JsonWriter::number(inf)));
    EXPECT_TRUE(tm::validateJson(tm::JsonWriter::number(-inf)));
}

TEST(TelemetryJson, ValidatorRejectsMalformedDocuments)
{
    EXPECT_TRUE(tm::validateJson("{\"a\": [1, 2.5e3, true, null]}"));
    EXPECT_TRUE(tm::validateJson("  [ ]  "));
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{} trailing", "{'a': 1}",
          "01", "+1", "\"unterminated", "{\"a\" 1}", "nul"}) {
        std::string error;
        EXPECT_FALSE(tm::validateJson(bad, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(TelemetryJson, FileValidationProbesTopLevelKeys)
{
    const std::string path = "test_telemetry_probe.json";
    {
        std::ofstream os(path);
        os << "{\"schema\": \"gpm-metrics-v1\", \"counters\": {}}";
    }
    std::string error;
    EXPECT_TRUE(tm::validateJsonFile(path, {"schema", "counters"},
                                     &error))
        << error;
    EXPECT_FALSE(
        tm::validateJsonFile(path, {"schema", "traceEvents"}, &error));
    EXPECT_NE(error.find("traceEvents"), std::string::npos);
    EXPECT_FALSE(tm::validateJsonFile("does_not_exist.json", {}, &error));
    std::remove(path.c_str());
}

// ---- metrics registry ---------------------------------------------------

TEST(TelemetryMetrics, CountersGaugesHistograms)
{
    tm::Registry r;
    const auto id = r.counterId("exec.blocks");
    r.add(id, 5);
    r.add("exec.blocks", 2);          // same slot via name
    r.add("other.counter", 1);
    r.gaugeSet("g.set", 2.5);
    r.gaugeAdd("g.set", 0.5);
    r.gaugeAdd("g.sum", 1.25);
    r.observe("h.lat", 3.0);
    r.observe("h.lat", 900.0);
    r.observe("h.lat", 0.1);

    const tm::MetricsSnapshot s = r.snapshot();
    EXPECT_EQ(s.counter("exec.blocks"), 7u);
    EXPECT_EQ(s.counter("other.counter"), 1u);
    EXPECT_EQ(s.counter("absent"), 0u);
    EXPECT_DOUBLE_EQ(s.gauge("g.set"), 3.0);
    EXPECT_DOUBLE_EQ(s.gauge("g.sum"), 1.25);
    const auto &h = s.histograms.at("h.lat");
    EXPECT_EQ(h.count, 3u);
    EXPECT_DOUBLE_EQ(h.sum, 903.1);
    EXPECT_DOUBLE_EQ(h.min, 0.1);
    EXPECT_DOUBLE_EQ(h.max, 900.0);

    std::ostringstream os;
    tm::JsonWriter w(os);
    s.writeJson(w);
    std::string error;
    EXPECT_TRUE(tm::validateJson(os.str(), &error)) << error;
}

TEST(TelemetryMetrics, HistogramBinsAreLog2)
{
    EXPECT_EQ(tm::HistogramData::binOf(-3.0), 0u);
    EXPECT_EQ(tm::HistogramData::binOf(0.5), 0u);
    EXPECT_EQ(tm::HistogramData::binOf(1.0), 1u);
    EXPECT_EQ(tm::HistogramData::binOf(1.9), 1u);
    EXPECT_EQ(tm::HistogramData::binOf(2.0), 2u);
    EXPECT_EQ(tm::HistogramData::binOf(3.9), 2u);
    EXPECT_EQ(tm::HistogramData::binOf(4.0), 3u);
    EXPECT_EQ(tm::HistogramData::binOf(1e300), 63u);
}

TEST(TelemetryMetrics, HistogramQuantilesDegenerateCases)
{
    tm::HistogramData empty;
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

    // One sample: every quantile is that sample.
    tm::HistogramData one;
    one.observe(37.0);
    EXPECT_DOUBLE_EQ(one.quantile(0.0), 37.0);
    EXPECT_DOUBLE_EQ(one.p50(), 37.0);
    EXPECT_DOUBLE_EQ(one.p999(), 37.0);
    EXPECT_DOUBLE_EQ(one.quantile(1.0), 37.0);

    // Identical samples: ditto, regardless of count.
    tm::HistogramData same;
    for (int i = 0; i < 1000; ++i)
        same.observe(12.0);
    EXPECT_DOUBLE_EQ(same.p50(), 12.0);
    EXPECT_DOUBLE_EQ(same.p99(), 12.0);
}

TEST(TelemetryMetrics, HistogramQuantilesClampHostileInputs)
{
    // Empty histogram: every accessor, including the tails, is 0.
    tm::HistogramData empty;
    EXPECT_DOUBLE_EQ(empty.p50(), 0.0);
    EXPECT_DOUBLE_EQ(empty.p999(), 0.0);
    EXPECT_DOUBLE_EQ(empty.quantile(2.0), 0.0);

    // p999 of a one-bucket distribution: all 5000 samples land in
    // [4, 8); the tail estimate must stay inside the observed range,
    // not read past the populated bin.
    tm::HistogramData bucket;
    for (int i = 0; i < 5000; ++i)
        bucket.observe(5.0 + (i % 3));  // 5, 6, 7 share log2 bin 3
    EXPECT_GE(bucket.p999(), bucket.min);
    EXPECT_LE(bucket.p999(), bucket.max);
    EXPECT_GE(bucket.quantile(1.0), bucket.quantile(0.999));

    // Out-of-range and NaN q clamp instead of producing garbage.
    tm::HistogramData h;
    h.observe(10.0);
    h.observe(20.0);
    EXPECT_DOUBLE_EQ(h.quantile(-3.0), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(42.0), h.quantile(1.0));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DOUBLE_EQ(h.quantile(nan), h.quantile(0.0));
}

TEST(TelemetryMetrics, HistogramQuantilesInterpolateWithinOneBin)
{
    // Uniform 1..1000: the log2-histogram contract is within one bin
    // width (a factor of two) of the exact quantile, clamped to the
    // observed range.
    tm::HistogramData h;
    for (int i = 1; i <= 1000; ++i)
        h.observe(static_cast<double>(i));
    const struct {
        double q;
        double exact;
    } cases[] = {{0.50, 500.0}, {0.90, 900.0}, {0.99, 990.0}};
    for (const auto &c : cases) {
        const double est = h.quantile(c.q);
        EXPECT_GE(est, c.exact / 2.0) << "q " << c.q;
        EXPECT_LE(est, std::min(c.exact * 2.0, h.max)) << "q " << c.q;
    }
    // Quantiles are monotone in q and bounded by the observed range.
    EXPECT_LE(h.quantile(0.0), h.quantile(0.5));
    EXPECT_LE(h.p50(), h.p90());
    EXPECT_LE(h.p90(), h.p99());
    EXPECT_LE(h.p99(), h.p999());
    EXPECT_GE(h.quantile(0.0), h.min);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max);

    // Out-of-range q clamps rather than misbehaving.
    EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(1.5), h.max);
}

TEST(TelemetryMetrics, HotShardMergesAndClears)
{
    tm::Registry r;
    tm::HotShard shard;
    shard.add(tm::HotCounter::BlocksExecuted, 3);
    shard.add(tm::HotCounter::WarpFlushes, 2);
    shard.mergeInto(r);
    EXPECT_EQ(r.counter("exec.blocks_executed"), 3u);
    EXPECT_EQ(r.counter("exec.warp_flushes"), 2u);
    // mergeInto zeroed the shard: merging again adds nothing.
    shard.mergeInto(r);
    EXPECT_EQ(r.counter("exec.blocks_executed"), 3u);
    shard.add(tm::HotCounter::BlocksExecuted, 1);
    shard.clear();
    shard.mergeInto(r);
    EXPECT_EQ(r.counter("exec.blocks_executed"), 3u);
}

TEST(TelemetryMetrics, RegistryIsThreadSafe)
{
    tm::Registry r;
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back([&r, t] {
            const std::string own = std::string("t").append(
                std::to_string(t));
            for (int i = 0; i < 1000; ++i) {
                r.add("shared.counter", 1);
                r.add(own, 1);
                r.observe("shared.hist", i);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    const tm::MetricsSnapshot s = r.snapshot();
    EXPECT_EQ(s.counter("shared.counter"), 4000u);
    EXPECT_EQ(s.counter("t0"), 1000u);
    EXPECT_EQ(s.histograms.at("shared.hist").count, 4000u);
}

// ---- trace timeline -----------------------------------------------------

TEST(TelemetryTrace, SpansAreInertWithoutSession)
{
    ASSERT_EQ(tm::Session::current(), nullptr);
    {
        tm::Span span("launch", "no-session");
        span.arg("k", std::uint64_t(1));
        EXPECT_FALSE(span.armed());
    }
    tm::count("nobody.home");
    tm::instant("launch", "nothing");
    // Nothing to observe: the calls must simply not crash or leak.
}

TEST(TelemetryTrace, RecordsSpansAndInstantsAcrossThreads)
{
    tm::ScopedSession session;
    {
        tm::Span span("scenario", "outer");
        span.arg("answer", std::uint64_t(42));
        span.arg("label", "va\"lue");
        std::vector<std::thread> pool;
        for (int t = 0; t < 3; ++t) {
            pool.emplace_back([] {
                tm::Span inner("block", "worker-span");
                tm::instant("log", "worker-marker");
            });
        }
        for (std::thread &t : pool)
            t.join();
    }
    const auto events = session->trace.collect();
    ASSERT_EQ(events.size(), 7u);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);

    bool saw_outer = false;
    for (const auto &ev : events) {
        if (ev.name == "outer") {
            saw_outer = true;
            EXPECT_EQ(ev.ph, 'X');
            std::string error;
            EXPECT_TRUE(tm::validateJson(ev.args, &error)) << error;
            EXPECT_NE(ev.args.find("\"answer\""), std::string::npos);
        }
    }
    EXPECT_TRUE(saw_outer);

    // The span's wall time also lands in the <cat>.wall_us histogram.
    const tm::MetricsSnapshot s = session->metrics.snapshot();
    EXPECT_EQ(s.histograms.at("scenario.wall_us").count, 1u);
    EXPECT_EQ(s.histograms.at("block.wall_us").count, 3u);

    std::ostringstream os;
    tm::JsonWriter w(os);
    session->trace.writeJson(w);
    std::string error;
    EXPECT_TRUE(tm::validateJson(os.str(), &error)) << error;
    EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
}

// ---- the observer contract against the simulator ------------------------

/** A small kernel: every thread stores 16 B to its own slot and
 *  fences; one warp's worth of threads per block. */
KernelDesc
storeKernel(std::uint32_t blocks, std::uint32_t threads)
{
    KernelDesc k;
    k.name = "telemetry_store";
    k.blocks = blocks;
    k.block_threads = threads;
    k.phases.push_back([](ThreadCtx &ctx) {
        const std::uint64_t slot = ctx.globalId() * 64;
        std::uint8_t payload[16];
        std::memset(payload, 0xab, sizeof payload);
        ctx.pmWrite(slot, payload, sizeof payload);
        ctx.threadfenceSystem();
        ctx.work(10.0);
    });
    return k;
}

TEST(TelemetryObserver, LaunchCountersMatchStatsAndModelTotals)
{
    tm::ScopedSession session;
    LaunchStats stats;
    SimConfig cfg;
    {
        Machine m(cfg, PlatformKind::Gpm, 1_MiB);
        stats = m.runKernel(storeKernel(8, 32));
    }  // ~Machine records the observed NVM totals

    const tm::MetricsSnapshot s = session->metrics.snapshot();
    EXPECT_EQ(s.counter("sim.launches"), 1u);
    EXPECT_EQ(s.counter("sim.blocks"), stats.blocks);
    EXPECT_EQ(s.counter("sim.threads"), stats.threads);
    EXPECT_EQ(s.counter("sim.pm_payload_bytes"), stats.pm_payload_bytes);
    EXPECT_EQ(s.counter("sim.pm_line_txns"), stats.pm_line_txns);
    EXPECT_EQ(s.counter("sim.pm_line_bytes"), stats.pm_line_bytes);
    EXPECT_EQ(s.counter("sim.fences"), stats.fences);
    EXPECT_EQ(s.counter("exec.blocks_executed"), stats.blocks);

    // Identity 1: every coalesced line transaction moves exactly one
    // coalesce granule.
    EXPECT_EQ(s.counter("sim.pm_line_bytes"),
              s.counter("sim.pm_line_txns") * cfg.coalesce_bytes);
    EXPECT_EQ(s.counter("exec.coalesced_line_txns"),
              s.counter("sim.pm_line_txns"));

    // Identity 2: per-launch NVM tier deltas sum to the media model's
    // whole-run observation (all traffic flowed through launches).
    EXPECT_EQ(s.counter("nvm.launch_seq_aligned_bytes") +
                  s.counter("nvm.launch_seq_unaligned_bytes") +
                  s.counter("nvm.launch_random_bytes"),
              s.counter("nvm.observed_seq_aligned_bytes") +
                  s.counter("nvm.observed_seq_unaligned_bytes") +
                  s.counter("nvm.observed_random_bytes"));
}

TEST(TelemetryObserver, CrashRecoveryLandsOnTimeline)
{
    tm::ScopedSession session;
    SimConfig cfg;
    const WorkloadResult r =
        bench::runBenchWithCrash(bench::Bench::Kvs, cfg);
    EXPECT_TRUE(r.verified);

    const tm::MetricsSnapshot s = session->metrics.snapshot();
    EXPECT_GE(s.counter("pool.crash_events"), 1u);
    EXPECT_GE(s.counter("recovery.invocations"), 1u);
    EXPECT_GT(s.counter("log.hcl_appends"), 0u);

    bool saw_crash = false, saw_recovery = false, saw_launch = false,
         saw_flush = false, saw_commit = false;
    for (const auto &ev : session->trace.collect()) {
        saw_crash |= std::strcmp(ev.cat, "crash") == 0;
        saw_recovery |= std::strcmp(ev.cat, "recovery") == 0;
        saw_launch |= std::strcmp(ev.cat, "launch") == 0;
        saw_flush |= std::strcmp(ev.cat, "flush") == 0;
        saw_commit |= std::strcmp(ev.cat, "line-commit") == 0;
    }
    EXPECT_TRUE(saw_crash);
    EXPECT_TRUE(saw_recovery);
    EXPECT_TRUE(saw_launch);
    EXPECT_TRUE(saw_flush);
    EXPECT_TRUE(saw_commit);

    // A crashed launch must never reach the per-launch counters, so
    // the line identity survives the crash pass.
    EXPECT_EQ(s.counter("sim.pm_line_bytes"),
              s.counter("sim.pm_line_txns") * cfg.coalesce_bytes);
}

TEST(TelemetryObserver, CrashSpanReportsRestoredBytes)
{
    tm::ScopedSession session;
    const std::uint8_t buf[300] = {7};
    PmPool pool(64_KiB, PersistDomain::McDurable);
    pool.deviceWrite(0, 0, buf, 300);
    pool.deviceWrite(1, 4096, buf, 100);
    pool.crash(0.5);  // survivors are restored too: the reset is per extent
    PmPool eadr(64_KiB, PersistDomain::LlcDurable);
    eadr.deviceWrite(0, 0, buf, 300);
    eadr.crash();

    std::vector<std::string> args;
    for (const auto &ev : session->trace.collect())
        if (std::strcmp(ev.cat, "crash") == 0)
            args.push_back(ev.args);
    ASSERT_EQ(args.size(), 2u);
    EXPECT_NE(args[0].find("\"restored_bytes\": 400"), std::string::npos)
        << args[0];
    EXPECT_NE(args[1].find("\"restored_bytes\": 0"), std::string::npos)
        << args[1];
}

} // namespace
} // namespace gpm
