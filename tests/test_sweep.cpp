/**
 * @file
 * Sweep-engine tests: canonical-order result slots under adversarial
 * completion order, both error policies, telemetry shard folding,
 * nested-sweep re-entrancy, worker-count edge cases, and the
 * determinism contract that motivates the engine — the crash-torture
 * signature must be bit-identical at 1/2/4/8 sweep workers.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "crashtest/torture_runner.hpp"
#include "harness/sweep.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {
namespace {

TEST(Sweep, ResultsLandInCanonicalSlotsUnderAdversarialCompletion)
{
    // Later items finish first (sleep falls with index), so completion
    // order inverts submission order at any width > 1 — slots must
    // still match their item.
    constexpr std::size_t n = 48;
    for (const int workers : {1, 2, 4, 8}) {
        SweepOptions opt;
        opt.workers = workers;
        const std::vector<std::size_t> out = sweep(
            n,
            [](SweepLane &, std::size_t i) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200 * (n - i)));
                return i * i + 1;
            },
            opt);
        ASSERT_EQ(out.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(out[i], i * i + 1) << "workers=" << workers;
    }
}

TEST(Sweep, ItemOverloadMapsItemsToSlots)
{
    const std::vector<std::string> items = {"a", "bb", "ccc", "dddd"};
    SweepOptions opt;
    opt.workers = 4;
    const std::vector<std::size_t> lens = sweep(
        items,
        [](SweepLane &, const std::string &s) { return s.size(); },
        opt);
    ASSERT_EQ(lens.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(lens[i], items[i].size());
}

TEST(Sweep, EdgeCasesEmptyAndClampedWidths)
{
    // Empty sweep: no work, no errors, no slots.
    std::vector<SweepError> errors;
    EXPECT_TRUE(
        sweep(std::size_t(0),
              [](SweepLane &, std::size_t i) { return i; }, {}, &errors)
            .empty());
    EXPECT_TRUE(errors.empty());

    // Width far beyond the item count (clamped) and width 0 (one per
    // hardware thread) both produce the canonical result vector.
    for (const int workers : {0, 64}) {
        SweepOptions opt;
        opt.workers = workers;
        const std::vector<std::size_t> out = sweep(
            std::size_t(3),
            [](SweepLane &, std::size_t i) { return i + 10; }, opt);
        ASSERT_EQ(out.size(), 3u);
        for (std::size_t i = 0; i < 3; ++i)
            EXPECT_EQ(out[i], i + 10);
    }
}

TEST(Sweep, FailFastRethrowsTheFirstErrorOnTheCaller)
{
    for (const int workers : {1, 4}) {
        SweepOptions opt;
        opt.workers = workers;
        std::atomic<std::size_t> ran{0};
        EXPECT_THROW(
            sweep(
                std::size_t(256),
                [&](SweepLane &, std::size_t i) {
                    if (i == 3)
                        throw std::runtime_error("item 3 exploded");
                    ran.fetch_add(1);
                    return i;
                },
                opt),
            std::runtime_error)
            << "workers=" << workers;
        // The abort flag stops remaining claims: far fewer than all
        // 255 surviving items run once the error is seen.
        EXPECT_LT(ran.load(), std::size_t(256)) << "workers=" << workers;
    }
}

TEST(Sweep, CollectAllFinishesAndIndexOrdersErrors)
{
    for (const int workers : {1, 4}) {
        SweepOptions opt;
        opt.workers = workers;
        opt.on_error = SweepOptions::OnError::CollectAll;
        std::vector<SweepError> errors;
        const std::vector<int> out = sweep(
            std::size_t(32),
            [](SweepLane &, std::size_t i) -> int {
                if (i % 10 == 7)
                    throw std::runtime_error("bad " +
                                             std::to_string(i));
                return static_cast<int>(i) + 1;
            },
            opt, &errors);

        ASSERT_EQ(errors.size(), 3u) << "workers=" << workers;
        EXPECT_EQ(errors[0].index, 7u);
        EXPECT_EQ(errors[1].index, 17u);
        EXPECT_EQ(errors[2].index, 27u);
        EXPECT_EQ(errors[0].what, "bad 7");

        // Failed slots stay default-constructed; the rest completed.
        ASSERT_EQ(out.size(), 32u);
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (i % 10 == 7)
                EXPECT_EQ(out[i], 0) << i;
            else
                EXPECT_EQ(out[i], static_cast<int>(i) + 1) << i;
        }
    }
}

TEST(Sweep, TelemetryShardsFoldIntoTheSessionOnce)
{
    telemetry::ScopedSession session;
    SweepOptions opt;
    opt.workers = 4;
    sweep(
        std::size_t(100),
        [](SweepLane &lane, std::size_t i) {
            lane.count("sweep.test.items");
            lane.count("sweep.test.bytes", i);
            return i;
        },
        opt);
    const telemetry::MetricsSnapshot snap = session->metrics.snapshot();
    EXPECT_EQ(snap.counter("sweep.test.items"), 100u);
    EXPECT_EQ(snap.counter("sweep.test.bytes"), 99u * 100u / 2);
}

TEST(Sweep, CountIsDroppedWithoutASession)
{
    SweepOptions opt;
    opt.workers = 2;
    const std::vector<std::size_t> out = sweep(
        std::size_t(8),
        [](SweepLane &lane, std::size_t i) {
            lane.count("sweep.test.ignored");
            return i;
        },
        opt);
    EXPECT_EQ(out.size(), 8u);
}

TEST(Sweep, NestedSweepRunsInlineWithoutDeadlock)
{
    SweepOptions opt;
    opt.workers = 4;
    const std::vector<std::size_t> out = sweep(
        std::size_t(8),
        [](SweepLane &, std::size_t i) {
            // A sweep from inside a sweep item must not wait on the
            // pool it is running on; it falls back to inline.
            const std::vector<std::size_t> inner = sweep(
                std::size_t(4),
                [i](SweepLane &, std::size_t j) { return i * 10 + j; },
                SweepOptions{.workers = 4});
            std::size_t sum = 0;
            for (const std::size_t v : inner)
                sum += v;
            return sum;
        },
        opt);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], i * 40 + 6);
}

TEST(Sweep, WorkerIdsStayWithinTheRequestedWidth)
{
    SweepOptions opt;
    opt.workers = 4;
    const std::vector<unsigned> lanes = sweep(
        std::size_t(64),
        [](SweepLane &lane, std::size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            return lane.worker();
        },
        opt);
    for (const unsigned w : lanes)
        EXPECT_LT(w, 4u);
}

// ---- the determinism contract against the torture matrix ---------------

TEST(Sweep, TortureSignatureIsBitIdenticalAtAnyWorkerCount)
{
    // Every default invariant: each run's adapters (and the crash
    // references they hold) are shared read-only by all its workers.
    TortureConfig cfg;
    cfg.workloads = registeredInvariants();
    cfg.specs = CrashScheduler::parseList("frac:0.50,after-store:1");
    cfg.seeds = {1, 2};
    cfg.survive_probs = {0.5};

    cfg.jobs = 1;
    const TortureReport ref = TortureRunner::run(cfg);
    ASSERT_GT(ref.results.size(), 0u);

    for (const int jobs : {2, 4, 8}) {
        cfg.jobs = jobs;
        const TortureReport r = TortureRunner::run(cfg);
        ASSERT_EQ(r.results.size(), ref.results.size()) << jobs;
        for (std::size_t i = 0; i < r.results.size(); ++i) {
            EXPECT_EQ(r.results[i].key(), ref.results[i].key());
            EXPECT_EQ(r.results[i].outcome.state_hash,
                      ref.results[i].outcome.state_hash)
                << r.results[i].key() << " at jobs=" << jobs;
            EXPECT_EQ(r.results[i].cls, ref.results[i].cls);
        }
        EXPECT_EQ(r.signature(), ref.signature()) << "jobs=" << jobs;
        EXPECT_EQ(r.classCounts(), ref.classCounts()) << "jobs=" << jobs;
    }
}

} // namespace
} // namespace gpm
