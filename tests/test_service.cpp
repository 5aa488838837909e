/**
 * @file
 * Serving-path tests: GpKvs serve transactions (get/put/delete batches
 * against the host oracle), the ServiceEngine's determinism and
 * backpressure contracts, and mid-traffic crash recovery with zero
 * acknowledged-write loss, for inline 8 B values and for variable-size
 * GpmHeap values.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/status.hpp"
#include "gpm/gpm_runtime.hpp"
#include "service/serve_engine.hpp"
#include "workloads/kvs.hpp"

namespace gpm {
namespace {

GpKvsParams
serveParams()
{
    GpKvsParams p;
    p.n_sets = 1u << 8;
    p.batch_ops = 64;
    p.batches = 1;
    return p;
}

/** First @p n keys mapping to pairwise-distinct sets. */
std::vector<std::uint64_t>
distinctSetKeys(const GpKvs &kvs, std::size_t n,
                std::uint64_t start = 1)
{
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> sets;
    for (std::uint64_t k = start; keys.size() < n; ++k) {
        const std::uint32_t s = kvs.setOf(k);
        bool clash = false;
        for (const std::uint32_t t : sets)
            clash = clash || t == s;
        if (!clash) {
            keys.push_back(k);
            sets.push_back(s);
        }
    }
    return keys;
}

KvRequest
req(KvVerb v, std::uint64_t key, std::uint64_t value = 0)
{
    KvRequest r;
    r.verb = v;
    r.key = key;
    r.value = value;
    return r;
}

TEST(ServeBatch, VerbSemanticsAgainstOracle)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 8_MiB);
    GpKvs kvs(m, serveParams());
    kvs.serveSetup(64);
    gpmPersistBegin(m);

    const std::vector<std::uint64_t> keys = distinctSetKeys(kvs, 4);
    std::vector<std::uint64_t> out;

    // Miss before any write; first PUTs apply.
    kvs.serveBatch({req(KvVerb::Get, keys[0]),
                    req(KvVerb::Put, keys[1], 101),
                    req(KvVerb::Put, keys[2], 202)},
                   out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1, 1}));

    // GET hits, overwrite, DEL of a present key.
    kvs.serveBatch({req(KvVerb::Get, keys[1]),
                    req(KvVerb::Put, keys[2], 203),
                    req(KvVerb::Put, keys[0], 300)},
                   out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{101, 1, 1}));

    kvs.serveBatch({req(KvVerb::Get, keys[2]),
                    req(KvVerb::Del, keys[1]),
                    req(KvVerb::Get, keys[0])},
                   out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{203, 1, 300}));

    // Delete-then-get misses; deleting an absent key reports 0.
    kvs.serveBatch({req(KvVerb::Get, keys[1]),
                    req(KvVerb::Del, keys[3])},
                   out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 0}));
    gpmPersistEnd(m);
}

TEST(ServeBatch, MatchesReferenceOnRandomStreams)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 8_MiB);
    const GpKvsParams p = serveParams();
    GpKvs kvs(m, p);
    kvs.serveSetup(64);
    gpmPersistBegin(m);

    std::vector<KvPair> mirror(std::uint64_t(p.n_sets) *
                               GpKvsParams::kWays);
    Rng rng(99);
    for (int batch = 0; batch < 30; ++batch) {
        // Greedy per-batch set dedup, exactly the engine's contract.
        std::vector<KvRequest> reqs;
        std::vector<std::uint32_t> sets;
        while (reqs.size() < 48) {
            const std::uint64_t key = 1 + rng.below(512);
            const std::uint32_t s = kvs.setOf(key);
            bool clash = false;
            for (const std::uint32_t t : sets)
                clash = clash || t == s;
            if (clash)
                continue;
            sets.push_back(s);
            const double u = rng.uniform();
            if (u < 0.4)
                reqs.push_back(req(KvVerb::Get, key));
            else if (u < 0.55)
                reqs.push_back(req(KvVerb::Del, key));
            else
                reqs.push_back(req(KvVerb::Put, key, rng.next() | 1));
        }
        std::vector<std::uint64_t> out;
        kvs.serveBatch(reqs, out);
        ASSERT_EQ(out.size(), reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const std::uint64_t expected = GpKvs::serveReference(
                &mirror[std::uint64_t(kvs.setOf(reqs[i].key)) *
                        GpKvsParams::kWays],
                reqs[i]);
            EXPECT_EQ(out[i], expected)
                << "batch " << batch << " op " << i;
        }
    }
    EXPECT_TRUE(kvs.durableEquals(mirror));
    gpmPersistEnd(m);
}

TEST(ServeBatch, BoundarySetsAddressTheStoreEdges)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 8_MiB);
    const GpKvsParams p = serveParams();
    GpKvs kvs(m, p);
    kvs.serveSetup(64);
    gpmPersistBegin(m);

    // One key on the first set and one on the last: PUT + GET round
    // trips must address the first and last 128 B lines of the store.
    std::uint64_t first_key = 0, last_key = 0;
    for (std::uint64_t k = 1; first_key == 0 || last_key == 0; ++k) {
        if (kvs.setOf(k) == 0 && first_key == 0)
            first_key = k;
        if (kvs.setOf(k) == p.n_sets - 1 && last_key == 0)
            last_key = k;
    }
    std::vector<std::uint64_t> out;
    kvs.serveBatch({req(KvVerb::Put, first_key, 111),
                    req(KvVerb::Put, last_key, 222)},
                   out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 1}));
    kvs.serveBatch({req(KvVerb::Get, first_key),
                    req(KvVerb::Get, last_key)},
                   out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{111, 222}));
    gpmPersistEnd(m);
}

TEST(ServeBatch, RejectsTwoOpsOnOneSet)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 8_MiB);
    GpKvs kvs(m, serveParams());
    kvs.serveSetup(64);
    gpmPersistBegin(m);

    // Two distinct keys on the same set violate the batcher contract.
    const std::uint64_t k1 = 1;
    std::uint64_t k2 = 2;
    while (kvs.setOf(k2) != kvs.setOf(k1))
        ++k2;
    std::vector<std::uint64_t> out;
    EXPECT_THROW(kvs.serveBatch({req(KvVerb::Put, k1, 1),
                                 req(KvVerb::Put, k2, 2)},
                                out),
                 FatalError);
    gpmPersistEnd(m);
}

ServeConfig
smallEngineConfig()
{
    ServeConfig sc;
    sc.shards = 2;
    sc.n_sets = 1u << 10;
    sc.clients = 96;
    sc.requests = 3000;
    sc.batch_max = 48;
    sc.batch_deadline_ns = 20000;
    sc.queue_depth = 128;
    sc.think_ns = 1500;
    sc.key_space = 1u << 14;
    sc.seed = 7;
    return sc;
}

TEST(ServiceEngine, CleanRunServesEverythingOracleChecked)
{
    const ServeConfig sc = smallEngineConfig();
    const ServeReport r = ServiceEngine(sc).run();
    EXPECT_EQ(r.ops_issued, sc.requests);
    EXPECT_EQ(r.ops_acked, sc.requests);
    EXPECT_EQ(r.oracle_failures, 0u);
    EXPECT_GT(r.batches, 0u);
    EXPECT_EQ(r.batches, r.size_closes + r.deadline_closes);
    EXPECT_EQ(r.latency.count, sc.requests);
    EXPECT_GT(r.makespan_ns, 0.0);
    EXPECT_GT(r.throughput_mops, 0.0);
    EXPECT_FALSE(r.crash_armed);
}

TEST(ServiceEngine, BitIdenticalAcrossWorkerWidths)
{
    ServeConfig sc = smallEngineConfig();
    ServeReport base;
    for (const int w : {1, 2, 4, 8}) {
        sc.jobs = w;
        const ServeReport r = ServiceEngine(sc).run();
        if (w == 1) {
            base = r;
            continue;
        }
        EXPECT_EQ(r.ack_signature, base.ack_signature) << "width " << w;
        EXPECT_EQ(r.signature(), base.signature()) << "width " << w;
    }
    // And the seed must actually matter.
    sc.jobs = 1;
    sc.seed = 8;
    EXPECT_NE(ServiceEngine(sc).run().ack_signature,
              base.ack_signature);
}

TEST(ServiceEngine, BackpressureBlocksAndRecovers)
{
    ServeConfig sc = smallEngineConfig();
    sc.clients = 256;
    sc.queue_depth = 16;
    sc.requests = 2000;
    sc.think_ns = 0.0;
    const ServeReport r = ServiceEngine(sc).run();
    EXPECT_GT(r.blocked_admissions, 0u);
    EXPECT_EQ(r.ops_acked, sc.requests);  // stalls delay, never drop
    EXPECT_EQ(r.oracle_failures, 0u);
}

TEST(ServiceEngine, ZipfianTrafficDefersSameSetConflicts)
{
    ServeConfig sc = smallEngineConfig();
    sc.dist = KeyDistKind::Zipfian;
    sc.key_space = 1u << 10;
    sc.clients = 192;
    sc.think_ns = 0.0;
    const ServeReport r = ServiceEngine(sc).run();
    EXPECT_GT(r.deferred_conflicts, 0u);
    EXPECT_EQ(r.ops_acked, sc.requests);
    EXPECT_EQ(r.oracle_failures, 0u);
}

TEST(ServiceEngine, MidTrafficCrashLosesNoAcknowledgedWrite)
{
    int fired = 0;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
        for (const double survive : {0.0, 0.5}) {
            ServeConfig sc;
            sc.shards = 2;
            sc.n_sets = 1u << 9;
            sc.clients = 256;
            sc.requests = 2048;
            sc.batch_max = 32;
            sc.batch_deadline_ns = 1e6;
            sc.queue_depth = 128;
            sc.think_ns = 0.0;
            sc.get_ratio = 0.3;
            sc.del_ratio = 0.1;
            sc.key_space = 1u << 12;
            sc.seed = seed;
            sc.crash_at_launch = 5;
            sc.crash_point = CrashPoint::afterThreadPhases(
                sc.batch_max * GpKvsParams::kGroup / 2);
            sc.survive_prob = survive;
            const ServeReport r = ServiceEngine(sc).run();
            EXPECT_TRUE(r.crash_armed);
            fired += r.crash_fired ? 1 : 0;
            EXPECT_TRUE(r.recovery_ran) << "seed " << seed;
            EXPECT_TRUE(r.durable_ok)
                << "acked writes lost, seed " << seed << " survive "
                << survive;
            EXPECT_EQ(r.oracle_failures, 0u);
            EXPECT_EQ(r.pool_crashes, 2u);
        }
    }
    EXPECT_GT(fired, 0);
}

/** smallEngineConfig in variable-size mode: zipfian keys, so GETs hit
 *  values that were overwritten, and lengths that end mid-word. */
ServeConfig
varEngineConfig()
{
    ServeConfig sc = smallEngineConfig();
    sc.dist = KeyDistKind::Zipfian;
    sc.value_bytes_min = 1;
    sc.value_bytes_max = 600;
    sc.heap_slots_per_class = 1024;
    return sc;
}

TEST(ServiceEngine, VariableSizeRunIsOracleClean)
{
    const ServeConfig sc = varEngineConfig();
    const ServeReport r = ServiceEngine(sc).run();
    EXPECT_EQ(r.ops_issued, sc.requests);
    EXPECT_EQ(r.ops_acked, sc.requests);
    EXPECT_EQ(r.oracle_failures, 0u);
    EXPECT_GT(r.deferred_conflicts, 0u);
}

TEST(ServiceEngine, VariableSizeMidTrafficCrashLosesNoAcknowledgedWrite)
{
    int fired = 0;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        for (const double survive : {0.0, 0.5}) {
            ServeConfig sc = varEngineConfig();
            sc.clients = 256;
            sc.requests = 2048;
            sc.batch_max = 32;
            sc.batch_deadline_ns = 1e6;
            sc.think_ns = 0.0;
            sc.get_ratio = 0.3;
            sc.del_ratio = 0.1;
            sc.seed = seed;
            sc.crash_at_launch = 12;
            sc.crash_point = CrashPoint::afterThreadPhases(
                sc.batch_max * GpKvsParams::kGroup / 2);
            sc.survive_prob = survive;
            const ServeReport r = ServiceEngine(sc).run();
            fired += r.crash_fired ? 1 : 0;
            EXPECT_TRUE(r.recovery_ran) << "seed " << seed;
            EXPECT_TRUE(r.durable_ok)
                << "acked writes lost, seed " << seed << " survive "
                << survive;
            EXPECT_EQ(r.oracle_failures, 0u);
            EXPECT_EQ(r.pool_crashes, 2u);
        }
    }
    EXPECT_GT(fired, 0);
}

TEST(ServiceEngine, DdioTrapLosesAckedWritesUnderCrash)
{
    // The GPM-NDP trap: persist window closed, fences order but
    // nothing persists. The engine must *detect* the acked-write
    // loss, not paper over it.
    ServeConfig sc;
    sc.shards = 2;
    sc.n_sets = 1u << 9;
    sc.clients = 256;
    sc.requests = 2048;
    sc.batch_max = 32;
    sc.batch_deadline_ns = 1e6;
    sc.queue_depth = 128;
    sc.think_ns = 0.0;
    sc.get_ratio = 0.3;
    sc.del_ratio = 0.1;
    sc.key_space = 1u << 12;
    sc.seed = 3;
    sc.open_persist_window = false;
    sc.crash_at_launch = 5;
    sc.crash_point = CrashPoint::afterThreadPhases(
        sc.batch_max * GpKvsParams::kGroup / 2);
    sc.survive_prob = 0.0;
    const ServeReport r = ServiceEngine(sc).run();
    EXPECT_FALSE(r.durable_ok);
}

} // namespace
} // namespace gpm
