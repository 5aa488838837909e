/**
 * @file
 * gpKVS workload tests: functional correctness on every platform,
 * transactional crash recovery across eviction seeds and crash points.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/hash.hpp"
#include "crash_hash_grid.hpp"
#include "harness/experiments.hpp"
#include "workloads/kvs.hpp"

namespace gpm {
namespace {

GpKvsParams
smallParams()
{
    GpKvsParams p;
    p.n_sets = 1u << 10;
    p.batch_ops = 2048;
    p.batches = 3;
    return p;
}

TEST(GpKvs, GpmRunVerifies)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpKvs kvs(m, smallParams());
    const WorkloadResult r = kvs.run();
    EXPECT_TRUE(r.supported);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.op_ns, 0.0);
    EXPECT_GT(r.persisted_payload, 0u);
    EXPECT_EQ(r.ops_done, 3 * 2048);
}

TEST(GpKvs, LookupFindsInsertedKeys)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpKvsParams p = smallParams();
    GpKvs kvs(m, p);
    ASSERT_TRUE(kvs.run().verified);

    // Rebuild the expected final state and check lookups against it.
    std::vector<KvPair> mirror(std::uint64_t(p.n_sets) *
                               GpKvsParams::kWays);
    for (std::uint32_t b = 0; b < p.batches; ++b)
        kvs.applyBatchReference(mirror, b);
    std::uint64_t checked = 0;
    for (const KvPair &pair : mirror) {
        if (pair.key == 0)
            continue;
        std::uint64_t v = 0;
        EXPECT_TRUE(kvs.lookup(pair.key, v));
        EXPECT_EQ(v, pair.value);
        if (++checked == 64)
            break;
    }
    EXPECT_GT(checked, 0u);
}

TEST(GpKvs, GetsReturnCommittedValues)
{
    SimConfig cfg;
    GpKvsParams p = smallParams();
    p.get_ratio = 0.5;
    p.batches = 3;
    for (PlatformKind kind : {PlatformKind::Gpm, PlatformKind::CapMm}) {
        Machine m(cfg, kind, 64_MiB);
        GpKvs kvs(m, p);
        const WorkloadResult r = kvs.run();
        // verified covers the GET results against the in-order
        // reference execution (hits on batch-0 keys, misses on
        // random ones).
        EXPECT_TRUE(r.verified) << platformName(kind);
    }
}

TEST(GpKvs, GetResultHitsAndMisses)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpKvsParams p = smallParams();
    p.get_ratio = 0.4;
    p.batches = 2;
    GpKvs kvs(m, p);
    ASSERT_TRUE(kvs.run().verified);
    // With half the GETs aimed at batch-0 keys, some must hit...
    std::uint32_t hits = 0, total = 0;
    for (std::uint32_t i = 0; i < p.batch_ops; ++i) {
        ++total;
        hits += kvs.getResult(i) != 0;
    }
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, total);  // ...and the random ones must miss
}

TEST(GpKvs, CapPlatformsVerify)
{
    for (PlatformKind kind : {PlatformKind::CapFs, PlatformKind::CapMm,
                              PlatformKind::CapEadr}) {
        SimConfig cfg;
        Machine m(cfg, kind, 64_MiB);
        GpKvs kvs(m, smallParams());
        const WorkloadResult r = kvs.run();
        EXPECT_TRUE(r.verified) << platformName(kind);
        EXPECT_GT(r.op_ns, 0.0) << platformName(kind);
    }
}

void
expectSameResult(const WorkloadResult &a, const WorkloadResult &b)
{
    EXPECT_EQ(a.supported, b.supported);
    EXPECT_EQ(a.op_ns, b.op_ns);
    EXPECT_EQ(a.persist_ns, b.persist_ns);
    EXPECT_EQ(a.recovery_ns, b.recovery_ns);
    EXPECT_EQ(a.persisted_payload, b.persisted_payload);
    EXPECT_EQ(a.pcie_write_bytes, b.pcie_write_bytes);
    EXPECT_EQ(a.ops_done, b.ops_done);
    EXPECT_EQ(a.verified, b.verified);
}

TEST(GpKvsDeviceCopy, CapCellsEndWithVisibleDurableAndCopyEqual)
{
    // CAP's persists copy only the pairs a batch wrote, so a missed
    // pair would leave the visible image, the durable one or both
    // behind the device copy. The canonical cells must end with all
    // three equal.
    for (const PlatformKind kind : {PlatformKind::CapFs,
                                    PlatformKind::CapMm}) {
        SCOPED_TRACE(platformName(kind));
        Machine m(SimConfig{}, kind, bench::pmCapacity());
        GpKvs kvs(m, bench::kvsParams());
        ASSERT_TRUE(kvs.run().verified);
        const PmRegion store = m.pool().region("gpkvs.data");
        const std::uint8_t *visible = m.pool().visible() + store.offset;
        const DurableBytes image =
            m.pool().durableRange(store.offset, store.size);
        const std::uint8_t *durable = image.data();
        EXPECT_EQ(std::memcmp(visible, durable, store.size), 0);
        EXPECT_EQ(std::memcmp(kvs.deviceCopy(), durable, store.size), 0);
        EXPECT_TRUE(std::any_of(durable, durable + store.size,
                                [](std::uint8_t c) { return c != 0; }));
    }
}

TEST(GpKvsDeviceCopy, RecycledCopiesLeaveEveryCellUnchanged)
{
    // CAP's device copy goes back to the pool-page free list after a
    // cell. The second cell inherits the first one's pages, the third
    // the pages both wrote; at jobs 4 the copies pass between workers.
    using bench::Bench;
    const std::vector<bench::BenchCell> cells = {
        {Bench::Kvs, PlatformKind::CapFs},
        {Bench::Kvs95, PlatformKind::CapMm},
        {Bench::Kvs, PlatformKind::CapFs}};
    SimConfig cfg;
    std::vector<WorkloadResult> seq;
    for (const bench::BenchCell &c : cells)
        seq.push_back(bench::runBench(c.b, c.kind, cfg, c.seed));
    for (const WorkloadResult &r : seq)
        EXPECT_TRUE(r.verified);
    expectSameResult(seq[2], seq[0]);

    const std::vector<WorkloadResult> one =
        bench::runBenchCells(cells, cfg, 1);
    const std::vector<WorkloadResult> four =
        bench::runBenchCells(cells, cfg, 4);
    ASSERT_EQ(one.size(), cells.size());
    ASSERT_EQ(four.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "cell " << i);
        expectSameResult(one[i], seq[i]);
        expectSameResult(four[i], one[i]);
    }
}

TEST(GpKvs, GpufsUnsupported)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpufs, 64_MiB);
    GpKvs kvs(m, smallParams());
    EXPECT_FALSE(kvs.run().supported);
}

TEST(GpKvs, NdpVerifiesAndIsDurableAfterFlush)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::GpmNdp, 64_MiB);
    GpKvsParams p = smallParams();
    GpKvs kvs(m, p);
    EXPECT_TRUE(kvs.run().verified);
    // After the CPU flush pass everything pending must be durable.
    EXPECT_EQ(m.pool().pendingExtents(), 0u);
}

/** Far more ops than ways: every set fills in batch 0. */
GpKvsParams
oversubscribedParams(double get_ratio)
{
    GpKvsParams p;
    p.n_sets = 8;
    p.batch_ops = 256;
    p.batches = 3;
    p.get_ratio = get_ratio;
    return p;
}

TEST(GpKvsOversubscribed, FullSetsRejectSetsOnEveryPlatform)
{
    // SET-only: batch 0 fills all 64 ways, and every later SET (a
    // fresh random key) finds its set full and fails with kNoWay.
    const GpKvsParams full = oversubscribedParams(0.0);
    const CrashReference first = GpKvs::crashReference(full, 0);
    const auto *pairs =
        reinterpret_cast<const KvPair *>(first.committed.bytes.data());
    for (std::uint64_t i = 0; i < full.n_sets * GpKvsParams::kWays; ++i)
        EXPECT_NE(pairs[i].key, 0u) << "way " << i;
    EXPECT_EQ(GpKvs::crashReference(full, full.batches - 1).committed.bytes,
              first.committed.bytes);

    for (const double get_ratio : {0.0, 0.95}) {
        const GpKvsParams p = oversubscribedParams(get_ratio);
        const CrashReference ref =
            GpKvs::crashReference(p, p.batches - 1);
        for (PlatformKind kind :
             {PlatformKind::Gpm, PlatformKind::GpmEadr,
              PlatformKind::CapFs, PlatformKind::CapMm}) {
            SimConfig cfg;
            Machine m(cfg, kind, 16_MiB);
            GpKvs kvs(m, p);
            EXPECT_TRUE(kvs.run().verified)
                << platformName(kind) << " get_ratio " << get_ratio;
            if (kind != PlatformKind::Gpm)
                continue;
            const DurableBytes img = m.pool().durableRange(
                m.pool().region("gpkvs.data").offset, p.storeBytes());
            EXPECT_EQ(std::vector<std::uint8_t>(img.data(),
                                                img.data() + p.storeBytes()),
                      ref.committed.bytes)
                << "get_ratio " << get_ratio;
        }
    }
}

/** Params where the store dwarfs per-batch updates, as in Table 1. */
GpKvsParams
sparseParams()
{
    GpKvsParams p;
    p.n_sets = 1u << 14;  // 2 MiB store
    p.batch_ops = 4096;
    p.batches = 2;
    return p;
}

TEST(GpKvs, WriteAmplificationShapeCapVsGpm)
{
    SimConfig cfg;
    Machine gpm_m(cfg, PlatformKind::Gpm, 64_MiB);
    Machine cap_m(cfg, PlatformKind::CapMm, 64_MiB);
    GpKvsParams p = sparseParams();
    GpKvs a(gpm_m, p), b(cap_m, p);
    const WorkloadResult rg = a.run(), rc = b.run();
    ASSERT_GT(rg.persisted_payload, 0u);
    // CAP persists the whole store per batch; GPM only the updates.
    EXPECT_GT(rc.persisted_payload, 5 * rg.persisted_payload);
}

TEST(GpKvs, GpmFasterThanCap)
{
    SimConfig cfg;
    Machine gpm_m(cfg, PlatformKind::Gpm, 64_MiB);
    Machine capfs_m(cfg, PlatformKind::CapFs, 64_MiB);
    GpKvsParams p = sparseParams();
    GpKvs a(gpm_m, p), b(capfs_m, p);
    EXPECT_LT(a.run().op_ns, b.run().op_ns);
}

TEST(GpKvsStoreCheck, AcceptsTheRunImageAndRejectsEachCorruption)
{
    SimConfig cfg;
    const GpKvsParams p = sparseParams();
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpKvs kvs(m, p);
    ASSERT_TRUE(kvs.run().verified);
    const std::uint64_t off = m.pool().region("gpkvs.data").offset;
    const GpKvs::ExpectedStore want = kvs.expectedStore();
    EXPECT_TRUE(kvs.storeMatches(
        want, m.pool().durableRange(off, p.storeBytes()).data()));
    EXPECT_TRUE(kvs.storeMatches(want, m.pool().visible() + off));

    // The reference holds only the sets a SET touched, so the store
    // has sets outside it: the first and the last one are checked.
    const std::uint64_t n_touched =
        want.ways.size() / GpKvsParams::kWays;
    ASSERT_LT(n_touched, p.n_sets / 2);
    const auto touched = [&](std::uint32_t s) {
        return want.find(s) != nullptr;
    };
    std::uint32_t first_untouched = 0, last_untouched = p.n_sets - 1;
    std::uint32_t some_touched = p.n_sets / 2;
    while (touched(first_untouched))
        ++first_untouched;
    while (touched(last_untouched))
        --last_untouched;
    while (!touched(some_touched))
        ++some_touched;

    const DurableBytes durable = m.pool().durableRange(off, p.storeBytes());
    const std::vector<std::uint8_t> image(durable.data(),
                                          durable.data() + p.storeBytes());
    constexpr std::uint64_t kSetBytes =
        GpKvsParams::kWays * sizeof(KvPair);
    for (const std::uint32_t set :
         {first_untouched, last_untouched, some_touched}) {
        for (const std::uint64_t byte : {std::uint64_t(0), kSetBytes - 1}) {
            std::vector<std::uint8_t> bad = image;
            bad[set * kSetBytes + byte] ^= 0x40;
            EXPECT_FALSE(kvs.storeMatches(want, bad.data()))
                << "set " << set << " byte " << byte;
        }
    }

    // A durable image missing the last batch is rejected, next to a
    // visible image that holds it.
    const CrashReference ref = GpKvs::crashReference(p, p.batches - 1);
    EXPECT_FALSE(kvs.storeMatches(want, ref.pre_crash.bytes.data()));
    EXPECT_TRUE(kvs.storeMatches(want, ref.committed.bytes.data()));
}

TEST(GpKvsStoreCheck, RejectsACapDeviceCopyOneByteOff)
{
    // Under CAP the check compares the device copy with the durable
    // store byte for byte, so one flipped byte in the copy fails it.
    SimConfig cfg;
    const GpKvsParams p = sparseParams();
    Machine m(cfg, PlatformKind::CapFs, 64_MiB);
    GpKvs kvs(m, p);
    ASSERT_TRUE(kvs.run().verified);
    const GpKvs::ExpectedStore want = kvs.expectedStore();
    ASSERT_TRUE(kvs.storesMatch(want));
    for (const std::uint64_t byte : {std::uint64_t(0), p.storeBytes() / 2,
                                     p.storeBytes() - 1}) {
        kvs.deviceCopy()[byte] ^= 0x01;
        EXPECT_FALSE(kvs.storesMatch(want)) << "byte " << byte;
        kvs.deviceCopy()[byte] ^= 0x01;
    }
    EXPECT_TRUE(kvs.storesMatch(want));
}

class GpKvsCrash : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(GpKvsCrash, RecoversToPreBatchState)
{
    const auto [frac_step, seed] = GetParam();
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB,
              static_cast<std::uint64_t>(seed));
    GpKvsParams p = smallParams();
    p.seed = 1000 + static_cast<std::uint64_t>(seed);
    GpKvs kvs(m, p);
    const double frac = 0.1 + 0.2 * frac_step;
    const double survive = (seed % 3) * 0.4;  // 0, 0.4, 0.8
    const WorkloadResult r =
        kvs.runWithCrash(/*crash_batch=*/1, frac, survive);
    EXPECT_TRUE(r.verified)
        << "frac=" << frac << " survive=" << survive;
    EXPECT_GT(r.recovery_ns, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GpKvsCrash,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 6)));

TEST(GpKvsCrashMixed, RecoversWithGetsInTheBatch)
{
    // Regression: a crashed batch containing GETs (the 95:5 config of
    // Table 5) must recover like a pure-SET one.
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB, 13);
    GpKvsParams p = smallParams();
    p.get_ratio = 0.95;
    GpKvs kvs(m, p);
    const WorkloadResult r = kvs.runWithCrash(1, 0.6, 0.4);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.recovery_ns, 0.0);
}

// ---- CrashReference ----------------------------------------------------

/** Durable store image after a clean GPM run of @p batches batches
 *  (none: the zeroed store setup maps). */
std::vector<std::uint8_t>
cleanDurableStore(GpKvsParams p, std::uint32_t batches)
{
    if (batches == 0)
        return std::vector<std::uint8_t>(p.storeBytes(), 0);
    p.batches = batches;
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 16_MiB);
    GpKvs kvs(m, p);
    EXPECT_TRUE(kvs.run().verified);
    const DurableBytes img = m.pool().durableRange(
        m.pool().region("gpkvs.data").offset, p.storeBytes());
    return {img.data(), img.data() + p.storeBytes()};
}

TEST(GpKvsCrashReference, ImagesEqualCleanRunsToAndPastTheCrashBatch)
{
    const GpKvsParams p = smallParams();
    for (std::uint32_t b = 0; b < p.batches; ++b) {
        const CrashReference ref = GpKvs::crashReference(p, b);
        EXPECT_EQ(ref.crash_batch, b);
        EXPECT_EQ(ref.pre_crash.bytes, cleanDurableStore(p, b)) << b;
        EXPECT_EQ(ref.committed.bytes, cleanDurableStore(p, b + 1)) << b;
        EXPECT_EQ(ref.pre_crash.hash,
                  fnv1a(ref.pre_crash.bytes.data(),
                        ref.pre_crash.bytes.size()));
        EXPECT_EQ(ref.committed.hash,
                  fnv1a(ref.committed.bytes.data(),
                        ref.committed.bytes.size()));
    }
    EXPECT_THROW(GpKvs::crashReference(p, p.batches), FatalError);
}

TEST(GpKvsCrashReference, StateHashIsTheDurableStoreFnv)
{
    const GpKvsParams p = smallParams();
    const CrashReference ref = GpKvs::crashReference(p, 1);
    int matched = 0, unmatched = 0;
    for (const CrashGridCell &c :
         crashHashGrid(std::uint64_t(p.batch_ops) * GpKvsParams::kGroup)) {
        SimConfig cfg;
        Machine m(cfg, c.kind, 16_MiB, c.seed);
        GpKvs kvs(m, p);
        const CrashOutcome o = kvs.runCrashPoint(
            ref, c.point, c.survive_prob, c.open_persist_window);
        const std::uint64_t direct = fnv1a(
            m.pool()
                .durableRange(m.pool().region("gpkvs.data").offset,
                              p.storeBytes())
                .data(),
            p.storeBytes());
        EXPECT_EQ(o.state_hash, direct) << c.label;
        const bool is_ref = direct == ref.pre_crash.hash ||
                            direct == ref.committed.hash;
        ++(is_ref ? matched : unmatched);
    }
    // Both kinds occur, so a hash that skipped the comparison fails.
    EXPECT_GT(matched, 0);
    EXPECT_GT(unmatched, 0);
}

} // namespace
} // namespace gpm
