/**
 * @file
 * Unit tests for the pmheap layer: GpmHeap handle encoding, the
 * volatile-alloc / durable-tx split, redo-record round trips, the
 * recover() reconciliation matrix (Commit forward, Intent discard,
 * Intent forced forward), the payload stream and its staging, and
 * GpmMap's put/get/del semantics with an in-flight-record replay. The
 * crash *grid* lives in the pmheap torture invariant; these tests pin
 * the API contract at deterministic single points.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "pmheap/gpm_map.hpp"

namespace gpm {
namespace {

GpmHeapParams
smallHeap()
{
    GpmHeapParams p;
    p.name = "theap";
    p.class_sizes = {16, 32, 64, 128};
    p.slots_per_class = 8;
    p.max_tx_ops = 16;
    p.max_tx_blob = 64;
    return p;
}

struct HeapFixture {
    SimConfig cfg;
    Machine m{cfg, PlatformKind::Gpm, 1_MiB, 42};
    GpmHeap heap;

    explicit HeapFixture(const GpmHeapParams &p = smallHeap())
        : heap(m, p)
    {
        gpmPersistBegin(m);
        heap.setup(true);
    }
};

TEST(GpmHeap, HandleEncodesLengthAndOffset)
{
    const std::uint64_t h = (std::uint64_t(100) << 40) | 0x12345;
    EXPECT_EQ(GpmHeap::lenOf(h), 100u);
    EXPECT_EQ(GpmHeap::offOf(h), 0x12345u);
}

TEST(GpmHeap, GeometryAddsUp)
{
    const GpmHeapParams p = smallHeap();
    EXPECT_EQ(p.slabBytes(), (16u + 32 + 64 + 128) * 8);
    EXPECT_GE(p.poolBytes(),
              p.slabBytes() + p.bitmapBytes() + p.redoBytes());
}

TEST(GpmHeap, AllocPicksSmallestFittingClassAndCancelRestores)
{
    HeapFixture f;
    EXPECT_EQ(f.heap.freeSlotsFor(20), 8u);
    const std::uint64_t h = f.heap.alloc(20);  // -> 32 B class
    EXPECT_EQ(GpmHeap::lenOf(h), 20u);
    EXPECT_EQ(f.heap.freeSlotsFor(20), 7u);
    EXPECT_EQ(f.heap.freeSlotsFor(16), 8u);  // other classes untouched
    f.heap.cancel(h);
    EXPECT_EQ(f.heap.freeSlotsFor(20), 8u);
    // Nothing durable moved: alloc/cancel is purely volatile.
    EXPECT_TRUE(f.heap.durableAllocatedOffsets().empty());
    EXPECT_THROW(f.heap.alloc(0), FatalError);
    EXPECT_THROW(f.heap.alloc(4096), FatalError);  // no such class
}

TEST(GpmHeap, TxCommitPublishesBitmapAndFreeRecycles)
{
    HeapFixture f;
    std::vector<std::uint64_t> allocs = {f.heap.alloc(16),
                                         f.heap.alloc(64)};
    f.heap.txBegin(GpmHeap::TxMode::Commit, 1, allocs, {});
    f.heap.txCommit();
    std::vector<std::uint64_t> want = {GpmHeap::offOf(allocs[0]),
                                       GpmHeap::offOf(allocs[1])};
    std::sort(want.begin(), want.end());
    EXPECT_EQ(f.heap.durableAllocatedOffsets(), want);

    f.heap.txBegin(GpmHeap::TxMode::Commit, 2, {}, allocs);
    f.heap.txCommit();
    EXPECT_TRUE(f.heap.durableAllocatedOffsets().empty());
    EXPECT_EQ(f.heap.freeSlotsFor(16), 8u);
    EXPECT_EQ(f.heap.freeSlotsFor(64), 8u);
}

TEST(GpmHeap, DurableViewsSkipUnfencedBitmapStores)
{
    // The durable oracles read the pool's durable view: an unfenced
    // store over the bitmap is patched out until its owner fences.
    HeapFixture f;
    const std::vector<std::uint64_t> allocs = {f.heap.alloc(32)};
    f.heap.txBegin(GpmHeap::TxMode::Commit, 1, allocs, {});
    f.heap.txCommit();
    const std::vector<std::uint64_t> offsets =
        f.heap.durableAllocatedOffsets();
    const std::uint64_t hash = f.heap.durableBitmapHash();
    ASSERT_EQ(offsets.size(), 1u);

    const PmRegion bitmap = f.m.pool().region("theap.bitmap");
    const std::vector<std::uint8_t> ones(bitmap.size, 0xff);
    f.m.pool().deviceWrite(9, bitmap.offset, ones.data(), ones.size());
    EXPECT_EQ(f.heap.durableAllocatedOffsets(), offsets);
    EXPECT_EQ(f.heap.durableBitmapHash(), hash);

    ASSERT_TRUE(f.m.pool().persistOwner(9));
    EXPECT_EQ(f.heap.durableAllocatedOffsets().size(), 4u * 8);
    EXPECT_NE(f.heap.durableBitmapHash(), hash);
}

TEST(GpmHeap, InFlightRecordRoundTrips)
{
    HeapFixture f;
    GpmHeap::InFlight rec;
    EXPECT_FALSE(f.heap.inFlight(rec));

    const std::vector<std::uint64_t> allocs = {f.heap.alloc(16)};
    const std::vector<std::uint64_t> frees = {};
    const std::uint8_t blob[5] = {1, 2, 3, 4, 5};
    f.heap.txBegin(GpmHeap::TxMode::Commit, 7, allocs, frees, blob, 5);
    ASSERT_TRUE(f.heap.inFlight(rec));
    EXPECT_EQ(rec.mode, GpmHeap::TxMode::Commit);
    EXPECT_EQ(rec.batch_id, 7u);
    EXPECT_EQ(rec.allocs, allocs);
    EXPECT_TRUE(rec.frees.empty());
    EXPECT_EQ(rec.blob, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
    // Only one record may be in flight.
    EXPECT_THROW(
        f.heap.txBegin(GpmHeap::TxMode::Commit, 8, allocs, {}),
        FatalError);
    f.heap.txCommit();
    EXPECT_FALSE(f.heap.inFlight(rec));
}

TEST(GpmHeap, RecoverRollsCommitForward)
{
    HeapFixture f;
    const std::uint64_t h = f.heap.alloc(64);
    f.heap.txBegin(GpmHeap::TxMode::Commit, 1, {h}, {});
    // Power failure between the commit point and txCommit: the record
    // is durable (txBegin persisted it), the bitmap untouched.
    f.m.pool().crash(0.0);
    EXPECT_TRUE(f.heap.durableAllocatedOffsets().empty());
    EXPECT_TRUE(f.heap.recover());
    EXPECT_EQ(f.heap.durableAllocatedOffsets(),
              std::vector<std::uint64_t>{GpmHeap::offOf(h)});
    // Free lists were rebuilt from the bitmap: the slot is taken.
    EXPECT_EQ(f.heap.freeSlotsFor(64), 7u);
    GpmHeap::InFlight rec;
    EXPECT_FALSE(f.heap.inFlight(rec));  // record retired
    EXPECT_FALSE(f.heap.recover());      // idempotent: nothing left
}

TEST(GpmHeap, RecoverDiscardsIntentUnlessClientCommitted)
{
    // Intent records belong to undo-logging clients: by default the
    // crash discards them (the bitmap was never touched)...
    {
        HeapFixture f;
        const std::uint64_t h = f.heap.alloc(64);
        f.heap.txBegin(GpmHeap::TxMode::Intent, 1, {h}, {});
        f.m.pool().crash(0.0);
        EXPECT_TRUE(f.heap.recover());
        EXPECT_TRUE(f.heap.durableAllocatedOffsets().empty());
        EXPECT_EQ(f.heap.freeSlotsFor(64), 8u);
    }
    // ...unless the client's own commit point says the batch went
    // through (GpKvs: txn flag cleared before the crash), in which
    // case apply_intent forces the record forward.
    {
        HeapFixture f;
        const std::uint64_t h = f.heap.alloc(64);
        f.heap.txBegin(GpmHeap::TxMode::Intent, 1, {h}, {});
        f.m.pool().crash(0.0);
        EXPECT_TRUE(f.heap.recover(/*apply_intent=*/true));
        EXPECT_EQ(f.heap.durableAllocatedOffsets(),
                  std::vector<std::uint64_t>{GpmHeap::offOf(h)});
    }
}

TEST(GpmHeap, StagedPayloadHashesMatchTheOracle)
{
    HeapFixture f;
    const std::uint64_t h = f.heap.alloc(100);
    const std::uint64_t seed = 0xfeedu;
    std::uint64_t read_hash = 0;
    KernelDesc k;
    k.name = "stage_payload";
    k.blocks = 1;
    k.block_threads = 1;
    k.phases.push_back([&](ThreadCtx &ctx) {
        f.heap.stagePayload(ctx, h, seed);
        gpmPersist(ctx);
        read_hash = f.heap.readPayloadHash(ctx, h);
    });
    f.m.runKernel(k);
    EXPECT_EQ(read_hash, GpmHeap::payloadHash(seed, 100));
    EXPECT_EQ(f.heap.durablePayloadHash(h),
              GpmHeap::payloadHash(seed, 100));
}

/** The payload stream written out byte by byte, straight from its
 *  definition: word w is fnv1aU64(w, fnv1aU64(seed)). */
std::vector<std::uint8_t>
referencePayload(std::uint64_t seed, std::uint32_t len)
{
    std::vector<std::uint8_t> buf(len);
    for (std::uint32_t at = 0; at < len; at += 8) {
        const std::uint64_t word = fnv1aU64(at / 8, fnv1aU64(seed));
        std::memcpy(buf.data() + at, &word,
                    std::min<std::uint32_t>(8, len - at));
    }
    return buf;
}

TEST(GpmHeap, PayloadStreamMatchesBytewiseReference)
{
    GpmHeapParams p = smallHeap();
    p.class_sizes = {64, 4096};
    p.slots_per_class = 2;
    HeapFixture f(p);

    std::vector<std::uint32_t> lens;
    for (std::uint32_t len = 1; len <= 64; ++len)
        lens.push_back(len);
    Rng rng(0x5eed);
    for (int i = 0; i < 200; ++i)
        lens.push_back(1 + static_cast<std::uint32_t>(rng.below(4096)));

    for (const std::uint32_t len : lens) {
        SCOPED_TRACE(::testing::Message() << "len " << len);
        const std::uint64_t seed = rng.next();
        const std::vector<std::uint8_t> want = referencePayload(seed, len);
        const std::uint64_t want_hash = fnv1a(want.data(), want.size());
        EXPECT_EQ(GpmHeap::payloadHash(seed, len), want_hash);

        const std::uint64_t h = f.heap.alloc(len);
        std::uint64_t read_hash = 0;
        KernelDesc k;
        k.name = "stage_payload";
        k.blocks = 1;
        k.block_threads = 1;
        k.phases.push_back([&](ThreadCtx &ctx) {
            f.heap.stagePayload(ctx, h, seed);
            read_hash = f.heap.readPayloadHash(ctx, h);
        });
        f.m.runKernel(k);
        const std::uint8_t *stored =
            f.m.pool().visible() + f.heap.slotAddr(h);
        EXPECT_TRUE(std::equal(want.begin(), want.end(), stored));
        EXPECT_EQ(read_hash, want_hash);
        f.heap.cancel(h);
    }

    // Past 2^16 words the stream takes the general word path.
    const std::uint32_t long_len = (std::uint32_t(1) << 19) + 13;
    const std::vector<std::uint8_t> want = referencePayload(7, long_len);
    EXPECT_EQ(GpmHeap::payloadHash(7, long_len),
              fnv1a(want.data(), want.size()));
}

GpmMapParams
smallMap()
{
    GpmMapParams p;
    p.name = "tmap";
    p.n_groups = 16;
    p.heap = smallHeap();
    p.heap.name = "tmap";
    p.heap.slots_per_class = 32;
    p.heap.max_tx_blob = 24 * 16;
    return p;
}

struct MapFixture {
    SimConfig cfg;
    Machine m{cfg, PlatformKind::Gpm, 2_MiB, 42};
    GpmMap map;

    MapFixture() : map(m, smallMap())
    {
        gpmPersistBegin(m);
        map.setup(true);
    }
};

TEST(GpmMap, PutGetDeleteRoundTrip)
{
    MapFixture f;
    std::vector<MapOp> ops;
    for (std::uint64_t k = 1; k <= 6; ++k)
        ops.push_back({MapOp::Verb::Put, k, 24, 0x100 + k});
    auto res = f.map.runBatch(ops);
    EXPECT_EQ(res, std::vector<std::uint8_t>(6, 1));

    MapEntry e;
    ASSERT_TRUE(f.map.get(3, e));
    EXPECT_EQ(e.key, 3u);
    EXPECT_EQ(GpmHeap::lenOf(e.handle), 24u);
    EXPECT_EQ(f.map.heap().durablePayloadHash(e.handle),
              GpmHeap::payloadHash(0x103, 24));
    EXPECT_FALSE(f.map.get(99, e));

    // Overwrite swaps the handle; delete releases it.
    res = f.map.runBatch({{MapOp::Verb::Put, 3, 80, 0x999},
                          {MapOp::Verb::Del, 5, 0, 0}});
    EXPECT_EQ(res, (std::vector<std::uint8_t>{1, 1}));
    ASSERT_TRUE(f.map.get(3, e));
    EXPECT_EQ(GpmHeap::lenOf(e.handle), 80u);
    EXPECT_FALSE(f.map.get(5, e));
    // Deleting an absent key is a rejected no-op.
    res = f.map.runBatch({{MapOp::Verb::Del, 5, 0, 0}});
    EXPECT_EQ(res, (std::vector<std::uint8_t>{0}));

    std::vector<std::pair<std::uint64_t, MapOracleValue>> oracle;
    for (std::uint64_t k = 1; k <= 6; ++k) {
        if (k == 5)
            continue;
        oracle.push_back(
            {k, k == 3 ? MapOracleValue{80, 0x999}
                       : MapOracleValue{24, 0x100 + k}});
    }
    EXPECT_TRUE(f.map.durableEqualsOracle(oracle));
}

TEST(GpmMap, PutIntoFullGroupIsRejected)
{
    MapFixture f;
    // Collect 9 distinct keys landing in one directory group.
    std::vector<std::uint64_t> keys;
    const std::uint64_t g0 = f.map.groupOf(1);
    for (std::uint64_t k = 1; keys.size() < 9; ++k)
        if (f.map.groupOf(k) == g0)
            keys.push_back(k);
    std::vector<MapOp> ops;
    for (std::size_t i = 0; i < 8; ++i)
        ops.push_back({MapOp::Verb::Put, keys[i], 16, i});
    EXPECT_EQ(f.map.runBatch(ops), std::vector<std::uint8_t>(8, 1));
    // The ninth way does not exist; the plan rejects, nothing leaks.
    EXPECT_EQ(f.map.runBatch({{MapOp::Verb::Put, keys[8], 16, 9}}),
              (std::vector<std::uint8_t>{0}));
    MapEntry e;
    EXPECT_FALSE(f.map.get(keys[8], e));
}

TEST(GpmMap, RecoverReplaysAnInFlightCommitRecord)
{
    MapFixture f;
    EXPECT_EQ(f.map.runBatch({{MapOp::Verb::Put, 1, 24, 7}}),
              (std::vector<std::uint8_t>{1}));

    // Doom the publication launch after one thread-phase: the redo
    // record is durable (txBegin ran), the directory stores are torn
    // mid-batch, and the power failure wipes everything pending.
    const std::vector<MapOp> doomed = {{MapOp::Verb::Put, 2, 60, 8},
                                       {MapOp::Verb::Put, 3, 16, 9}};
    EXPECT_THROW(f.map.runBatch(doomed, {},
                                CrashPoint::afterThreadPhases(1)),
                 KernelCrashed);
    f.m.pool().crash(0.0);
    EXPECT_TRUE(f.map.recover());

    // Roll-forward semantics: the whole doomed batch is in.
    const std::vector<std::pair<std::uint64_t, MapOracleValue>> oracle =
        {{1, {24, 7}}, {2, {60, 8}}, {3, {16, 9}}};
    EXPECT_TRUE(f.map.durableEqualsOracle(oracle));

    // The rebuilt map keeps serving.
    EXPECT_EQ(f.map.runBatch({{MapOp::Verb::Del, 2, 0, 0}}),
              (std::vector<std::uint8_t>{1}));
    EXPECT_TRUE(f.map.durableEqualsOracle(
        {{1, {24, 7}}, {3, {16, 9}}}));
}

} // namespace
} // namespace gpm
