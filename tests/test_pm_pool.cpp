/**
 * @file
 * Unit + property tests for the crash-consistent PM device: region
 * mapping, the visible/durable split per persistence domain, fences,
 * range flushes, partial-eviction crashes, and file backing. A
 * randomized equivalence test holds the one-image pool, its pre-images
 * and its crash restore to a reference pool that keeps two whole
 * images. The recycling tests hold released pool pages to the
 * fresh-pool contract: every successor reads zero.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "harness/sweep.hpp"
#include "pmem/pm_events.hpp"
#include "pmem/pm_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {
namespace {

TEST(PmPool, RegionMappingAndReopen)
{
    PmPool pool(1_MiB, PersistDomain::McDurable);
    const PmRegion a = pool.map("a", 1000, true);
    const PmRegion b = pool.map("b", 2000, true);
    EXPECT_TRUE(isAligned(a.offset, 256));
    EXPECT_TRUE(isAligned(b.offset, 256));
    EXPECT_GE(b.offset, a.offset + a.size);

    const PmRegion a2 = pool.map("a", 0, false);  // reopen
    EXPECT_EQ(a2.offset, a.offset);
    EXPECT_THROW(pool.map("a", 123, true), FatalError);  // wrong size
    EXPECT_THROW(pool.map("missing", 0, false), FatalError);
    EXPECT_TRUE(pool.hasRegion("a"));
    EXPECT_FALSE(pool.hasRegion("c"));
}

TEST(PmPool, PoolExhaustionIsUserError)
{
    PmPool pool(4096, PersistDomain::McDurable);
    EXPECT_THROW(pool.map("big", 8192, true), FatalError);
}

TEST(PmPool, OutOfRangeAccessIsUserError)
{
    PmPool pool(4096, PersistDomain::McDurable);
    std::uint64_t v = 1;
    EXPECT_THROW(pool.deviceWrite(0, 4090, &v, 8), FatalError);
    EXPECT_THROW(pool.read(4096, &v, 1), FatalError);
}

TEST(PmPool, WritesVisibleImmediatelyButNotDurable)
{
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t v = 0xdeadbeef;
    pool.deviceWrite(1, 0, &v, 8);
    EXPECT_EQ(pool.load<std::uint64_t>(0), v);
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(0), 0u);
    EXPECT_EQ(pool.pendingExtents(), 1u);
}

TEST(PmPool, FencePersistsOnlyOwnersWrites)
{
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t a = 1, b = 2;
    pool.deviceWrite(10, 0, &a, 8);
    pool.deviceWrite(11, 8, &b, 8);
    EXPECT_TRUE(pool.persistOwner(10));
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(0), 1u);
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(8), 0u);
    pool.crash();
    EXPECT_EQ(pool.load<std::uint64_t>(8), 0u);  // b was lost
}

TEST(PmPool, LlcVolatileFenceDoesNotPersist)
{
    PmPool pool(4096, PersistDomain::LlcVolatile);
    const std::uint64_t v = 7;
    pool.deviceWrite(1, 0, &v, 8);
    EXPECT_FALSE(pool.persistOwner(1));  // DDIO trap
    pool.crash();
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(0), 0u);
}

TEST(PmPool, LlcDurableIsDurableOnArrival)
{
    PmPool pool(4096, PersistDomain::LlcDurable);
    const std::uint64_t v = 9;
    pool.deviceWrite(1, 0, &v, 8);
    EXPECT_EQ(pool.pendingExtents(), 0u);
    EXPECT_TRUE(pool.persistOwner(1));
    pool.crash();
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(0), 9u);
}

TEST(PmPool, PersistRangeDrainsAnyOwnerByAddress)
{
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t a = 1, b = 2, c = 3;
    pool.deviceWrite(1, 0, &a, 8);
    pool.deviceWrite(2, 300, &b, 8);
    pool.cpuWrite(3, 600, &c, 8);
    pool.persistRange(0, 128);  // covers a and nothing else
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(0), 1u);
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(600), 0u);
    EXPECT_EQ(pool.pendingExtents(), 2u);
    pool.persistAll();
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(300), 2u);
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(600), 3u);
}

TEST(PmPool, CrashResetsVisibleToDurable)
{
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t a = 1, b = 2;
    pool.deviceWrite(1, 0, &a, 8);
    pool.persistOwner(1);
    pool.deviceWrite(1, 0, &b, 8);  // overwrite, unpersisted
    EXPECT_EQ(pool.load<std::uint64_t>(0), 2u);
    pool.crash();
    EXPECT_EQ(pool.load<std::uint64_t>(0), 1u);
    EXPECT_EQ(pool.pendingExtents(), 0u);
}

class PmPoolEviction : public ::testing::TestWithParam<int>
{
};

TEST_P(PmPoolEviction, PartialSurvivalIsPerExtentAndBounded)
{
    PmPool pool(64_KiB, PersistDomain::McDurable,
                static_cast<std::uint64_t>(GetParam()) + 1);
    const int n = 500;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t v = 0x1000 + i;
        pool.deviceWrite(i, i * 64, &v, 8);
    }
    pool.crash(/*survive_prob=*/0.5);
    int survived = 0;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t d =
            pool.loadDurable<std::uint64_t>(i * 64);
        if (d != 0) {
            EXPECT_EQ(d, 0x1000u + i);  // survivors are intact
            ++survived;
        }
    }
    // Loose binomial bounds around p = 0.5.
    EXPECT_GT(survived, n / 4);
    EXPECT_LT(survived, 3 * n / 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmPoolEviction, ::testing::Range(0, 6));

TEST(PmPool, SurviveProbabilityExtremes)
{
    PmPool lose(4096, PersistDomain::McDurable, 1);
    PmPool keep(4096, PersistDomain::McDurable, 1);
    const std::uint64_t v = 5;
    lose.deviceWrite(0, 0, &v, 8);
    keep.deviceWrite(0, 0, &v, 8);
    lose.crash(0.0);
    keep.crash(1.0);
    EXPECT_EQ(lose.loadDurable<std::uint64_t>(0), 0u);
    EXPECT_EQ(keep.loadDurable<std::uint64_t>(0), 5u);
}

TEST(PmPool, SaveAndLoadDurableRoundTrip)
{
    const char *path = "/tmp/gpm_test_pool.img";
    {
        PmPool pool(8192, PersistDomain::McDurable);
        pool.map("data", 512, true);
        const std::uint64_t v = 0xabcdef, w = 0x5555;
        pool.deviceWrite(0, pool.region("data").offset, &v, 8);
        pool.persistOwner(0);
        // Unfenced at save time: the file holds the line's pre-image.
        pool.deviceWrite(1, pool.region("data").offset, &w, 8);
        pool.deviceWrite(1, pool.region("data").offset + 8, &w, 8);
        pool.saveDurable(path);
    }
    PmPool loaded =
        PmPool::loadDurable(path, PersistDomain::McDurable);
    EXPECT_EQ(loaded.capacity(), 8192u);
    const PmRegion data = loaded.region("data");
    EXPECT_EQ(data.size, 512u);
    EXPECT_EQ(loaded.load<std::uint64_t>(data.offset), 0xabcdefu);
    EXPECT_EQ(loaded.load<std::uint64_t>(data.offset + 8), 0u);
    EXPECT_EQ(loaded.pendingExtents(), 0u);
    // Allocation cursor restored: a new region does not overlap.
    const PmRegion more = loaded.map("more", 256, true);
    EXPECT_GE(more.offset, data.offset + data.size);
    std::remove(path);
}

TEST(PmPool, ContiguousAppendsCoalesceIntoOneExtent)
{
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t v = 1;
    for (std::uint64_t i = 0; i < 16; ++i)
        pool.deviceWrite(0, i * 8, &v, 8);
    // An append stream is one pending extent, not sixteen.
    EXPECT_EQ(pool.pendingExtents(), 1u);
    EXPECT_EQ(pool.pendingBytes(), 128u);
    EXPECT_EQ(pool.stats().extents_merged, 15u);
}

TEST(PmPool, RewritesDoNotDoubleCountPendingBytes)
{
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t v = 2;
    for (int i = 0; i < 10; ++i)
        pool.deviceWrite(0, 64, &v, 8);
    // Rewriting the same word overlaps the owner's last extent; the
    // dirty range stays 8 bytes.
    EXPECT_EQ(pool.pendingExtents(), 1u);
    EXPECT_EQ(pool.pendingBytes(), 8u);

    // Overlapping-but-growing writes track the union of the range.
    pool.deviceWrite(0, 60, &v, 8);   // extends left
    pool.deviceWrite(0, 68, &v, 8);   // extends right
    EXPECT_EQ(pool.pendingExtents(), 1u);
    EXPECT_EQ(pool.pendingBytes(), 16u);
}

TEST(PmPool, OnlyLastExtentIsMergeEligible)
{
    // Touching an *older* extent again does not merge (insertion
    // order — hence crash-time line enumeration — is preserved), so
    // the two extents persist and drain independently.
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t v = 3;
    pool.deviceWrite(0, 0, &v, 8);     // extent A
    pool.deviceWrite(0, 1024, &v, 8);  // extent B (not adjacent)
    pool.deviceWrite(0, 8, &v, 8);     // abuts A, but A is not last
    EXPECT_EQ(pool.pendingExtents(), 3u);
    EXPECT_EQ(pool.pendingBytes(), 24u);
    EXPECT_EQ(pool.stats().extents_merged, 0u);
    EXPECT_TRUE(pool.persistOwner(0));
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(8), 3u);
}

TEST(PmPool, MergedExtentsPersistAndCrashCorrectly)
{
    PmPool a(4096, PersistDomain::McDurable, 11);
    PmPool b(4096, PersistDomain::McDurable, 11);
    // Same bytes, written as one contiguous stream (merges in `a`)
    // vs. strided then back-filled (no merges in `b`).
    std::uint8_t buf[32];
    for (int i = 0; i < 32; ++i)
        buf[i] = static_cast<std::uint8_t>(i + 1);
    for (std::uint64_t i = 0; i < 8; ++i)
        a.deviceWrite(0, i * 32, buf, 32);
    for (std::uint64_t i = 0; i < 8; i += 2)
        b.deviceWrite(0, i * 32, buf, 32);
    for (std::uint64_t i = 1; i < 8; i += 2)
        b.deviceWrite(0, i * 32, buf, 32);
    EXPECT_GT(a.stats().extents_merged, 0u);
    EXPECT_EQ(a.pendingBytes(), b.pendingBytes());
    a.persistOwner(0);
    b.persistOwner(0);
    EXPECT_EQ(std::memcmp(a.durableRange(0, 4096).data(),
                          b.durableRange(0, 4096).data(), 4096),
              0);
}

TEST(PmPool, ExtentCoalescingResetsAcrossCrashAndReopen)
{
    // GpmHeap's recovery path: crash, reopen the heap's regions by
    // name, and append again. The pending-extent machinery must start
    // clean — no stale merge-eligible extent may survive the failure —
    // and a fresh append stream coalesces exactly as the first did.
    PmPool pool(8_KiB, PersistDomain::McDurable, 7);
    const PmRegion slabs = pool.map("heap.slabs", 1024, true);
    std::uint64_t v = 0x11;
    for (std::uint64_t i = 0; i < 16; ++i)
        pool.deviceWrite(0, slabs.offset + i * 8, &v, 8);
    EXPECT_EQ(pool.pendingExtents(), 1u);
    EXPECT_EQ(pool.stats().extents_merged, 15u);

    pool.crash(/*survive_prob=*/0.0);
    EXPECT_EQ(pool.pendingExtents(), 0u);
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(slabs.offset), 0u);

    const PmRegion again = pool.map("heap.slabs", 0, false);
    EXPECT_EQ(again.offset, slabs.offset);
    v = 0x22;
    for (std::uint64_t i = 0; i < 16; ++i)
        pool.deviceWrite(0, again.offset + i * 8, &v, 8);
    EXPECT_EQ(pool.pendingExtents(), 1u);
    EXPECT_EQ(pool.pendingBytes(), 128u);
    EXPECT_EQ(pool.stats().extents_merged, 30u);
    EXPECT_TRUE(pool.persistOwner(0));
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(pool.loadDurable<std::uint64_t>(again.offset + i * 8),
                  0x22u);
}

TEST(PmPool, SubExtentTearingRespectsHeapHeaderBoundaries)
{
    // One contiguous write covers a 128 B heap header plus four slab
    // lines (GpmHeap's host-written redo area has this shape). The
    // merged extent must tear at 128 B line granularity: the header
    // line survives or dies independently of every slab line, and
    // whatever survives is byte-intact — never a half-written line.
    constexpr std::uint64_t kLine = 128;
    constexpr std::uint64_t kLines = 5;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        PmPool pool(8_KiB, PersistDomain::McDurable, seed);
        const PmRegion heap = pool.map("heap", kLines * kLine, true);
        ASSERT_TRUE(isAligned(heap.offset, kLine));
        std::uint8_t img[kLines * kLine];
        for (std::uint64_t i = 0; i < sizeof img; ++i)
            img[i] = static_cast<std::uint8_t>(i % 251 + 1);
        pool.deviceWrite(0, heap.offset, img, sizeof img);
        EXPECT_EQ(pool.pendingExtents(), 1u);

        pool.crash(/*survive_prob=*/0.5);
        EXPECT_EQ(pool.stats().crash_sub_extents, kLines);
        std::uint64_t survived = 0;
        for (std::uint64_t l = 0; l < kLines; ++l) {
            bool any = false, all = true;
            for (std::uint64_t i = 0; i < kLine; ++i) {
                const std::uint8_t d = pool.loadDurable<std::uint8_t>(
                    heap.offset + l * kLine + i);
                if (d == img[l * kLine + i])
                    any = true;
                else
                    all = false;
            }
            EXPECT_EQ(any, all) << "torn inside line " << l
                                << " at seed " << seed;
            survived += all ? 1 : 0;
        }
        EXPECT_EQ(pool.stats().crash_survivors, survived);
    }
}

TEST(PmPool, DomainSwitchMidstream)
{
    PmPool pool(4096, PersistDomain::LlcVolatile);
    const std::uint64_t v = 3;
    pool.deviceWrite(1, 0, &v, 8);
    EXPECT_FALSE(pool.persistOwner(1));
    pool.setDomain(PersistDomain::McDurable);  // gpm_persist_begin
    pool.deviceWrite(1, 8, &v, 8);
    EXPECT_TRUE(pool.persistOwner(1));
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(8), 3u);
    // The pre-switch write was drained by the same fence (it was
    // still pending under this owner).
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(0), 3u);
}

/** One fixed script of stores, fences, a recovery read and a crash.
 *  With @p hint, PmPool::prefetch calls are interleaved: in range,
 *  whole pool, zero size, past the end and wrapping around. */
void
prefetchScript(PmPool &pool, PmEventRecorder &rec, bool hint)
{
    const auto pf = [&](std::uint64_t addr, std::uint64_t bytes) {
        if (hint)
            pool.prefetch(addr, bytes);
    };
    Rng rng(11);
    for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t addr = rng.below(pool.capacity() / 16) * 16;
        pf(addr, 128);
        const std::uint64_t v = rng.next();
        pool.deviceWrite(i % 4, addr, &v, 8);
        if (i % 16 == 15) {
            pf(0, pool.capacity());
            pool.persistOwner(i % 4);
        }
    }
    pf(0, 0);
    pf(pool.capacity() - 8, 64);
    pf(~std::uint64_t(0) - 8, 64);
    rec.recoveryBegin();
    std::uint64_t v = 0;
    pool.read(64, &v, sizeof(v));
    rec.recoveryEnd();
    pool.crash(0.5);
}

/** Two pools that ran equivalent scripts: the same recorded events,
 *  counters, pending extents, visible and durable contents. */
void
expectSamePools(const PmPool &a, const PmEventRecorder &ra,
                const PmPool &b, const PmEventRecorder &rb)
{
    const std::vector<PmEvent> &ea = ra.events();
    const std::vector<PmEvent> &eb = rb.events();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].kind, eb[i].kind) << i;
        EXPECT_EQ(ea[i].domain, eb[i].domain) << i;
        EXPECT_EQ(ea[i].armed, eb[i].armed) << i;
        EXPECT_EQ(ea[i].kernel, eb[i].kernel) << i;
        EXPECT_EQ(ea[i].launch, eb[i].launch) << i;
        EXPECT_EQ(ea[i].phase, eb[i].phase) << i;
        EXPECT_EQ(ea[i].ordinal, eb[i].ordinal) << i;
        EXPECT_EQ(ea[i].owner, eb[i].owner) << i;
        EXPECT_EQ(ea[i].addr, eb[i].addr) << i;
        EXPECT_EQ(ea[i].size, eb[i].size) << i;
        EXPECT_EQ(ea[i].drained, eb[i].drained) << i;
    }
    const PmPoolStats &sa = a.stats(), &sb = b.stats();
    EXPECT_EQ(sa.crashes, sb.crashes);
    EXPECT_EQ(sa.extents_drained, sb.extents_drained);
    EXPECT_EQ(sa.crash_sub_extents, sb.crash_sub_extents);
    EXPECT_EQ(sa.crash_survivors, sb.crash_survivors);
    EXPECT_EQ(sa.extents_merged, sb.extents_merged);
    EXPECT_EQ(a.pendingExtents(), b.pendingExtents());
    EXPECT_EQ(a.pendingBytes(), b.pendingBytes());
    ASSERT_EQ(a.capacity(), b.capacity());
    EXPECT_EQ(std::memcmp(a.visible(), b.visible(), a.capacity()), 0);
    EXPECT_EQ(std::memcmp(a.durableRange(0, a.capacity()).data(),
                          b.durableRange(0, b.capacity()).data(),
                          a.capacity()),
              0);
}

TEST(PmPool, PrefetchIsInert)
{
    constexpr std::size_t cap = 64_KiB;
    PmEventRecorder plain_rec, hinted_rec;  // outlive the pools
    PmPool plain(cap, PersistDomain::McDurable, 5);
    PmPool hinted(cap, PersistDomain::McDurable, 5);
    plain.setRecorder(&plain_rec);
    hinted.setRecorder(&hinted_rec);
    prefetchScript(plain, plain_rec, false);
    prefetchScript(hinted, hinted_rec, true);
    expectSamePools(plain, plain_rec, hinted, hinted_rec);

    // On a fresh pool, degenerate calls neither throw nor write.
    PmPool fresh(cap, PersistDomain::McDurable);
    EXPECT_NO_THROW(fresh.prefetch(0, 0));
    EXPECT_NO_THROW(fresh.prefetch(cap, 1));
    EXPECT_NO_THROW(fresh.prefetch(cap - 8, 64));
    EXPECT_NO_THROW(fresh.prefetch(~std::uint64_t(0), 2));
    EXPECT_EQ(fresh.pendingExtents(), 0u);
    EXPECT_EQ(fresh.stats().extents_drained, 0u);
    const DurableBytes durable = fresh.durableRange(0, cap);
    for (const std::uint8_t *img : {fresh.visible(), durable.data()})
        EXPECT_TRUE(std::all_of(img, img + cap,
                                [](std::uint8_t c) { return c == 0; }));
}

/**
 * Records for a sparse host store of [addr, addr+size): @p buf becomes
 * @p pool's visible bytes with random records of one size rewritten
 * (cpuWritePersist's precondition), and @p offs their offsets. Some
 * draws give only the last record; the others may touch either end.
 */
WrittenRecords
randomRecords(Rng &ops, const PmPool &pool, std::uint64_t addr,
              std::uint64_t size, std::uint8_t *buf,
              std::vector<std::uint64_t> &offs)
{
    std::memcpy(buf, pool.visible() + addr, size);
    const std::uint64_t rb = ops.between(1, 64);
    offs.clear();
    if (ops.chance(0.2) && size >= rb) {
        offs.push_back(size - rb);
    } else {
        for (std::uint64_t off = ops.below(2) ? 0 : ops.below(rb);
             off + rb <= size; off += rb + ops.below(3 * rb))
            offs.push_back(off);
    }
    for (const std::uint64_t off : offs)
        for (std::uint64_t i = 0; i < rb; ++i)
            buf[off + i] = static_cast<std::uint8_t>(ops.next());
    return {offs, rb};
}

/**
 * cpuWritePersist against the cpuWrite + persistRange pair it replaces,
 * on random pools: other owners' pending extents (and the storing
 * owner's own, which the store may merge into) overlap the range, the
 * domain switches between all three, and a recorder is attached. A
 * store is the whole range, or sparse records over a source that
 * equals the visible image elsewhere (the entry point's precondition).
 * Each seed ends in a crash, so the pending logs must match too.
 */
TEST(PmPool, CpuWritePersistMatchesWriteThenPersistRange)
{
    constexpr std::size_t kCap = 16_KiB;
    constexpr PersistDomain kDomains[] = {PersistDomain::McDurable,
                                          PersistDomain::LlcVolatile,
                                          PersistDomain::LlcDurable};
    std::uint64_t sparse_stores = 0, whole_stores = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Rng ops(seed * 104729);
        PmEventRecorder pair_rec, one_rec;  // outlive the pools
        PmPool pair(kCap, kDomains[seed % 3], seed);
        PmPool one(kCap, kDomains[seed % 3], seed);
        pair.setRecorder(&pair_rec);
        one.setRecorder(&one_rec);
        std::vector<std::uint8_t> buf(2048);
        for (std::uint64_t step = 0; step < 300; ++step) {
            const std::uint64_t op = ops.below(100);
            const OwnerId who = ops.below(4);
            const std::uint64_t addr = ops.below(kCap - 1);
            const std::uint64_t size =
                ops.between(1, std::min<std::uint64_t>(buf.size(),
                                                       kCap - addr));
            for (std::uint64_t i = 0; i < size; ++i)
                buf[i] = static_cast<std::uint8_t>(ops.next());
            if (op < 45) {
                // Pending stores for the flushes to drain.
                if (ops.chance(0.5)) {
                    pair.cpuWrite(who, addr, buf.data(), size);
                    one.cpuWrite(who, addr, buf.data(), size);
                } else {
                    pair.deviceWrite(who, addr, buf.data(), size);
                    one.deviceWrite(who, addr, buf.data(), size);
                }
            } else if (op < 52) {
                pair.persistOwner(who);
                one.persistOwner(who);
            } else if (op < 56) {
                const PersistDomain d = kDomains[ops.below(3)];
                pair.setDomain(d);
                one.setDomain(d);
            } else if (op < 70) {
                pair.cpuWrite(who, addr, buf.data(), size);
                pair.persistRange(addr, size);
                one.cpuWritePersist(who, addr, buf.data(), size);
                ++whole_stores;
            } else {
                std::vector<std::uint64_t> offs;
                const WrittenRecords written =
                    randomRecords(ops, one, addr, size, buf.data(), offs);
                pair.cpuWrite(who, addr, buf.data(), size);
                pair.persistRange(addr, size);
                one.cpuWritePersist(who, addr, buf.data(), size, &written);
                ++sparse_stores;
            }
            if (::testing::Test::HasFailure())
                return;
        }
        expectSamePools(pair, pair_rec, one, one_rec);
        pair.crash(0.5);
        one.crash(0.5);
        expectSamePools(pair, pair_rec, one, one_rec);
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_GT(whole_stores, 1000u);
    EXPECT_GT(sparse_stores, 5000u);
}

TEST(PmPool, CpuWritePersistRefusesRecordsOutsideTheRange)
{
    PmPool pool(64_KiB, PersistDomain::McDurable);
    std::uint8_t buf[256] = {};
    const auto store = [&](std::vector<std::uint64_t> offs,
                           std::uint64_t rb) {
        const WrittenRecords written{offs, rb};
        pool.cpuWritePersist(0, 1024, buf, sizeof buf, &written);
    };
    EXPECT_NO_THROW(store({0, 240}, 16));
    EXPECT_THROW(store({248}, 16), FatalError);   // runs past the end
    EXPECT_THROW(store({256}, 16), FatalError);   // starts at the end
    EXPECT_THROW(store({~std::uint64_t(0) - 7}, 16), FatalError);
    EXPECT_THROW(store({32, 16}, 16), FatalError);  // descending
    EXPECT_THROW(store({0, 8}, 16), FatalError);    // overlapping
    EXPECT_THROW(store({0}, 0), FatalError);        // empty records
    EXPECT_EQ(pool.pendingExtents(), 0u);
}

/**
 * PmPool's durability semantics written out plainly: two whole images,
 * visible and durable, the same pending extents, append coalescing and
 * per-line crash roll, and a crash that ends with a whole-image
 * visible = durable reset. The randomized test below holds the real
 * pool's one image, its pre-images and its restore to it.
 */
class ReferencePool
{
  public:
    ReferencePool(std::size_t cap, PersistDomain d, std::uint64_t seed)
        : visible(cap, 0), durable(cap, 0), domain(d), rng(seed)
    {
    }

    void
    write(OwnerId owner, std::uint64_t addr, const std::uint8_t *src,
          std::uint64_t size)
    {
        std::memcpy(visible.data() + addr, src, size);
        if (domain == PersistDomain::LlcDurable) {
            std::memcpy(durable.data() + addr, src, size);
            return;
        }
        std::vector<Extent> &pend = pending[owner];
        if (!pend.empty() && addr <= pend.back().addr + pend.back().size &&
            addr + size >= pend.back().addr) {
            Extent &last = pend.back();
            const std::uint64_t hi =
                std::max(last.addr + last.size, addr + size);
            last.addr = std::min(last.addr, addr);
            last.size = hi - last.addr;
            ++stats.extents_merged;
            return;
        }
        pend.push_back({addr, size});
    }

    void
    persistOwner(OwnerId owner)
    {
        if (domain != PersistDomain::McDurable || !pending.count(owner))
            return;
        for (const Extent &e : pending[owner])
            drain(e);
        pending.erase(owner);
    }

    void
    persistRange(std::uint64_t lo, std::uint64_t hi)
    {
        for (auto &[owner, extents] : pending) {
            std::vector<Extent> kept;
            for (const Extent &e : extents) {
                if (e.addr < hi && e.addr + e.size > lo)
                    drain(e);
                else
                    kept.push_back(e);
            }
            extents = kept;
        }
        std::erase_if(pending,
                      [](const auto &kv) { return kv.second.empty(); });
    }

    void
    persistAll()
    {
        for (const auto &[owner, extents] : pending)
            for (const Extent &e : extents)
                drain(e);
        pending.clear();
    }

    void
    crash(double survive_prob)
    {
        ++stats.crashes;
        if (domain == PersistDomain::LlcDurable)
            persistAll();
        const std::uint64_t line = PmPool::kCrashLineBytes;
        for (const auto &[owner, extents] : pending) {
            for (const Extent &e : extents) {
                const std::uint64_t end = e.addr + e.size;
                for (std::uint64_t lo = alignDown(e.addr, line); lo < end;
                     lo += line) {
                    const std::uint64_t a = std::max(lo, e.addr);
                    ++stats.crash_sub_extents;
                    if (survive_prob > 0.0 && rng.chance(survive_prob)) {
                        drain({a, std::min(lo + line, end) - a});
                        ++stats.crash_survivors;
                    }
                }
            }
        }
        pending.clear();
        visible = durable;
    }

    struct Extent {
        std::uint64_t addr;
        std::uint64_t size;
    };

    void
    drain(const Extent &e)
    {
        std::memcpy(durable.data() + e.addr, visible.data() + e.addr,
                    e.size);
        ++stats.extents_drained;
    }

    std::vector<std::uint8_t> visible, durable;
    std::map<OwnerId, std::vector<Extent>> pending;
    PersistDomain domain;
    Rng rng;
    PmPoolStats stats;
};

void
expectSameStats(const PmPoolStats &a, const PmPoolStats &b)
{
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_EQ(a.extents_drained, b.extents_drained);
    EXPECT_EQ(a.crash_sub_extents, b.crash_sub_extents);
    EXPECT_EQ(a.crash_survivors, b.crash_survivors);
    EXPECT_EQ(a.extents_merged, b.extents_merged);
}

/** How a random stream draws owners and operations. */
struct StreamMix {
    std::uint64_t owners;  ///< owner ids drawn from [0, owners)
    std::uint64_t steps;   ///< operations per seed
    // Cumulative per-mille thresholds: write, persistOwner,
    // persistRange, persistAll, setDomain; the rest crash.
    std::uint64_t write, owner, range, all, domain;
    std::uint64_t max_range;  ///< widest persistRange
    /// Per-mille of writes that are cpuWritePersist, half of them in
    /// records; the rest are pending device and CPU stores.
    std::uint64_t host_persists;
};

/** @p pool's visible and durable contents equal @p ref's images. */
::testing::AssertionResult
sameContents(const PmPool &pool, const ReferencePool &ref)
{
    const std::size_t cap = pool.capacity();
    if (std::memcmp(pool.visible(), ref.visible.data(), cap) != 0)
        return ::testing::AssertionFailure() << "visible image diverged";
    if (std::memcmp(pool.durableRange(0, cap).data(), ref.durable.data(),
                    cap) != 0)
        return ::testing::AssertionFailure() << "durable image diverged";
    return ::testing::AssertionSuccess();
}

/**
 * Drive a PmPool and the ReferencePool with one random stream per
 * seed. Both contents are compared after every step, the stats after
 * each crash. Writes are pending device and CPU stores plus
 * cpuWritePersist, whole or in records. Returns {crashes, most extents
 * ever pending at once}.
 */
std::pair<std::uint64_t, std::size_t>
compareRandomStreams(const StreamMix &mix, std::uint64_t seeds)
{
    constexpr std::size_t kCap = 16_KiB;
    constexpr PersistDomain kDomains[] = {PersistDomain::McDurable,
                                          PersistDomain::LlcVolatile,
                                          PersistDomain::LlcDurable};
    constexpr double kSurvive[] = {0.0, 0.5, 1.0};
    std::uint64_t crashes = 0;
    std::size_t peak_pending = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Rng ops(seed * 7919);
        const PersistDomain start = kDomains[seed % 3];
        PmPool pool(kCap, start, seed);
        ReferencePool ref(kCap, start, seed);
        // Past writes, so later ones can abut, overlap or re-touch them.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> history{{0, 1}};
        std::uint8_t buf[640];

        for (std::uint64_t step = 0; step < mix.steps; ++step) {
            const std::uint64_t op = ops.below(1000);
            if (op < mix.write) {
                const auto [pa, ps] = history.back();
                const auto [oa, os] = history[ops.below(history.size())];
                std::uint64_t addr;
                switch (ops.below(4)) {
                  case 0:  // abut the previous write
                    addr = pa + ps;
                    break;
                  case 1:  // overlap it
                    addr = pa + ops.below(ps);
                    break;
                  case 2:  // re-touch any earlier write
                    addr = oa + ops.below(os);
                    break;
                  default:
                    addr = ops.below(kCap);
                    break;
                }
                addr = std::min<std::uint64_t>(addr, kCap - 1);
                const std::uint64_t size =
                    std::min<std::uint64_t>(ops.between(1, sizeof buf),
                                            kCap - addr);
                for (std::uint64_t i = 0; i < size; ++i)
                    buf[i] = static_cast<std::uint8_t>(ops.next());
                const OwnerId who = ops.below(mix.owners);
                const std::uint64_t kind = ops.below(1000);
                if (kind < mix.host_persists) {
                    std::vector<std::uint64_t> offs;
                    const WrittenRecords written =
                        randomRecords(ops, pool, addr, size, buf, offs);
                    pool.cpuWritePersist(who, addr, buf, size,
                                         kind % 2 ? &written : nullptr);
                    ref.write(kCpuOwnerBase | who, addr, buf, size);
                    ref.persistRange(addr, addr + size);
                } else if (ops.chance(0.3)) {
                    pool.cpuWrite(who, addr, buf, size);
                    ref.write(kCpuOwnerBase | who, addr, buf, size);
                } else {
                    pool.deviceWrite(who, addr, buf, size);
                    ref.write(who, addr, buf, size);
                }
                history.emplace_back(addr, size);
                peak_pending = std::max(peak_pending, pool.pendingExtents());
            } else if (op < mix.owner) {
                const OwnerId who = ops.below(mix.owners) |
                                    (ops.chance(0.3) ? kCpuOwnerBase : 0);
                pool.persistOwner(who);
                ref.persistOwner(who);
            } else if (op < mix.range) {
                const std::uint64_t lo = ops.below(kCap);
                const std::uint64_t size =
                    ops.between(1, std::min(mix.max_range, kCap - lo));
                pool.persistRange(lo, size);
                ref.persistRange(lo, lo + size);
            } else if (op < mix.all) {
                pool.persistAll();
                ref.persistAll();
            } else if (op < mix.domain) {
                const PersistDomain d = kDomains[ops.below(3)];
                pool.setDomain(d);
                ref.domain = d;
            } else {
                const double p = kSurvive[ops.below(3)];
                pool.crash(p);
                ref.crash(p);
                ++crashes;
                EXPECT_EQ(std::memcmp(pool.visible(),
                                      pool.durableRange(0, kCap).data(),
                                      kCap),
                          0)
                    << "visible != durable after crash at step " << step;
                expectSameStats(pool.stats(), ref.stats);
                EXPECT_EQ(pool.pendingExtents(), 0u);
            }
            EXPECT_TRUE(sameContents(pool, ref)) << "at step " << step;
            if (::testing::Test::HasFailure())
                return {crashes, peak_pending};
        }
    }
    return {crashes, peak_pending};
}

TEST(PmPool, ExtentRestoreMatchesWholeImageResetOnRandomStreams)
{
    // Few owners, frequent persists and crashes.
    const auto [crashes, peak] = compareRandomStreams(
        StreamMix{4, 600, 600, 720, 820, 850, 920, 16_KiB, 200}, 48);
    EXPECT_GT(crashes, 1000u);

    // Hundreds of GPU owners and CPU-tagged owners interleaved in
    // random, non-ascending order, with rare crashes and narrow
    // flushes, so hundreds of extents pend at once: the owner table
    // grows and rehashes, the log compacts, and a crash must still
    // roll owner-ascending, then in insertion order.
    const auto [wide_crashes, wide_peak] = compareRandomStreams(
        StreamMix{400, 4000, 880, 940, 970, 972, 997, 512, 20}, 24);
    EXPECT_GT(wide_crashes, 100u);
    EXPECT_GT(wide_peak, 200u);
}

TEST(PmPool, OverlappingOwnersTearLineByLineLikeTheReference)
{
    // Owner 1 writes [0, 200) and owner 2 the overlapping [100, 300);
    // line 1, [128, 256), holds both. Owner 1's part of the line,
    // [128, 200), can survive (it is evicted as it is visible, with
    // owner 2's bytes) while owner 2's is lost, so [200, 256) reverts.
    // With a fence, owner 1's extent drains into the pre-images while
    // owner 2's overlapping one stays pending.
    std::vector<std::uint8_t> a(200, 0xa1), b(200, 0xb2);
    int kept_beside_lost = 0;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        const bool fence = seed % 2 == 0;
        PmPool pool(4096, PersistDomain::McDurable, seed);
        ReferencePool ref(4096, PersistDomain::McDurable, seed);
        pool.deviceWrite(1, 0, a.data(), a.size());
        ref.write(1, 0, a.data(), a.size());
        pool.deviceWrite(2, 100, b.data(), b.size());
        ref.write(2, 100, b.data(), b.size());
        if (fence) {
            pool.persistOwner(1);
            ref.persistOwner(1);
            EXPECT_EQ(pool.loadDurable<std::uint8_t>(150), 0xb2);
            EXPECT_EQ(pool.loadDurable<std::uint8_t>(220), 0);
        }
        ASSERT_TRUE(sameContents(pool, ref));
        pool.crash(0.5);
        ref.crash(0.5);
        ASSERT_TRUE(sameContents(pool, ref));
        expectSameStats(pool.stats(), ref.stats);
        kept_beside_lost += pool.load<std::uint8_t>(150) == 0xb2 &&
                            pool.load<std::uint8_t>(220) == 0;
    }
    EXPECT_GT(kept_beside_lost, 8);
}

std::uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    EXPECT_TRUE(statm.good()) << "cannot read /proc/self/statm";
    return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(PmPool, CrashFootprintTracksDirtyBytesNotCapacity)
{
    // A pool costs the pages it dirtied: construction maps nothing in,
    // and a crash restores only the pending extents rather than
    // rewriting every page of the visible image.
    const std::uint64_t before = residentBytes();
    PmPool pool(1_GiB, PersistDomain::McDurable, 3);
    std::uint8_t buf[1024];
    std::memset(buf, 0x5a, sizeof buf);
    const std::uint64_t spots[] = {0, 256_MiB + 100, 700_MiB, 1_GiB - 1024};
    for (int i = 0; i < 100; ++i) {
        for (const std::uint64_t addr : spots)
            pool.deviceWrite(i % 3, addr, buf, sizeof buf);
        pool.crash(i % 2 ? 0.5 : 0.0);
    }
    EXPECT_LT(residentBytes(), before + 32_MiB);
}

// ---- page recycling ---------------------------------------------------
//
// A released pool's mapping goes to the next pool of the same capacity,
// so each test below uses a capacity no other test uses: it then only
// ever inherits mappings it released itself.

constexpr std::uint64_t kPage = RecycledImage::kPageBytes;

/** Resident host pages of [p, p + n), by mincore. */
std::uint64_t
residentPages(const std::uint8_t *p, std::size_t n)
{
    const std::size_t host_page = ::sysconf(_SC_PAGESIZE);
    std::vector<unsigned char> vec((n + host_page - 1) / host_page);
    EXPECT_EQ(::mincore(const_cast<std::uint8_t *>(p), n, vec.data()), 0);
    std::uint64_t pages = 0;
    for (const unsigned char v : vec)
        pages += v & 1;
    return pages;
}

std::uint64_t
residentPages(const PmPool &pool)
{
    return residentPages(pool.visible(), pool.capacity());
}

/** Index of the first non-zero byte of the visible or the durable
 *  contents, or -1. */
long long
firstNonZero(const PmPool &pool)
{
    const DurableBytes durable = pool.durableRange(0, pool.capacity());
    for (const std::uint8_t *img : {pool.visible(), durable.data()}) {
        for (std::size_t i = 0; i < pool.capacity(); ++i) {
            if (img[i] != 0)
                return static_cast<long long>(i);
        }
    }
    return -1;
}

/** The layout every recycling test creates, in this order. */
void
mapLayout(PmPool &pool)
{
    pool.map("meta", 4_KiB, true);
    pool.map("data", 512_KiB, true);
}

/**
 * Dirty pages of @p pool through every way bytes enter the image, each
 * on pages of its own so that a path that forgot to mark its pages
 * leaves them non-zero for the successor.
 */
void
dirtyThroughEveryPath(PmPool &pool)
{
    const std::uint64_t base = pool.region("data").offset;
    std::vector<std::uint8_t> buf(3 * kPage, 0xa5);
    auto at = [&](int slot) { return base + slot * 4 * kPage + 100; };

    // A pending device write, then a fence (McDurable drains it).
    pool.deviceWrite(1, at(0), buf.data(), buf.size());
    EXPECT_TRUE(pool.persistOwner(1));
    // A CPU store plus a range flush.
    pool.cpuWrite(2, at(1), buf.data(), buf.size());
    pool.persistRange(at(1), buf.size());
    // eADR: the store is durable on arrival.
    pool.setDomain(PersistDomain::LlcDurable);
    pool.deviceWrite(3, at(2), buf.data(), buf.size());
    pool.setDomain(PersistDomain::McDurable);
    // Crashes that lose and that keep every pending line.
    pool.deviceWrite(4, at(3), buf.data(), buf.size());
    pool.crash(0.0);
    pool.deviceWrite(5, at(4), buf.data(), buf.size());
    pool.crash(1.0);
    // An orderly shutdown drain.
    pool.deviceWrite(6, at(5), buf.data(), buf.size());
    pool.persistAll();
    // A store still pending at release (visible only).
    pool.deviceWrite(7, at(6), buf.data(), buf.size());
    pool.cpuWrite(8, pool.region("meta").offset, buf.data(), 64);
}

TEST(PmPoolRecycling, SuccessorReadsZeroAfterEveryWritePath)
{
    constexpr std::size_t cap = 2_MiB + 1 * kPage;
    // Round 0 is a fresh mapping; every later round inherits the
    // pages all earlier rounds wrote.
    for (int round = 0; round < 4; ++round) {
        PmPool pool(cap, PersistDomain::McDurable, round + 1);
        EXPECT_EQ(firstNonZero(pool), -1) << "round " << round;
        mapLayout(pool);
        dirtyThroughEveryPath(pool);
    }
    PmPool next(cap, PersistDomain::McDurable);
    EXPECT_GT(residentPages(next), 0u) << "no pages were kept";
    EXPECT_EQ(firstNonZero(next), -1);
}

TEST(PmPoolRecycling, SuccessorReadsZeroAfterDivergentLayout)
{
    constexpr std::size_t cap = 2_MiB + 2 * kPage;
    for (int round = 0; round < 3; ++round) {
        PmPool pool(cap, PersistDomain::McDurable, round + 1);
        EXPECT_EQ(firstNonZero(pool), -1) << "round " << round;
        // Every round departs from the last one's layout.
        pool.map("pad" + std::to_string(round), 256 * (round + 1), true);
        mapLayout(pool);
        dirtyThroughEveryPath(pool);
    }
    PmPool next(cap, PersistDomain::McDurable);
    EXPECT_EQ(firstNonZero(next), -1);
}

TEST(PmPoolRecycling, SuccessorReadsZeroAfterLoadDurable)
{
    constexpr std::size_t cap = 2_MiB + 3 * kPage;
    const std::string path =
        ::testing::TempDir() + "gpm_recycle_load.img";
    {
        PmPool pool(cap, PersistDomain::McDurable);
        mapLayout(pool);
        std::vector<std::uint8_t> ones(cap - 8 * kPage, 0x5a);
        pool.cpuWrite(0, 8 * kPage, ones.data(), ones.size());
        pool.persistAll();
        pool.saveDurable(path);
    }
    // Two loads: the second inherits the first one's mapping.
    for (int round = 0; round < 2; ++round) {
        PmPool loaded =
            PmPool::loadDurable(path, PersistDomain::McDurable);
        EXPECT_EQ(loaded.load<std::uint8_t>(cap - 1), 0x5a);
    }
    std::remove(path.c_str());
    PmPool next(cap, PersistDomain::McDurable);
    EXPECT_EQ(firstNonZero(next), -1);
}

TEST(PmPoolRecycling, SuccessorWithAnotherLayoutInheritsEveryPage)
{
    constexpr std::size_t cap = 2_MiB + 4 * kPage;
    {
        telemetry::ScopedSession session;
        {
            PmPool pool(cap, PersistDomain::McDurable);
            mapLayout(pool);
            const std::vector<std::uint8_t> buf(64 * kPage, 0x11);
            pool.deviceWrite(0, pool.region("data").offset, buf.data(),
                             buf.size());
            pool.persistOwner(0);
        }
        // Counters count pool pages. (pool.pages_dropped is not
        // checked: a release may evict an idle mapping another test
        // left.)
        EXPECT_EQ(session->metrics.snapshot().counter("pool.pages_kept"),
                  64u);
    }

    telemetry::ScopedSession session;
    {
        PmPool pool(cap, PersistDomain::McDurable);
        // No region of this layout matches the previous owner's.
        const PmRegion other = pool.map("other", 1_MiB, true);
        EXPECT_EQ(residentPages(pool), 64u);
        // Reading maps every page, so residency is checked first.
        EXPECT_EQ(firstNonZero(pool), -1);
        // One store on a page the previous owner never wrote.
        const std::uint64_t v = 0x1234;
        pool.deviceWrite(0, other.offset + 512_KiB, &v, sizeof v);
        EXPECT_EQ(pool.load<std::uint64_t>(other.offset + 512_KiB), v);
    }
    EXPECT_EQ(session->metrics.snapshot().counter("pool.pages_kept"),
              65u);
    PmPool next(cap, PersistDomain::McDurable);
    EXPECT_EQ(firstNonZero(next), -1);
}

TEST(PmPoolRecycling, IdenticalLayoutKeepsPagesResident)
{
    constexpr std::size_t cap = 2_MiB + 5 * kPage;
    const std::vector<std::uint8_t> buf(16 * kPage, 0x22);
    for (int round = 0; round < 3; ++round) {
        telemetry::ScopedSession session;
        {
            PmPool pool(cap, PersistDomain::McDurable);
            mapLayout(pool);
            pool.deviceWrite(0, pool.region("data").offset, buf.data(),
                             buf.size());
            pool.persistOwner(0);
        }
        // Every round rewrites the same pages, so the mapping's
        // resident set stays at the first round's 16 pool pages.
        EXPECT_EQ(session->metrics.snapshot().counter("pool.pages_kept"),
                  16u)
            << "round " << round;
    }
    PmPool next(cap, PersistDomain::McDurable);
    EXPECT_EQ(residentPages(next), 16u);
    EXPECT_EQ(firstNonZero(next), -1);
}

TEST(PmPoolRecycling, MovedFromPoolRecyclesNothing)
{
    constexpr std::size_t cap = 2_MiB + 6 * kPage;
    {
        PmPool a(cap, PersistDomain::McDurable);
        a.map("meta", 4_KiB, true);
        const std::uint64_t v = 7;
        a.deviceWrite(0, 0, &v, sizeof v);
        PmPool b(std::move(a));
        EXPECT_EQ(b.load<std::uint64_t>(0), v);
    }
    // Had the moved-from pool released the mapping too, the free list
    // would now hand the same images to two live pools.
    PmPool c(cap, PersistDomain::McDurable);
    PmPool d(cap, PersistDomain::McDurable);
    EXPECT_NE(c.visible(), d.visible());
    EXPECT_EQ(firstNonZero(c), -1);
}

TEST(PmPoolRecycling, SingleImageSuccessorReadsZero)
{
    // A bare image (CAP's device copy of a store) recycles through the
    // pools' free list, by size.
    constexpr std::size_t size = 2_MiB + 9 * kPage;
    const std::uint8_t *first = nullptr;
    {
        RecycledImage a(size);
        first = a.data();
        std::memset(a.data() + 3 * kPage + 7, 0x6c, 5 * kPage);
        a.markDirty(3 * kPage + 7, 5 * kPage);
        a.data()[size - 1] = 0x6d;
        a.markDirty(size - 1, 1);
    }
    {
        RecycledImage b(size);
        ASSERT_EQ(b.data(), first) << "the buffer was not recycled";
        // Pages 3..8 and the last one, checked before reading maps
        // every page.
        EXPECT_EQ(residentPages(b.data(), size), 7u);
        EXPECT_EQ(std::find_if(b.data(), b.data() + size,
                               [](std::uint8_t v) { return v != 0; }) -
                      b.data(),
                  static_cast<std::ptrdiff_t>(size));
    }
    // A pool of the same byte size takes the idle mapping over, and
    // reads zero.
    PmPool pool(size, PersistDomain::McDurable);
    EXPECT_EQ(pool.visible(), first);
    EXPECT_EQ(firstNonZero(pool), -1);
}

TEST(PmPoolRecycling, ConcurrentSweepWorkersBuildAndDropPools)
{
    // The free list is shared by every sweep worker: pools built and
    // dropped on four lanes at once must still start all-zero.
    constexpr std::size_t caps[] = {1_MiB + 7 * kPage, 1_MiB + 8 * kPage};
    SweepOptions opt;
    opt.workers = 4;
    const std::vector<long long> first_nonzero = sweep(
        64,
        [&](SweepLane &, std::size_t i) {
            PmPool pool(caps[i % 2], PersistDomain::McDurable, i + 1);
            const long long nz = firstNonZero(pool);
            if (i % 3 != 0)
                mapLayout(pool);
            else
                pool.map("odd", 8_KiB, true);
            const std::vector<std::uint8_t> buf(4 * kPage, 0x33);
            pool.deviceWrite(i, 4 * kPage * (i % 8), buf.data(),
                             buf.size());
            if (i % 2)
                pool.crash(0.5);
            return nz;
        },
        opt);
    for (std::size_t i = 0; i < first_nonzero.size(); ++i)
        EXPECT_EQ(first_nonzero[i], -1) << "item " << i;
}

} // namespace
} // namespace gpm
