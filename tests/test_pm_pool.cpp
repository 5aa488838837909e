/**
 * @file
 * Unit + property tests for the crash-consistent PM device: region
 * mapping, the visible/durable split per persistence domain, fences,
 * range flushes, partial-eviction crashes, and file backing. A
 * randomized equivalence test holds the extent-only crash restore to a
 * reference pool that resets the whole visible image.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <vector>

#include <unistd.h>

#include "common/rng.hpp"
#include "pmem/pm_pool.hpp"

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
        const std::uint64_t v = 0xabcdef;
        pool.deviceWrite(0, pool.region("data").offset, &v, 8);
        pool.persistOwner(0);
        pool.saveDurable(path);
    }
    PmPool loaded =
        PmPool::loadDurable(path, PersistDomain::McDurable);
    EXPECT_EQ(loaded.capacity(), 8192u);
    const PmRegion data = loaded.region("data");
    EXPECT_EQ(data.size, 512u);
    EXPECT_EQ(loaded.load<std::uint64_t>(data.offset), 0xabcdefu);
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
    EXPECT_EQ(std::memcmp(a.durable(), b.durable(), 4096), 0);
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

/**
 * PmPool's durability semantics written out plainly: the same pending
 * extents, append coalescing and per-line crash roll, but a crash ends
 * with a whole-image visible = durable reset. The randomized test below
 * holds the real pool's extent-only restore to it.
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

TEST(PmPool, ExtentRestoreMatchesWholeImageResetOnRandomStreams)
{
    constexpr std::size_t kCap = 16_KiB;
    constexpr PersistDomain kDomains[] = {PersistDomain::McDurable,
                                          PersistDomain::LlcVolatile,
                                          PersistDomain::LlcDurable};
    constexpr double kSurvive[] = {0.0, 0.5, 1.0};
    std::uint64_t crashes = 0;
    for (std::uint64_t seed = 1; seed <= 48; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Rng ops(seed * 7919);
        const PersistDomain start = kDomains[seed % 3];
        PmPool pool(kCap, start, seed);
        ReferencePool ref(kCap, start, seed);
        // Past writes, so later ones can abut, overlap or re-touch them.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> history{{0, 1}};
        std::uint8_t buf[640];

        for (int step = 0; step < 600; ++step) {
            const std::uint64_t op = ops.below(100);
            if (op < 60) {
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
                const OwnerId who = ops.below(4);
                if (ops.chance(0.3)) {
                    pool.cpuWrite(who, addr, buf, size);
                    ref.write(kCpuOwnerBase | who, addr, buf, size);
                } else {
                    pool.deviceWrite(who, addr, buf, size);
                    ref.write(who, addr, buf, size);
                }
                history.emplace_back(addr, size);
            } else if (op < 72) {
                const OwnerId who =
                    ops.below(4) | (ops.chance(0.3) ? kCpuOwnerBase : 0);
                pool.persistOwner(who);
                ref.persistOwner(who);
            } else if (op < 82) {
                const std::uint64_t lo = ops.below(kCap);
                const std::uint64_t size = ops.between(1, kCap - lo);
                pool.persistRange(lo, size);
                ref.persistRange(lo, lo + size);
            } else if (op < 85) {
                pool.persistAll();
                ref.persistAll();
            } else if (op < 92) {
                const PersistDomain d = kDomains[ops.below(3)];
                pool.setDomain(d);
                ref.domain = d;
            } else {
                const double p = kSurvive[ops.below(3)];
                pool.crash(p);
                ref.crash(p);
                ++crashes;
                ASSERT_EQ(std::memcmp(pool.visible(), ref.visible.data(),
                                      kCap),
                          0)
                    << "visible image diverged at step " << step;
                ASSERT_EQ(std::memcmp(pool.durable(), ref.durable.data(),
                                      kCap),
                          0)
                    << "durable image diverged at step " << step;
                ASSERT_EQ(std::memcmp(pool.visible(), pool.durable(), kCap),
                          0)
                    << "visible != durable after crash at step " << step;
                expectSameStats(pool.stats(), ref.stats);
                EXPECT_EQ(pool.pendingExtents(), 0u);
            }
        }
    }
    EXPECT_GT(crashes, 1000u);
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

} // namespace
} // namespace gpm
