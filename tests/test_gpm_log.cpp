/**
 * @file
 * Unit + property tests for libGPM logging: HCL geometry (Figures 4
 * and 5), lock-free per-thread offsets, striping, the tail sentinel's
 * failure atomicity, the conventional partitioned log, and its
 * serialization accounting.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "gpm/gpm_log.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "pmem/pm_events.hpp"

namespace gpm {
namespace {

struct Entry24 {
    std::uint64_t a = 0, b = 0, c = 0;
};

TEST(GpmLogHcl, StripeAddressingMatchesFigure5)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpmLog log = GpmLog::createHcl(m, "log", 12, 4, 2, 64);

    // Lane l, chunk k: stripes are 128 B apart, lanes 4 B apart.
    const std::uint64_t base = log.chunkAddr(0, 0, 0);
    EXPECT_EQ(log.chunkAddr(1, 0, 0), base + 4);     // next lane
    EXPECT_EQ(log.chunkAddr(0, 0, 1), base + 128);   // next stripe
    EXPECT_EQ(log.chunkAddr(0, 1, 0), base + 3 * 128);  // next row
    // Thread 32 is warp 1 of block 0: its own warp region.
    EXPECT_EQ(log.chunkAddr(32, 0, 0), base + 4 * 3 * 128);
    // Thread 64 is block 1: after block 0's two warp regions.
    EXPECT_EQ(log.chunkAddr(64, 0, 0), base + 2 * 4 * 3 * 128);
}

class HclGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(HclGeometry, ChunkAddressesAreUniqueAndInBounds)
{
    const auto [blocks, tpb, entry_bytes, rows] = GetParam();
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 256_MiB);
    GpmLog log = GpmLog::createHcl(
        m, "log", static_cast<std::uint32_t>(entry_bytes),
        static_cast<std::uint32_t>(rows),
        static_cast<std::uint32_t>(blocks),
        static_cast<std::uint32_t>(tpb));

    const std::uint32_t chunks =
        static_cast<std::uint32_t>(alignUp(entry_bytes, 4)) / 4;
    std::set<std::uint64_t> seen;
    const std::uint64_t lo = log.region().offset;
    const std::uint64_t hi = lo + log.region().size;
    for (std::uint64_t t = 0;
         t < std::uint64_t(blocks) * tpb; ++t) {
        for (int r = 0; r < rows; ++r) {
            for (std::uint32_t k = 0; k < chunks; ++k) {
                const std::uint64_t addr = log.chunkAddr(
                    t, static_cast<std::uint32_t>(r), k);
                EXPECT_TRUE(seen.insert(addr).second)
                    << "duplicate offset for t=" << t;
                ASSERT_GE(addr, lo + 256);
                ASSERT_LT(addr + 4, hi);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HclGeometry,
    ::testing::Values(std::make_tuple(1, 32, 4, 1),
                      std::make_tuple(2, 64, 12, 3),
                      std::make_tuple(3, 96, 24, 2),
                      std::make_tuple(2, 48, 7, 2),   // padded entry
                      std::make_tuple(4, 256, 60, 1)));

TEST(GpmLogHcl, InsertReadRemoveRoundTrip)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    gpmPersistBegin(m);
    GpmLog log = GpmLog::createHcl(m, "log", sizeof(Entry24), 3, 2,
                                   64);

    KernelDesc k;
    k.name = "insert";
    k.blocks = 2;
    k.block_threads = 64;
    k.phases.push_back([&](ThreadCtx &ctx) {
        Entry24 e{ctx.globalId(), ~ctx.globalId(), 42};
        log.insert(ctx, &e, sizeof(e));
        e.c = 43;
        log.insert(ctx, &e, sizeof(e));
    });
    m.runKernel(k);
    EXPECT_EQ(log.entryCount(), 256u);
    EXPECT_EQ(log.tailOf(5), 2u);

    // Host-side inspection de-stripes correctly.
    Entry24 got;
    log.readEntryHost(77, 1, &got, sizeof(got));
    EXPECT_EQ(got.a, 77u);
    EXPECT_EQ(got.c, 43u);

    // Device read returns the most recent entry; remove pops it.
    KernelDesc r;
    r.name = "read_remove";
    r.blocks = 2;
    r.block_threads = 64;
    bool ok = true;
    r.phases.push_back([&](ThreadCtx &ctx) {
        Entry24 e;
        ok = ok && log.read(ctx, &e, sizeof(e));
        ok = ok && e.c == 43 && e.a == ctx.globalId();
        log.remove(ctx, sizeof(e));
        ok = ok && log.read(ctx, &e, sizeof(e)) && e.c == 42;
    });
    m.runKernel(r);
    EXPECT_TRUE(ok);
    EXPECT_EQ(log.entryCount(), 128u);
}

TEST(GpmLogHcl, EmptyThreadLogReadsFalse)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpmLog log = GpmLog::createHcl(m, "log", 8, 2, 1, 32);
    KernelDesc k;
    k.name = "read_empty";
    k.blocks = 1;
    k.block_threads = 32;
    bool any = false;
    k.phases.push_back([&](ThreadCtx &ctx) {
        std::uint64_t e;
        any = any || log.read(ctx, &e, sizeof(e));
    });
    m.runKernel(k);
    EXPECT_FALSE(any);
}

TEST(GpmLogHcl, WarpInsertCoalescesIntoStripeTransactions)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    gpmPersistBegin(m);
    GpmLog log = GpmLog::createHcl(m, "log", sizeof(Entry24), 1, 1,
                                   32);
    KernelDesc k;
    k.name = "stripes";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const Entry24 e{1, 2, 3};
        log.insert(ctx, &e, sizeof(e));
    });
    const LaunchStats s = m.runKernel(k);
    // 24 B = 6 chunks -> 6 stripe lines, + 1 tail line; reading the
    // tail costs nothing. This IS the HCL coalescing win: 32 entries,
    // 7 transactions.
    EXPECT_EQ(s.pm_line_txns, 7u);
}

TEST(GpmLogHcl, TailIsACrashSentinel)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB, 33);
    gpmPersistBegin(m);
    GpmLog log = GpmLog::createHcl(m, "log", sizeof(Entry24), 2, 1,
                                   32);
    // Crash mid-warp: some threads inserted, some did not.
    KernelDesc k;
    k.name = "crashing_insert";
    k.blocks = 1;
    k.block_threads = 32;
    k.crash = CrashPoint{17};
    k.phases.push_back([&](ThreadCtx &ctx) {
        const Entry24 e{ctx.globalId() + 1, 0, 0};
        log.insert(ctx, &e, sizeof(e));
    });
    EXPECT_THROW(m.runKernel(k), KernelCrashed);
    m.pool().crash(/*survive_prob=*/0.5);

    // Invariant: whenever the durable tail says an entry exists, the
    // durable entry content is complete.
    GpmLog reopened = GpmLog::open(m, "log");
    for (std::uint64_t t = 0; t < 32; ++t) {
        if (reopened.tailOf(t) == 0)
            continue;
        Entry24 e;
        reopened.readEntryHost(t, 0, &e, sizeof(e));
        EXPECT_EQ(e.a, t + 1) << "torn entry behind a set sentinel";
    }
}

TEST(GpmLogHcl, FullThreadLogIsUserError)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpmLog log = GpmLog::createHcl(m, "log", 8, 1, 1, 32);
    KernelDesc k;
    k.name = "overflow";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint64_t e = 1;
        log.insert(ctx, &e, sizeof(e));
        log.insert(ctx, &e, sizeof(e));  // second row does not exist
    });
    EXPECT_THROW(m.runKernel(k), FatalError);
}

/** Two inserts per thread into a two-row HCL log, with
 *  GpmLog::prefetchInsert hints around them when @p hint: before each
 *  insert, once every row is full, past the grid and on a
 *  conventional log. */
void
insertWithHints(Machine &m, bool hint)
{
    gpmPersistBegin(m);
    GpmLog log = GpmLog::createHcl(m, "log", 8, 2, 1, 64);
    GpmLog conv = GpmLog::createConv(m, "clog", 4_KiB, 2);
    KernelDesc k;
    k.name = "hinted_insert";
    k.blocks = 1;
    k.block_threads = 64;
    k.phases.push_back([&](ThreadCtx &ctx) {
        for (std::uint64_t e = 1; e <= 2; ++e) {
            if (hint)
                log.prefetchInsert(ctx.globalId());
            log.insert(ctx, &e, sizeof(e));
        }
    });
    m.runKernel(k);
    if (hint) {
        for (std::uint64_t gtid : {0ull, 63ull, 64ull, ~0ull}) {
            log.prefetchInsert(gtid);
            conv.prefetchInsert(gtid);
        }
    }
    gpmPersistEnd(m);
}

TEST(GpmLogHcl, PrefetchInsertIsInert)
{
    SimConfig cfg;
    PmEventRecorder plain_rec, hinted_rec;  // outlive the pools
    Machine plain(cfg, PlatformKind::Gpm, 16_MiB);
    Machine hinted(cfg, PlatformKind::Gpm, 16_MiB);
    plain.pool().setRecorder(&plain_rec);
    hinted.pool().setRecorder(&hinted_rec);
    insertWithHints(plain, false);
    insertWithHints(hinted, true);

    const std::vector<PmEvent> &a = plain_rec.events();
    const std::vector<PmEvent> &b = hinted_rec.events();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind) << i;
        EXPECT_EQ(a[i].addr, b[i].addr) << i;
        EXPECT_EQ(a[i].size, b[i].size) << i;
    }
    EXPECT_EQ(plain.now(), hinted.now());
    EXPECT_EQ(plain.pool().stats().extents_drained,
              hinted.pool().stats().extents_drained);
    EXPECT_EQ(std::memcmp(plain.pool().visible(), hinted.pool().visible(),
                          16_MiB), 0);
    EXPECT_EQ(std::memcmp(plain.pool().durableRange(0, 16_MiB).data(),
                          hinted.pool().durableRange(0, 16_MiB).data(),
                          16_MiB), 0);
}

TEST(GpmLogConv, AppendAndSerializationAccounting)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    gpmPersistBegin(m);
    GpmLog log = GpmLog::createConv(m, "clog", 16_KiB, 4);

    KernelDesc k;
    k.name = "conv_insert";
    k.blocks = 1;
    k.block_threads = 64;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint64_t e = ctx.globalId();
        log.insert(ctx, &e, sizeof(e));  // partition = gtid % 4
    });
    m.runKernel(k);
    for (std::uint32_t p = 0; p < 4; ++p)
        EXPECT_EQ(log.partitionBytesUsed(p), 16u * 8);

    // 16 serialized inserts on the busiest partition.
    EXPECT_DOUBLE_EQ(log.consumeSerializationNs(),
                     16 * cfg.conv_log_lock_ns);
    EXPECT_DOUBLE_EQ(log.consumeSerializationNs(), 0.0);  // consumed
}

TEST(GpmLogConv, ReadAndRemoveLifo)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    gpmPersistBegin(m);
    GpmLog log = GpmLog::createConv(m, "clog", 4096, 1);
    KernelDesc k;
    k.name = "conv_rw";
    k.blocks = 1;
    k.block_threads = 1;
    bool ok = true;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint64_t a = 111, b = 222;
        log.insert(ctx, &a, 8, 0);
        log.insert(ctx, &b, 8, 0);
        std::uint64_t got = 0;
        ok = ok && log.read(ctx, &got, 8, 0) && got == 222;
        log.remove(ctx, 8, 0);
        ok = ok && log.read(ctx, &got, 8, 0) && got == 111;
    });
    m.runKernel(k);
    EXPECT_TRUE(ok);
}

TEST(GpmLog, OpenRejectsNonLogRegions)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    m.pool().map("not_a_log", 4096, true);
    EXPECT_THROW(GpmLog::open(m, "not_a_log"), FatalError);
    EXPECT_THROW(GpmLog::open(m, "absent"), FatalError);
}

TEST(GpmLog, ClearAllResetsTails)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    gpmPersistBegin(m);
    GpmLog log = GpmLog::createHcl(m, "log", 8, 4, 1, 32);
    KernelDesc k;
    k.name = "fill";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint64_t e = 9;
        log.insert(ctx, &e, 8);
    });
    m.runKernel(k);
    EXPECT_EQ(log.entryCount(), 32u);
    log.clearAll();
    EXPECT_EQ(log.entryCount(), 0u);
}

TEST(GpmLog, RegionSizingFormula)
{
    // 2 blocks x 64 threads, 12 B entries (3 chunks), 4 rows:
    // data = 2 blocks * 2 warps * 4 rows * 3 stripes * 128 B.
    EXPECT_EQ(GpmLog::hclRegionBytes(12, 4, 2, 64, 32),
              256u + 2 * 2 * 4 * 3 * 128 + 2 * 64 * 4);
}

TEST(GpmLogHcl, RandomGeometriesStripeWithoutOverlap)
{
    // Property sweep over random (entry_bytes, blocks, block_threads,
    // rows) shapes: every 4 B chunk slot of every thread must be
    // unique, inside the data area of hclRegionBytes, and clear of
    // the tail array.
    Rng rng(0xc0ffee);
    for (int trial = 0; trial < 24; ++trial) {
        const auto blocks =
            static_cast<std::uint32_t>(rng.between(1, 5));
        const auto tpb =
            static_cast<std::uint32_t>(rng.between(1, 6) * 32 -
                                       (rng.chance(0.3) ? 16 : 0));
        const auto entry_bytes =
            static_cast<std::uint32_t>(rng.between(1, 48));
        const auto rows = static_cast<std::uint32_t>(rng.between(1, 4));

        SimConfig cfg;
        Machine m(cfg, PlatformKind::Gpm, 64_MiB);
        GpmLog log =
            GpmLog::createHcl(m, "log", entry_bytes, rows, blocks, tpb);
        const std::string shape =
            "b" + std::to_string(blocks) + " t" + std::to_string(tpb) +
            " e" + std::to_string(entry_bytes) + " r" +
            std::to_string(rows);

        ASSERT_EQ(log.region().size,
                  GpmLog::hclRegionBytes(
                      entry_bytes, rows, blocks, tpb,
                      static_cast<std::uint32_t>(cfg.warp_size)))
            << shape;

        const std::uint32_t chunks =
            static_cast<std::uint32_t>(alignUp(entry_bytes, 4)) / 4;
        const std::uint64_t threads = std::uint64_t(blocks) * tpb;
        // Tails live at the end of the region, one u32 per thread.
        const std::uint64_t tails_lo =
            log.region().offset + log.region().size - threads * 4;
        std::set<std::uint64_t> seen;
        for (std::uint64_t t = 0; t < threads; ++t) {
            for (std::uint32_t r = 0; r < rows; ++r) {
                for (std::uint32_t k = 0; k < chunks; ++k) {
                    const std::uint64_t addr = log.chunkAddr(t, r, k);
                    ASSERT_TRUE(seen.insert(addr).second)
                        << shape << ": duplicate slot, thread " << t;
                    ASSERT_GE(addr, log.region().offset + 256) << shape;
                    ASSERT_LE(addr + 4, tails_lo) << shape;
                }
            }
        }
    }
}

TEST(GpmLogHcl, ReopenRoundTripsHeaderAndTails)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    gpmPersistBegin(m);
    {
        GpmLog log = GpmLog::createHcl(m, "log", sizeof(Entry24), 3,
                                       2, 64);
        KernelDesc k;
        k.name = "fill";
        k.blocks = 2;
        k.block_threads = 64;
        k.phases.push_back([&](ThreadCtx &ctx) {
            const Entry24 e{ctx.globalId(), ctx.globalId() * 3, 77};
            log.insert(ctx, &e, sizeof(e));
            if (ctx.globalId() % 2 == 0)
                log.insert(ctx, &e, sizeof(e));
        });
        m.runKernel(k);
        log.close();
    }

    GpmLog reopened = GpmLog::open(m, "log");
    EXPECT_EQ(reopened.header().magic, GpmLog::kMagic);
    EXPECT_EQ(reopened.header().type, GpmLog::Hcl);
    EXPECT_EQ(reopened.header().entry_bytes, 24u);
    EXPECT_EQ(reopened.header().max_entries, 3u);
    EXPECT_EQ(reopened.header().blocks, 2u);
    EXPECT_EQ(reopened.header().block_threads, 64u);
    EXPECT_EQ(reopened.entryCount(), 128u + 64u);
    for (std::uint64_t t = 0; t < 128; ++t)
        EXPECT_EQ(reopened.tailOf(t), t % 2 == 0 ? 2u : 1u);
    Entry24 got;
    reopened.readEntryHost(6, 1, &got, sizeof(got));
    EXPECT_EQ(got.a, 6u);
    EXPECT_EQ(got.b, 18u);
    EXPECT_EQ(got.c, 77u);
}

TEST(GpmLogConv, ReopenRoundTripsPartitions)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    gpmPersistBegin(m);
    {
        GpmLog log = GpmLog::createConv(m, "clog", 16_KiB, 4);
        KernelDesc k;
        k.name = "fill";
        k.blocks = 1;
        k.block_threads = 64;
        k.phases.push_back([&](ThreadCtx &ctx) {
            const std::uint64_t e = ctx.globalId();
            log.insert(ctx, &e, sizeof(e));
        });
        m.runKernel(k);
        log.close();
    }

    GpmLog reopened = GpmLog::open(m, "clog");
    EXPECT_EQ(reopened.header().type, GpmLog::Conventional);
    EXPECT_EQ(reopened.header().n_partitions, 4u);
    EXPECT_EQ(reopened.header().partition_bytes, 16_KiB);
    for (std::uint32_t p = 0; p < 4; ++p)
        EXPECT_EQ(reopened.partitionBytesUsed(p), 16u * 8);
}

} // namespace
} // namespace gpm
