/**
 * @file
 * gpDB workload tests: INSERT/UPDATE transactions across platforms,
 * crash recovery for both transaction kinds.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "common/hash.hpp"
#include "crash_hash_grid.hpp"
#include "harness/experiments.hpp"
#include "workloads/db.hpp"

namespace gpm {
namespace {

GpDbParams
smallParams()
{
    GpDbParams p;
    p.initial_rows = 1u << 14;  // 16 K rows, ~1 MiB
    p.insert_rows = 2048;
    p.update_rows = 1024;
    p.insert_batches = 2;
    p.update_batches = 2;
    p.cap_chunk_bytes = 64_KiB;
    return p;
}

TEST(GpDb, GpmInsertAndUpdateVerify)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpDb db(m, smallParams());
    const WorkloadResult r = db.run();
    EXPECT_TRUE(r.supported);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.op_ns, 0.0);
}

TEST(GpDb, InsertAdvancesDurableRowCount)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpDbParams p = smallParams();
    GpDb db(m, p);
    ASSERT_TRUE(db.run(GpDb::TxnKind::Insert).verified);
    EXPECT_EQ(db.durableRowCount(),
              p.initial_rows + p.insert_batches * p.insert_rows);
}

TEST(GpDb, CapPlatformsVerify)
{
    for (PlatformKind kind : {PlatformKind::CapFs, PlatformKind::CapMm,
                              PlatformKind::CapEadr,
                              PlatformKind::GpmNdp}) {
        SimConfig cfg;
        Machine m(cfg, kind, 64_MiB);
        GpDb db(m, smallParams());
        EXPECT_TRUE(db.run().verified) << platformName(kind);
    }
}

TEST(GpDb, CapUpdateCellsEndWithVisibleEqualToDurable)
{
    // CAP's UPDATE persists copy only the updated rows, so a missed
    // row would leave the visible or the durable table behind the
    // mirror. The canonical cells must end with the durable table
    // equal to the mirror (run's check) and to the visible table.
    for (const PlatformKind kind : {PlatformKind::CapFs,
                                    PlatformKind::CapMm}) {
        SCOPED_TRACE(platformName(kind));
        Machine m(SimConfig{}, kind, bench::pmCapacity());
        GpDb db(m, bench::dbParams());
        ASSERT_TRUE(db.run(GpDb::TxnKind::Update).verified);
        const PmRegion table = m.pool().region("gpdb.table");
        EXPECT_EQ(std::memcmp(m.pool().visible() + table.offset,
                              m.pool()
                                  .durableRange(table.offset, table.size)
                                  .data(),
                              table.size),
                  0);
    }
}

TEST(GpDb, GpufsUnsupported)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpufs, 64_MiB);
    GpDb db(m, smallParams());
    EXPECT_FALSE(db.run().supported);
}

TEST(GpDb, UpdateWriteAmplificationShape)
{
    SimConfig cfg;
    Machine gpm_m(cfg, PlatformKind::Gpm, 64_MiB);
    Machine cap_m(cfg, PlatformKind::CapMm, 64_MiB);
    GpDbParams p = smallParams();
    GpDb a(gpm_m, p), b(cap_m, p);
    const WorkloadResult rg = a.run(GpDb::TxnKind::Update);
    const WorkloadResult rc = b.run(GpDb::TxnKind::Update);
    ASSERT_GT(rg.persisted_payload, 0u);
    // CAP persists the whole table per UPDATE batch (~Table 4's 20x).
    EXPECT_GT(rc.persisted_payload, 4 * rg.persisted_payload);
}

TEST(GpDb, InsertWriteAmplificationNearOne)
{
    SimConfig cfg;
    Machine gpm_m(cfg, PlatformKind::Gpm, 64_MiB);
    Machine cap_m(cfg, PlatformKind::CapMm, 64_MiB);
    GpDbParams p = smallParams();
    GpDb a(gpm_m, p), b(cap_m, p);
    const WorkloadResult rg = a.run(GpDb::TxnKind::Insert);
    const WorkloadResult rc = b.run(GpDb::TxnKind::Insert);
    ASSERT_GT(rg.persisted_payload, 0u);
    const double wa = static_cast<double>(rc.persisted_payload) /
                      static_cast<double>(rg.persisted_payload);
    EXPECT_LT(wa, 2.0);  // Table 4: 1.27x
}

TEST(GpDb, SelectScanMatchesHostPredicate)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpDbParams p = smallParams();
    GpDb db(m, p);
    ASSERT_TRUE(db.run(GpDb::TxnKind::Insert).verified);

    const auto [all, all_sum] = db.runSelect(1.0);
    EXPECT_EQ(all, p.initial_rows + p.insert_batches * p.insert_rows);
    EXPECT_GT(all_sum, 0u);

    const auto [none, none_sum] = db.runSelect(0.0);
    EXPECT_EQ(none, 0u);
    EXPECT_EQ(none_sum, 0u);

    const auto [half, half_sum] = db.runSelect(0.5);
    EXPECT_GT(half, all / 3);
    EXPECT_LT(half, 2 * all / 3);
    EXPECT_LT(half_sum, all_sum);
}

TEST(GpDb, SelectGeneratesNoPmTraffic)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpDb db(m, smallParams());
    ASSERT_TRUE(db.run(GpDb::TxnKind::Insert).verified);
    const std::uint64_t pcie0 = m.pcieWriteBytes();
    const SimNs t0 = m.now();
    db.runSelect(0.7);
    EXPECT_EQ(m.pcieWriteBytes(), pcie0);  // HBM-resident scan
    EXPECT_GT(m.now(), t0);                // but not free
}

class GpDbCrash
    : public ::testing::TestWithParam<std::tuple<bool, int, int>>
{
};

TEST_P(GpDbCrash, RecoversToPreBatchState)
{
    const auto [is_update, frac_step, seed] = GetParam();
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB,
              static_cast<std::uint64_t>(seed) + 1);
    GpDbParams p = smallParams();
    p.seed = 40 + static_cast<std::uint64_t>(seed);
    GpDb db(m, p);
    const double frac = 0.15 + 0.25 * frac_step;
    const double survive = (seed % 3) * 0.45;
    const WorkloadResult r = db.runWithCrash(
        is_update ? GpDb::TxnKind::Update : GpDb::TxnKind::Insert,
        /*crash_batch=*/1, frac, survive);
    EXPECT_TRUE(r.verified)
        << (is_update ? "update" : "insert") << " frac=" << frac
        << " survive=" << survive;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GpDbCrash,
    ::testing::Combine(::testing::Bool(), ::testing::Range(0, 4),
                       ::testing::Range(0, 4)));

// ---- CrashReference ----------------------------------------------------

/** The torture adapter's sizing: small enough for a quick grid. */
GpDbParams
crashParams()
{
    GpDbParams p;
    p.initial_rows = 4096;
    p.insert_rows = 1024;
    p.update_rows = 512;
    return p;
}

/** Durable row count + live rows after a clean GPM run of @p batches
 *  @p kind batches. */
CrashImage
cleanDurableTable(GpDbParams p, GpDb::TxnKind kind, std::uint32_t batches)
{
    if (kind == GpDb::TxnKind::Insert)
        p.insert_batches = batches;
    else
        p.update_batches = batches;
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 16_MiB);
    GpDb db(m, p);
    EXPECT_TRUE(db.run(kind).verified);
    const std::uint64_t rows = db.durableRowCount();
    const std::uint64_t bytes = rows * GpDbParams::kRowBytes;
    return CrashImage(
        m.pool()
            .durableRange(m.pool().region("gpdb.table").offset, bytes)
            .data(),
        bytes, rows);
}

TEST(GpDbCrashReference, ImagesEqualCleanRunsToAndPastTheCrashBatch)
{
    const GpDbParams p = crashParams();
    for (const GpDb::TxnKind kind :
         {GpDb::TxnKind::Insert, GpDb::TxnKind::Update}) {
        const CrashImage initial = cleanDurableTable(p, kind, 0);
        for (std::uint32_t b = 0; b < 2; ++b) {
            const CrashReference ref = GpDb::crashReference(p, kind, b);
            const CrashImage pre = cleanDurableTable(p, kind, b);
            const CrashImage post = cleanDurableTable(p, kind, b + 1);
            EXPECT_EQ(ref.initial, initial.bytes);
            EXPECT_EQ(ref.pre_crash.rows, pre.rows);
            EXPECT_EQ(ref.pre_crash.bytes, pre.bytes);
            EXPECT_EQ(ref.pre_crash.hash, pre.hash);
            EXPECT_EQ(ref.committed.rows, post.rows);
            EXPECT_EQ(ref.committed.bytes, post.bytes);
            EXPECT_EQ(ref.committed.hash, post.hash);
        }
        EXPECT_THROW(GpDb::crashReference(p, kind, 2), FatalError);
    }
}

TEST(GpDbCrashReference, RowCountsFollowTheBatches)
{
    // The mirror keeps its row count instead of scanning for it; the
    // images' counts (and byte lengths) pin the kept count.
    GpDbParams p = crashParams();
    p.insert_batches = 3;
    p.update_batches = 3;
    for (std::uint32_t b = 0; b < 3; ++b) {
        const CrashReference ins =
            GpDb::crashReference(p, GpDb::TxnKind::Insert, b);
        const std::uint64_t pre =
            p.initial_rows + std::uint64_t(b) * p.insert_rows;
        EXPECT_EQ(ins.pre_crash.rows, pre) << b;
        EXPECT_EQ(ins.committed.rows, pre + p.insert_rows) << b;
        EXPECT_EQ(ins.committed.bytes.size(),
                  (pre + p.insert_rows) * GpDbParams::kRowBytes) << b;

        const CrashReference upd =
            GpDb::crashReference(p, GpDb::TxnKind::Update, b);
        EXPECT_EQ(upd.pre_crash.rows, p.initial_rows) << b;
        EXPECT_EQ(upd.committed.rows, p.initial_rows) << b;
        EXPECT_EQ(upd.committed.bytes.size(),
                  std::uint64_t(p.initial_rows) * GpDbParams::kRowBytes)
            << b;
    }
}

TEST(GpDbCrashReference, StateHashIsTheDurableTableFnv)
{
    const GpDbParams p = crashParams();
    for (const GpDb::TxnKind kind :
         {GpDb::TxnKind::Insert, GpDb::TxnKind::Update}) {
        const CrashReference ref = GpDb::crashReference(p, kind, 1);
        const std::uint32_t rows = kind == GpDb::TxnKind::Insert
                                       ? p.insert_rows
                                       : p.update_rows;
        int matched = 0, unmatched = 0;
        for (const CrashGridCell &c : crashHashGrid(rows)) {
            SimConfig cfg;
            Machine m(cfg, c.kind, 16_MiB, c.seed);
            GpDb db(m, p);
            const CrashOutcome o = db.runCrashPoint(
                kind, ref, c.point, c.survive_prob,
                c.open_persist_window);
            const std::uint64_t count = db.durableRowCount();
            const std::uint64_t bytes = count * GpDbParams::kRowBytes;
            const std::uint64_t table_hash = fnv1a(
                m.pool()
                    .durableRange(m.pool().region("gpdb.table").offset,
                                  bytes)
                    .data(),
                bytes);
            EXPECT_EQ(o.state_hash, fnv1aU64(count, table_hash))
                << c.label;
            const bool is_ref = table_hash == ref.pre_crash.hash ||
                                table_hash == ref.committed.hash;
            ++(is_ref ? matched : unmatched);
        }
        // Both kinds occur, so a hash that skipped the comparison
        // fails.
        EXPECT_GT(matched, 0);
        EXPECT_GT(unmatched, 0);
    }
}

} // namespace
} // namespace gpm
