/**
 * @file
 * gpDB: transactional GPU-accelerated relational database of GPMbench
 * (Table 1; derived from the Virginian GPU database in the paper).
 *
 * The table is a PM-resident row store of fixed 60 B rows (Table 1's
 * 3 GB / 50 M rows). Two transaction types are exercised, matching the
 * gpDB (I) and gpDB (U) bars of Figures 9-12:
 *
 *  - INSERT: threads append rows past the current row count. New rows
 *    are contiguous but start warp-by-warp at unaligned offsets, which
 *    puts them on Optane's 3.13 GB/s tier (Fig 12's discussion). Only
 *    the table size needs logging: the durable row count advances in a
 *    single persisted store after all rows are durable, so a crash
 *    simply leaves the partial rows invisible (Table 5's 0.01 %
 *    restoration latency).
 *
 *  - UPDATE: threads overwrite rows scattered across the table,
 *    undo-logging each old row first (HCL's heavyweight user: 68 B
 *    entries, the 6.1x of Fig 11a). Batch targets are distinct rows —
 *    the standard same-slot rule any order-insensitive per-thread undo
 *    needs (cf. kvs.cpp).
 *
 * On CAP platforms UPDATE transfers and persists the whole table
 * (write amplification ~20x, Table 4) while INSERT transfers just the
 * appended region rounded up to the DMA chunk (~1.27x).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "gpm/gpm_log.hpp"
#include "gpusim/kernel.hpp"
#include "workloads/workload.hpp"

namespace gpm {

/** gpDB sizing. */
struct GpDbParams {
    std::uint32_t initial_rows = 1u << 18;   ///< pre-loaded rows (~15 MiB)
    std::uint32_t insert_rows = 32768;       ///< rows per INSERT batch
    std::uint32_t update_rows = 8192;        ///< rows per UPDATE batch
    std::uint32_t insert_batches = 2;
    std::uint32_t update_batches = 2;
    std::uint64_t seed = 7;
    bool use_hcl = true;
    std::uint32_t conv_partitions = 16;
    int cap_threads = 32;
    std::uint64_t cap_chunk_bytes = 1_MiB;   ///< CAP transfer granularity

    static constexpr std::uint32_t kRowBytes = 60;

    std::uint64_t
    maxRows() const
    {
        return std::uint64_t(initial_rows) +
               std::uint64_t(insert_batches) * insert_rows;
    }

    std::uint64_t tableBytes() const { return maxRows() * kRowBytes; }
};

/** One 60 B row (deliberately not a power-of-two, like Table 1's). */
struct DbRow {
    std::uint32_t id = 0;
    std::uint8_t payload[GpDbParams::kRowBytes - 4] = {};
};
static_assert(sizeof(DbRow) == GpDbParams::kRowBytes);

/** gpDB instance bound to one Machine. */
class GpDb
{
  public:
    enum class TxnKind { Insert, Update };

    GpDb(Machine &m, const GpDbParams &p);

    /** Map regions, create logs, bulk-load the initial rows (setup
     *  cost excluded from operation time). */
    void setup();

    /** Run all INSERT batches, then all UPDATE batches. */
    WorkloadResult run();

    /** Run only one kind of transaction (the split gpDB (I) / (U)
     *  bars of Figures 9-11). */
    WorkloadResult run(TxnKind kind);

    /**
     * SELECT scan — the query class GPU databases already excel at
     * (section 4.1: Virginian/OmniSci execute "primarily SELECT
     * queries"; GPM adds the mutating transactions). Counts rows
     * whose id hashes below @p selectivity and sums their first
     * payload word; the table is read from the HBM-cached copy, so
     * no PM traffic is generated. Returns (count, sum) and charges
     * the scan to the timing model.
     */
    std::pair<std::uint64_t, std::uint64_t>
    runSelect(double selectivity);

    /**
     * Crash mid-batch and recover. For Update, the undo log restores
     * the old rows; for Insert, the durable row count never advanced.
     */
    WorkloadResult runWithCrash(TxnKind kind, std::uint32_t crash_batch,
                                double frac, double survive_prob);

    /** Thread phases of the doomed @p kind batch kernel. */
    static std::uint64_t doomedThreadPhases(const GpDbParams &p,
                                            TxnKind kind);

    /**
     * Expected durable tables of a @p kind crash in batch
     * @p crash_batch: the initial rows, every earlier batch applied
     * (pre_crash) and the doomed batch on top (committed), each with
     * its row count. A pure function of its arguments.
     */
    static CrashReference crashReference(const GpDbParams &p,
                                         TxnKind kind,
                                         std::uint32_t crash_batch);

    /**
     * Descriptor-armed crash run (runCrashSequence), @p ref from
     * crashReference() with these params and @p kind. The clean
     * batches must leave pre_crash's row count (checked before
     * arming); strict_ok compares rows and row count both.
     */
    CrashOutcome runCrashPoint(TxnKind kind, const CrashReference &ref,
                               const CrashPoint &point,
                               double survive_prob,
                               bool open_persist_window = true,
                               WorkloadResult *result_out = nullptr);

    /** Durable row count (what a reboot would see). */
    std::uint64_t durableRowCount() const;

    /** Build the expected row for (row index, version). */
    DbRow makeRow(std::uint64_t idx, std::uint32_t version) const;

    /** Distinct target rows of update batch @p batch over a table of
     *  @p row_count rows (deterministic, no duplicates — see kvs.cpp
     *  on why per-thread undo requires one writer per location). */
    std::vector<std::uint64_t>
    makeUpdateTargets(std::uint32_t batch,
                      std::uint64_t row_count) const;

  private:
    /** Machine-less instance: the host reference model only
     *  (crashReference). */
    explicit GpDb(const GpDbParams &p);

    /** setup() with the initial rows taken from @p initial_rows. */
    void setupFrom(const void *initial_rows);

    std::uint64_t rowAddr(std::uint64_t idx) const;

    /** GPM-family INSERT / UPDATE batch. A set @p crash arms the
     *  batch kernel (runCrashPoint's doomed batch): the batch then
     *  returns right after the kernel, before its commit kernel, flag
     *  clear and log-serialization charge, whether or not the point
     *  fired. */
    void runInsertGpm(std::uint32_t batch, bool ndp,
                      const std::optional<CrashPoint> &crash =
                          std::nullopt);
    void runUpdateGpm(std::uint32_t batch, bool ndp,
                      const std::optional<CrashPoint> &crash =
                          std::nullopt);
    void runInsertCap(std::uint32_t batch);
    void runUpdateCap(std::uint32_t batch);
    void recoverUpdate();

    /** Host mirror bookkeeping shared by every platform. */
    void mirrorInitial();
    void mirrorInsert(std::uint32_t batch);
    void mirrorUpdate(std::uint32_t batch);
    /** Rows the mirror holds (kept by mirrorInitial/mirrorInsert). */
    std::uint64_t mirrorRowCount() const { return mirror_rows_; }

    Machine *m_ = nullptr;
    GpDbParams p_;
    PmRegion table_;
    PmRegion meta_;  ///< u64 row_count; u32 txn_active; u32 batch_id
    std::vector<GpmLog> log_;
    std::vector<DbRow> mirror_;        ///< expected visible state;
                                       ///< doubles as CAP's volatile copy
    std::uint64_t mirror_rows_ = 0;    ///< mirror_'s live row count
};

} // namespace gpm
