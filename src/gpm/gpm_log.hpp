/**
 * @file
 * libGPM logging: Hierarchical Coalesced Logging (HCL) and the
 * conventional distributed (partitioned, lock-based) log it is
 * evaluated against (Table 2, middle block; sections 5.2 and 6.1).
 *
 * HCL (Figures 4 and 5 of the paper):
 *
 *  - The log mirrors the GPU execution hierarchy: the file is divided
 *    into per-threadblock regions, those into per-warp regions, and a
 *    warp's region into 128 B *stripes* of 32 x 4 B lane slots.
 *  - A log entry of E bytes is split into S = ceil(E/4) 4 B chunks;
 *    lane l stores chunk k at stripe k, offset 4*l. When all lanes of
 *    a warp insert together, each chunk-k store coalesces into exactly
 *    one 128 B transaction — S transactions for 32 entries, instead
 *    of one uncoalesced store stream per thread.
 *  - Every thread owns a row index (tail) into its warp's region, so
 *    insertion needs no locks at all. For failure atomicity the entry
 *    is persisted first, then the tail is bumped and persisted; the
 *    tail is the recovery sentinel.
 *
 * The conventional log keeps N partitions; inserting into a partition
 * appends under a lock, so concurrent inserts to one partition
 * serialize — the behaviour Fig 11(b) measures. The serialization
 * penalty is accounted via consumeSerializationNs(), which workload
 * drivers add to the simulated clock after each launch.
 *
 * API deviation from Table 2: where the paper sizes logs with a raw
 * byte count, createHcl takes (entry_bytes, entries-per-thread) and
 * derives the byte size — the same information, made explicit.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/thread_ctx.hpp"
#include "platform/machine.hpp"

namespace gpm {

/** On-PM header of a gpmlog file. */
struct GpmLogHeader {
    std::uint32_t magic = 0;
    std::uint32_t type = 0;           ///< 0 = conventional, 1 = HCL
    std::uint32_t entry_bytes = 0;    ///< HCL: fixed entry size (4 B padded)
    std::uint32_t max_entries = 0;    ///< HCL: per-thread row capacity
    std::uint32_t blocks = 0;         ///< HCL: grid geometry at creation
    std::uint32_t block_threads = 0;
    std::uint32_t warp_size = 0;
    std::uint32_t n_partitions = 0;   ///< conventional: partition count
    std::uint64_t partition_bytes = 0;///< conventional: partition capacity
};

/** Host handle to a PM-resident GPU log (HCL or conventional). */
class GpmLog
{
  public:
    static constexpr std::uint32_t kMagic = 0x47504d4c;  // 'GPML'
    enum Type : std::uint32_t { Conventional = 0, Hcl = 1 };

    /**
     * Create an HCL log for a grid of @p blocks x @p block_threads
     * threads, each able to hold @p max_entries_per_thread entries of
     * @p entry_bytes bytes (gpmlog_create_hcl).
     */
    static GpmLog createHcl(Machine &m, const std::string &path,
                            std::uint32_t entry_bytes,
                            std::uint32_t max_entries_per_thread,
                            std::uint32_t blocks,
                            std::uint32_t block_threads);

    /** Create a conventional distributed log (gpmlog_create_conv). */
    static GpmLog createConv(Machine &m, const std::string &path,
                             std::uint64_t partition_bytes,
                             std::uint32_t n_partitions);

    /** Open an existing log by path (gpmlog_open). */
    static GpmLog open(Machine &m, const std::string &path);

    /** Close the handle (gpmlog_close; bookkeeping time only). */
    void close();

    // ---- device-side operations (call from kernel phases) ---------------

    /**
     * Insert a log entry for the calling thread (gpmlog_insert).
     * Persists the entry, then bumps and persists the tail sentinel.
     *
     * @param partition  Conventional logs only: target partition, or
     *                   -1 to pick thread-id modulo partition count.
     */
    void insert(ThreadCtx &ctx, const void *entry, std::uint32_t size,
                int partition = -1);

    /**
     * Read the calling thread's most recent entry (gpmlog_read).
     * @return false when the thread's log is empty.
     */
    bool read(ThreadCtx &ctx, void *out, std::uint32_t size,
              int partition = -1);

    /** Pop the calling thread's most recent entry (gpmlog_remove);
     *  persists the updated tail. */
    void remove(ThreadCtx &ctx, std::uint32_t size, int partition = -1);

    // ---- host-side operations ----------------------------------------------

    /** Truncate every partition / per-thread tail (gpmlog_clear). */
    void clearAll();

    /** HCL: current tail (entry count) of global thread @p gtid. */
    std::uint32_t tailOf(std::uint64_t gtid) const;

    /**
     * Host-only hint (DESIGN.md decision #10): warm, in both pool
     * images, the lines the next insert() of global thread @p gtid
     * touches — its entry row and its tail. The tail is peeked from
     * the visible image, so no recorder event is emitted. Does nothing
     * on a conventional log, for a thread outside the grid or with a
     * full row.
     */
    void prefetchInsert(std::uint64_t gtid) const;

    /** HCL: total entries across all threads. */
    std::uint64_t entryCount() const;

    /** HCL: de-stripe entry @p row of thread @p gtid into @p out
     *  (host-side recovery inspection). */
    void readEntryHost(std::uint64_t gtid, std::uint32_t row, void *out,
                       std::uint32_t size) const;

    /** Conventional: bytes currently used in partition @p p. */
    std::uint64_t partitionBytesUsed(std::uint32_t p) const;

    /**
     * Conventional-log serialization charge accumulated since the last
     * call: max-over-partitions(inserts) * lock cost. Workload drivers
     * advance the machine clock by this after each launch; zero for
     * HCL logs.
     */
    SimNs consumeSerializationNs();

    const GpmLogHeader &header() const { return hdr_; }
    const PmRegion &region() const { return region_; }

    /** HCL address of chunk @p k of entry row @p row for @p gtid —
     *  exposed so tests can verify the striping math of Fig 5. */
    std::uint64_t chunkAddr(std::uint64_t gtid, std::uint32_t row,
                            std::uint32_t k) const;

    /** Total PM bytes an HCL/conventional log of this shape occupies. */
    static std::uint64_t hclRegionBytes(std::uint32_t entry_bytes,
                                        std::uint32_t max_entries,
                                        std::uint32_t blocks,
                                        std::uint32_t block_threads,
                                        std::uint32_t warp_size);

  private:
    GpmLog(Machine &m, PmRegion region, GpmLogHeader hdr);

    // Geometry helpers (HCL).
    std::uint32_t chunksPerEntry() const { return hdr_.entry_bytes / 4; }
    std::uint64_t stripeBytes() const { return hdr_.warp_size * 4ull; }
    std::uint64_t warpRegionBytes() const;
    std::uint32_t warpsPerBlock() const;
    std::uint64_t dataOffset() const { return region_.offset + 256; }
    std::uint64_t tailsOffset() const;
    std::uint64_t tailAddr(std::uint64_t gtid) const;

    void writeHeader(Machine &m);
    void declareDurableIntent(const std::string &path) const;

    Machine *m_;
    PmRegion region_;
    GpmLogHeader hdr_;
    std::vector<std::uint64_t> conv_inserts_;  ///< per-partition counts
};

} // namespace gpm
