/**
 * @file
 * Functional SIMT executor with warp-level write coalescing.
 *
 * Within a block, each phase runs for every thread before the next
 * phase starts (the __syncthreads model, see kernel.hpp). PM stores
 * are buffered per warp during a phase and coalesced at the phase
 * boundary: all lane accesses sharing a (call site, occurrence) are
 * merged into one transaction per touched 128 B line — the GPU
 * hardware coalescer HCL leans on (section 5.2). The resulting
 * transaction stream feeds the Optane model keyed by warp, so
 * per-warp contiguity (or its absence) determines the media tier.
 *
 * Blocks execute in sequence on the calling thread. Host parallelism
 * lives one level up, in the scenario-sweep engine (harness/sweep.hpp),
 * which runs whole independent Machines concurrently.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gpusim/kernel.hpp"
#include "gpusim/launch_stats.hpp"
#include "gpusim/thread_ctx.hpp"
#include "memsim/media_backend.hpp"
#include "memsim/sim_config.hpp"
#include "pmem/pm_pool.hpp"
#include "telemetry/metrics.hpp"

namespace gpm {

/** One coalesced NVM line transaction (size is the coalesce granule). */
struct LineTxn {
    std::uint64_t stream;
    std::uint64_t addr;
};

/**
 * Per-thread occurrence counters for static access sites, O(1) per
 * lookup via open addressing. Epoch stamping makes beginThread() O(1):
 * slots from earlier threads are simply stale, never cleared. A store
 * loop hits one site over and over, so the last site's slot is
 * remembered and skips the probe.
 */
class SiteTable
{
  public:
    /** Start counting for a fresh (thread, phase) execution. */
    void
    beginThread()
    {
        ++epoch_;
        live_ = 0;
        last_ = kNoSlot;
    }

    /** 0-based occurrence of @p site within the current thread. */
    std::uint32_t
    next(SiteId site)
    {
        if (last_ != kNoSlot && slots_[last_].site == site)
            return slots_[last_].count++;
        return probe(site);
    }

  private:
    static constexpr std::size_t kNoSlot = ~std::size_t(0);

    struct Slot {
        SiteId site = 0;
        std::uint64_t epoch = 0;
        std::uint32_t count = 0;
    };

    std::uint32_t probe(SiteId site);
    void grow();

    std::vector<Slot> slots_ = std::vector<Slot>(64);
    std::uint64_t epoch_ = 0;
    std::size_t live_ = 0;
    std::size_t last_ = kNoSlot;  ///< slot of the last site this thread
};

/**
 * Reusable scratch for warp-flush coalescing: groups a warp's phase
 * accesses by (site, occurrence, stream) in first-appearance order and
 * dedups touched coalescing lines per group in ascending address
 * order, without a node allocation per access.
 *
 * Lanes of a warp mostly run the same stores in the same order, so
 * access j of each lane first tries the group of the first lane's
 * access j; only a mismatch (a lane that skipped, added or reordered
 * stores) probes the hash. Both routes give the same group, so one
 * algorithm serves convergent and divergent warps.
 */
struct WarpFlushScratch {
    struct Slot {
        SiteId site = 0;
        std::uint64_t stream = 0;
        std::uint32_t occurrence = 0;
        std::uint32_t group = 0;
        std::uint64_t epoch = 0;
    };

    std::vector<Slot> slots = std::vector<Slot>(64);
    std::uint64_t epoch = 0;
    std::vector<std::uint32_t> group_of;    ///< access index -> group
    std::vector<std::uint32_t> group_start; ///< group -> first slot
    std::vector<std::uint32_t> cursor;      ///< scatter cursors
    std::vector<const WarpAccess *> grouped;
    std::vector<std::uint64_t> lines;

    /**
     * Coalesce @p warp's buffered accesses: append one LineTxn per
     * (group, touched line) to @p out and account pm_line_* in
     * @p stats. Clears the recorder for the next phase. @p granule
     * must be a power of two.
     */
    void coalesce(std::uint64_t granule, std::uint64_t global_warp,
                  WarpRecorder &warp, LaunchStats &stats,
                  std::vector<LineTxn> &out);

  private:
    std::uint32_t groupOf(SiteId site, std::uint32_t occurrence,
                          std::uint64_t stream, std::uint32_t ngroups);
};

/** The simulated GPU: executes kernels and accounts their traffic. */
class GpuExecutor
{
  public:
    /**
     * @param cfg   Machine parameters (warp size, coalescing granule).
     * @param pool  The PM device kernels load from / store to.
     * @param nvm   Media model receiving the coalesced write stream.
     */
    GpuExecutor(const SimConfig &cfg, PmPool &pool, MediaBackend &nvm)
        : cfg_(&cfg), pool_(&pool), nvm_(&nvm)
    {
    }

    /**
     * Run @p kernel to completion (or to its CrashPoint).
     *
     * @throws KernelCrashed when the kernel's crash point fires; PM
     *         state then reflects the partial execution and the caller
     *         decides when to invoke PmPool::crash().
     */
    LaunchStats launch(const KernelDesc &kernel);

    const SimConfig &config() const { return *cfg_; }
    PmPool &pool() { return *pool_; }

    /**
     * Accounting of the most recent launch. After a KernelCrashed
     * unwind this holds the *partial* stats — exactly the blocks that
     * completed before the crash point.
     */
    const LaunchStats &lastLaunchStats() const { return cur_; }

  private:
    friend class ThreadCtx;

    /**
     * Execute one block (every phase, every thread): PM stores and NVM
     * line transactions retire immediately and crash triggers are
     * armed. block_stats_ holds the block's accounting afterwards.
     */
    void runBlock(const KernelDesc &kernel, std::uint32_t block,
                  std::uint64_t crash_at);

    /**
     * Fold the telemetry shard into the installed session's registry
     * — or discard the pending values when telemetry is off — so
     * shard counts never leak across sessions. Runs at every launch
     * boundary, including crash unwinds.
     */
    void mergeTelemetryShard();

    /**
     * Crash-trigger bookkeeping, called from the ThreadCtx data path.
     * Event counters are per launch and 1-based, so e.g.
     * CrashPoint::beforeFence(1) dies before the first fence of the
     * launch ever persists anything.
     */
    void noteFenceBefore(std::uint64_t executed);
    void noteFenceAfter(std::uint64_t executed);
    void noteStore(std::uint64_t executed);

    const SimConfig *cfg_;
    PmPool *pool_;
    MediaBackend *nvm_;
    LaunchStats cur_;

    std::optional<CrashPoint> armed_;  ///< active launch's crash point
    std::uint64_t executed_ = 0;       ///< (thread, phase) executions so far
    std::uint64_t fence_count_ = 0;    ///< fences started this launch
    std::uint64_t store_count_ = 0;    ///< PM stores retired this launch

    // Scratch reused across blocks and launches.
    std::vector<WarpRecorder> warps_;  ///< one per warp of a block
    WarpFlushScratch flush_;
    SiteTable sites_;                  ///< the running thread's sites
    std::vector<LineTxn> txns_;        ///< one warp flush's line txns
    LaunchStats block_stats_;          ///< the running block's accounting

    // Plain counters bumped on the hot path and folded into the
    // session registry (or discarded) once per launch.
    telemetry::HotShard tshard_;
};

} // namespace gpm
