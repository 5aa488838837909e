/**
 * @file
 * Per-thread execution context handed to kernel phases.
 *
 * ThreadCtx exposes the CUDA-visible identity of the thread
 * (blockIdx/threadIdx/lane/warp) and the memory operations the
 * simulator accounts:
 *
 *  - pmStore / pmLoad: loads and stores to the UVA-mapped PM region.
 *    Stores are functionally applied to the PmPool (visible at once,
 *    durable per the persistence domain) and recorded for warp-level
 *    coalescing, keyed by (call site, per-thread occurrence) so that
 *    divergent threads never coalesce across program points.
 *  - threadfenceSystem: the system-scope fence GPM builds persists
 *    from (__threadfence_system in CUDA).
 *  - work / hbmTraffic: abstract ALU work and device-memory traffic,
 *    used only by the timing model.
 */
#pragma once

#include <cstdint>
#include <source_location>
#include <vector>

#include "common/status.hpp"
#include "gpusim/launch_stats.hpp"
#include "pmem/pm_pool.hpp"

namespace gpm {

class GpuExecutor;

/** Derive a SiteId from a source location (file pointer + line + col). */
inline SiteId
siteOf(const std::source_location &loc)
{
    return reinterpret_cast<std::uintptr_t>(loc.file_name()) * 1000003u +
           loc.line() * 97u + loc.column();
}

/** Execution context for one simulated GPU thread within one phase. */
class ThreadCtx
{
  public:
    // ---- identity ------------------------------------------------------
    std::uint32_t blockIdx() const { return block_; }
    std::uint32_t threadIdx() const { return thread_; }
    std::uint32_t blockDim() const { return block_dim_; }
    std::uint32_t gridDim() const { return grid_dim_; }

    /** Global linear thread id (blockIdx * blockDim + threadIdx). */
    std::uint64_t
    globalId() const
    {
        return std::uint64_t(block_) * block_dim_ + thread_;
    }

    /** Lane within the warp. */
    std::uint32_t lane() const { return thread_ % warp_size_; }

    /** Warp index within the block. */
    std::uint32_t warpInBlock() const { return thread_ / warp_size_; }

    /** Global warp index across the grid. */
    std::uint64_t
    globalWarp() const
    {
        const std::uint32_t warps_per_block =
            (block_dim_ + warp_size_ - 1) / warp_size_;
        return std::uint64_t(block_) * warps_per_block + warpInBlock();
    }

    std::uint32_t warpSize() const { return warp_size_; }

    // ---- persistent-memory data path ------------------------------------

    /** Store @p size bytes at PM offset @p addr. */
    void pmWrite(std::uint64_t addr, const void *src, std::uint64_t size,
                 std::source_location loc = std::source_location::current());

    /**
     * Store whose media-stream identity is @p stream instead of the
     * issuing warp. Used for appends to a shared, lock-serialized
     * structure (the conventional log's partitions): the partition's
     * tail region is one contiguous address stream no matter which
     * warp holds the lock, and Optane's write combining sees it so.
     */
    void pmWriteStream(std::uint64_t stream, std::uint64_t addr,
                       const void *src, std::uint64_t size,
                       std::source_location loc =
                           std::source_location::current());

    /** Load @p size bytes from PM offset @p addr. */
    void pmRead(std::uint64_t addr, void *dst, std::uint64_t size);

    /** Typed PM store. */
    template <typename T>
    void
    pmStore(std::uint64_t addr, const T &v,
            std::source_location loc = std::source_location::current())
    {
        pmWrite(addr, &v, sizeof(T), loc);
    }

    /** Typed PM load. */
    template <typename T>
    T
    pmLoad(std::uint64_t addr)
    {
        T v;
        pmRead(addr, &v, sizeof(T));
        return v;
    }

    /**
     * System-scope fence (__threadfence_system).
     *
     * Under GPM's persistence domain this persists every prior PM
     * store of this thread; under DDIO-enabled domains it only orders.
     *
     * @return true when the thread's prior stores are now durable.
     */
    bool threadfenceSystem();

    // ---- timing-model hooks -----------------------------------------------

    /** Account @p ops abstract ALU operations for this thread. */
    void work(double ops);

    /** Account @p bytes of device-memory (HBM) traffic. */
    void hbmTraffic(std::uint64_t bytes);

  private:
    friend class GpuExecutor;

    ThreadCtx(GpuExecutor &exec, WarpRecorder &warp, std::uint32_t block,
              std::uint32_t thread, std::uint32_t block_dim,
              std::uint32_t grid_dim, std::uint32_t warp_size)
        : exec_(&exec), warp_(&warp), block_(block),
          thread_(thread), block_dim_(block_dim), grid_dim_(grid_dim),
          warp_size_(warp_size)
    {
    }

    // The executor owns the running block's stats and the O(1)
    // site-occurrence table (it begins a fresh thread epoch before each
    // phase invocation).
    GpuExecutor *exec_;
    WarpRecorder *warp_;
    std::uint32_t block_;
    std::uint32_t thread_;
    std::uint32_t block_dim_;
    std::uint32_t grid_dim_;
    std::uint32_t warp_size_;
};

} // namespace gpm
