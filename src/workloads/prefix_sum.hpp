/**
 * @file
 * PS workload (Table 1: prefix sum over 1K x 1M integer arrays,
 * natively persisting partial and final sums).
 *
 * This is the paper's flagship native-persistence example: Figure 8's
 * kernel is reproduced phase for phase. The input array is split into
 * per-threadblock subarrays; each thread computes the sum of its
 * chunk and persists it into the pm_p_sums array — every thread but
 * the block's last persists first, a __syncthreads barrier follows,
 * and only then does the last thread persist its own sum. That last
 * slot doubles as the block's recovery sentinel: if it is non-EMPTY
 * after a crash, the whole block's partial sums are known-durable and
 * the block is skipped on resume (the kernel's first line).
 *
 * A second stage turns partial sums into block offsets and persists
 * the final prefix array with aligned streaming writes (PS's high PM
 * bandwidth in Fig 12).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gpusim/kernel.hpp"
#include "workloads/workload.hpp"

namespace gpm {

/** Array sizing. */
struct PsParams {
    std::uint32_t block_threads = 256;
    std::uint32_t elems_per_thread = 16;
    std::uint32_t blocks = 192;   ///< subarrays (one per threadblock)
    std::uint64_t seed = 31;
    int cap_threads = 32;

    std::uint64_t
    elements() const
    {
        return std::uint64_t(blocks) * block_threads * elems_per_thread;
    }
};

/** The prefix-sum app. */
class GpPrefixSum
{
  public:
    static constexpr std::uint32_t kEmpty = 0;  ///< inputs are >= 1

    GpPrefixSum(Machine &m, const PsParams &p);

    /** Map regions, generate the input (values in [1, 100]). */
    void setup();

    /** Full prefix-sum computation. */
    WorkloadResult run();

    /**
     * Crash during the partial-sum kernel, resume, finish. Verifies
     * the output and reports how many blocks the sentinel check let
     * the resumed kernel skip (observable recovery win, section 5.4).
     */
    WorkloadResult runWithCrash(double frac, double survive_prob);

    /**
     * Descriptor-armed crash run: crash the partial-sum kernel at
     * @p point, reboot, resume (sentinel-skip re-run) and finish.
     * strict_ok means the full durable output equals the reference —
     * the kernel's native recovery is a recompute, so there is a
     * single legal final state regardless of where the crash landed.
     */
    CrashOutcome runCrashPoint(const CrashPoint &point,
                               double survive_prob,
                               bool open_persist_window = true);

    /** Host reference prefix sums. */
    std::vector<std::uint64_t> referencePrefix() const;

    /** Blocks skipped by the sentinel check in the last kernel run. */
    std::uint64_t blocksSkipped() const { return blocks_skipped_; }

    /** Final durable prefix value at index @p i. */
    std::uint64_t durablePrefix(std::uint64_t i) const;

  private:
    /** Figure 8's kernel (partial sums with sentinel ordering). */
    void partialSumsKernel(const std::optional<CrashPoint> &crash);
    /** Offsets + final output stage. */
    void finalKernel();

    std::uint64_t psumAddr(std::uint64_t thread) const;
    std::uint64_t outAddr(std::uint64_t i) const;

    Machine *m_;
    PsParams p_;
    PmRegion psums_;  ///< u64 per thread (partial sums)
    PmRegion out_;    ///< u64 per element (final prefix)
    std::vector<std::uint32_t> input_;  ///< HBM-resident input
    std::uint64_t blocks_skipped_ = 0;  ///< bumped by thread 0 per block
};

} // namespace gpm
