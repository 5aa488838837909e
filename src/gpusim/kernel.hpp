/**
 * @file
 * Kernel description for the SIMT execution model.
 *
 * A kernel is a sequence of *phases*. The simulator executes phase k
 * for every thread of a threadblock before any thread enters phase
 * k+1 — which is exactly the semantics of CUDA's __syncthreads(). A
 * CUDA kernel with no block-level barrier is a single phase; each
 * __syncthreads() in the original code becomes a phase boundary (see
 * the prefix-sum workload, which mirrors Figure 8 of the paper).
 *
 * Threads within a phase must not communicate through volatile shared
 * state (they conceptually run concurrently); communication happens
 * across phase boundaries, through PM, or through per-warp reductions
 * computed redundantly per lane.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace gpm {

class ThreadCtx;

/** One barrier-delimited section of a kernel, run per thread. */
using Phase = std::function<void(ThreadCtx &)>;

/**
 * Point at which a simulated crash (power failure) interrupts a
 * launch.
 *
 * The default trigger stops execution after @ref count individual
 * (thread, phase) executions have completed; sweeping that value over
 * [0, blocks * threads * phases) visits every interleaving boundary
 * the block-sequential executor can produce — the NVBitFI analog used
 * by the recovery experiments (section 6.2).
 *
 * The other triggers place the crash on *persistence-event* boundaries
 * instead, which is where failure-atomicity bugs hide (the fraction
 * grid almost never lands exactly between a store and its fence):
 *
 *  - BeforeFence: die just before the Nth system-scope fence of the
 *    launch executes — every store the fence was about to persist is
 *    still pending (just-before-persist).
 *  - AfterFence: die right after the Nth fence completes — that
 *    thread's stores are durable, everything later is lost
 *    (just-after-persist).
 *  - AfterPmStore: die immediately after the Nth PM store retires to
 *    the visible image. Swept over an insert's store sequence this
 *    crosses every intra-operation boundary, including mid-tail-bump
 *    in GpmLog::insert (tail stored, sentinel fence never reached).
 *
 * Event counts are global across the launch and deterministic under
 * the block-sequential execution order.
 */
struct CrashPoint {
    enum class Trigger : std::uint8_t {
        ThreadPhases,  ///< after @ref count (thread, phase) executions
        BeforeFence,   ///< just before the @ref count-th fence (1-based)
        AfterFence,    ///< right after the @ref count-th fence (1-based)
        AfterPmStore,  ///< right after the @ref count-th store (1-based)
    };

    std::uint64_t count = 0;
    Trigger trigger = Trigger::ThreadPhases;

    static CrashPoint
    afterThreadPhases(std::uint64_t n)
    {
        return {n, Trigger::ThreadPhases};
    }

    /** After the fraction @p frac of a launch's @p phases thread
     *  phases (rounded down). */
    static CrashPoint
    afterFraction(double frac, std::uint64_t phases)
    {
        return afterThreadPhases(static_cast<std::uint64_t>(
            frac * static_cast<double>(phases)));
    }

    static CrashPoint
    beforeFence(std::uint64_t n)
    {
        return {n, Trigger::BeforeFence};
    }

    static CrashPoint
    afterFence(std::uint64_t n)
    {
        return {n, Trigger::AfterFence};
    }

    static CrashPoint
    afterPmStore(std::uint64_t n)
    {
        return {n, Trigger::AfterPmStore};
    }

    /** Human-readable form ("phase:120", "fence<3", ...). */
    std::string
    describe() const
    {
        switch (trigger) {
          case Trigger::ThreadPhases:
            return "phase:" + std::to_string(count);
          case Trigger::BeforeFence:
            return "fence<" + std::to_string(count);
          case Trigger::AfterFence:
            return "fence>" + std::to_string(count);
          case Trigger::AfterPmStore:
            return "store>" + std::to_string(count);
        }
        return "?";
    }
};

/** A grid launch: geometry plus the phase list. */
struct KernelDesc {
    std::string name;               ///< for reports and diagnostics
    std::uint32_t blocks = 1;       ///< threadblocks in the grid
    std::uint32_t block_threads = 32;  ///< threads per block
    std::vector<Phase> phases;      ///< barrier-delimited stages
    std::optional<CrashPoint> crash;   ///< fault-injection point

    /**
     * True for iterations of a persistent kernel: the grid was
     * launched once and loops on-device (cooperative-groups style),
     * so per-iteration launch overhead is not charged. GPM's BFS runs
     * this way — the paper credits its 85x over CAP-fs to avoiding
     * exactly these per-iteration driver round trips.
     */
    bool no_launch_overhead = false;

    std::uint64_t
    totalThreads() const
    {
        return std::uint64_t(blocks) * block_threads;
    }
};

/** Thrown by the executor when a CrashPoint fires mid-launch. */
struct KernelCrashed {
    std::uint64_t executed_thread_phases = 0;
};

} // namespace gpm
