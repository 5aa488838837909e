/**
 * @file
 * Common result type and helpers for the GPMbench workloads (Table 1).
 *
 * Every workload exposes a Params struct with paper-shaped defaults
 * (scaled ~10-50x down from Table 1 so the functional simulation runs
 * in seconds; see DESIGN.md) and a run() entry point that executes the
 * workload on whatever platform the given Machine models.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "gpm/gpm_log.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "platform/machine.hpp"
#include "pmem/pm_events.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

struct CrashOutcome;

/** One expected durable image of a crash scenario, with its FNV-1a. */
struct CrashImage {
    std::vector<std::uint8_t> bytes;
    std::uint64_t rows = 0;  ///< gpDB: durable row count; 0 elsewhere
    std::uint64_t hash = 0;  ///< fnv1a(bytes)

    /** Build from @p n bytes at @p p, hashing them once. */
    CrashImage(const void *p, std::size_t n, std::uint64_t rows = 0);
    CrashImage() = default;

    /** The @p n bytes at @p p (with @p rows rows) are this image? */
    bool equals(const void *p, std::size_t n,
                std::uint64_t rows = 0) const;
};

/**
 * The expected durable states of one crash-capable workload's crash
 * scenarios: a pure function of the workload params and the crash
 * batch (GpKvs/GpDb/GpSrad::crashReference), built without a Machine.
 * Immutable once built, so one reference serves every scenario of a
 * torture run, on any number of sweep workers.
 *
 * A scenario reuses an image's hash only after its own bytes compared
 * equal to that image, so every state hash equals the one hashing the
 * scenario's own bytes gives (see DESIGN.md #7).
 */
struct CrashReference {
    std::uint32_t crash_batch = 0;  ///< batch (SRAD: iteration) doomed
    /** gpDB: the initial rows setup bulk-loads. */
    std::vector<std::uint8_t> initial;
    CrashImage pre_crash;  ///< every batch before crash_batch applied
    CrashImage committed;  ///< ...and crash_batch applied on top
    CrashImage final;      ///< SRAD: every iteration applied

    /** The committed-prefix rule of a transactional check: @p o.strict_ok
     *  when the @p n bytes at @p p (with @p rows rows) equal pre_crash,
     *  or committed when @p o never fired. Returns the bytes' FNV-1a,
     *  reused from an equal image. */
    std::uint64_t check(CrashOutcome &o, const void *p, std::size_t n,
                        std::uint64_t rows = 0) const;
};

/**
 * Outcome of one descriptor-armed crash run (the torture-matrix unit
 * of work). Each crash-capable workload exposes a runCrashPoint()
 * returning one of these after crash + reboot + recovery.
 *
 * strict_ok is the failure-atomicity invariant: the durable state
 * equals a committed-prefix state (either the pre-batch reference or,
 * when the armed point never fired and the batch committed, the
 * post-batch state). Under PersistDomain::LlcVolatile it is *expected*
 * to fail for transactional workloads — that observable failure is the
 * DDIO trap of section 6.1, and the torture runner records rather than
 * asserts it there.
 */
struct CrashOutcome {
    bool fired = false;        ///< the armed crash point triggered
    bool recovery_ran = false; ///< a recovery path executed post-reboot
    bool strict_ok = false;    ///< committed-prefix durability held
    std::uint64_t state_hash = 0;  ///< FNV of recovered durable state
};

/** Outcome of one workload execution on one platform. */
struct WorkloadResult {
    bool supported = true;     ///< false: platform cannot run it (GPUfs)
    SimNs op_ns = 0;           ///< operation time (compute + persistence)
    SimNs persist_ns = 0;      ///< persistence-only time where separable
                               ///< (checkpoint operations; 0 otherwise)
    SimNs recovery_ns = 0;     ///< restoration latency (Table 5); 0 if n/a
    std::uint64_t persisted_payload = 0;  ///< Table 4 numerator/denominator
    std::uint64_t pcie_write_bytes = 0;   ///< Fig 12 numerator
    double ops_done = 0;       ///< workload-specific operation count
    bool verified = true;      ///< functional output check passed

    /** Throughput in Mops/s over the operation time. */
    double
    mops() const
    {
        return op_ns > 0 ? ops_done * 1e3 / op_ns : 0.0;
    }
};

/** The crash-recoverable workloads (and the pmheap torture adapter's
 *  GpmMap), indexing kCrashSchedules. */
enum class CrashWorkload : std::uint8_t {
    Kvs, Db, Srad, PrefixSum, Bfs, Pmheap
};

/**
 * How a workload's crash run recovers and keeps its persist window
 * (DESIGN.md decision #5): transactional (recover when in flight; op_ns
 * is the clean prefix) or native resume (always recover, then finish;
 * op_ns runs from the reboot); the run's window per step or once;
 * whether it closes after the resume.
 */
struct CrashSchedule {
    const char *name;
    bool transactional;
    bool window_per_step;
    bool close_run_window;
};

inline constexpr CrashSchedule kCrashSchedules[] = {
    // name         transactional  window_per_step  close_run_window
    {"gpKVS",       true,          true,            false},
    {"gpDB",        true,          false,           false},
    {"SRAD",        false,         false,           true},
    {"prefix-sum",  false,         false,           false},
    {"BFS",         false,         false,           false},
    {"pmheap",      true,          true,            false},
};

/** A workload's hooks for runCrashSequence, called once per step
 *  (DESIGN.md decision #5); unused ones stay empty. */
struct CrashSteps {
    CrashWorkload workload = CrashWorkload::Kvs;
    std::uint32_t crash_step = 0;  ///< [0, crash_step) run clean
    std::function<void()> setup;
    /** A set @p armed arms the step's kernel; the step then returns
     *  right after it, never committing. */
    std::function<void(std::uint32_t s,
                       const std::optional<CrashPoint> &armed)>
        step;
    std::function<bool()> in_flight;   ///< transactional: recover?
    std::function<void()> recover;     ///< timed as recovery_ns
    std::function<void()> resume;      ///< native: finish the run
    std::function<double()> ops_done;
    /** Set strict_ok and state_hash; return WorkloadResult::verified. */
    std::function<bool(CrashOutcome &)> check;
};

/**
 * The crash-point driver behind every crash-recoverable workload's
 * runCrashPoint: set up, run the clean prefix, run the doomed step
 * armed with @p point, crash with @p survive_prob line survival,
 * reboot, recover, and check inside an `oracle/check` span.
 * @p open_persist_window false leaves DDIO on for the run (the GPM-NDP
 * trap); recovery then persists inside a window of its own.
 */
CrashOutcome runCrashSequence(Machine &m, const CrashSteps &s,
                              const CrashPoint &point,
                              double survive_prob,
                              bool open_persist_window,
                              WorkloadResult *result_out);

/**
 * Undo-log recovery (Figure 6(b)), shared by gpKVS and gpDB: a
 * `recovery/<kernel>` span over one @p threads-thread kernel on the
 * log at @p log_path. Each thread reads its Entry and, when it belongs
 * to the step the u32 at @p batch_addr names, has @p undo store the
 * old value, persists it and only then drops the entry, so recovery
 * stays recoverable (section 5.2). Finally clears the u32 in-flight
 * flag at @p flag_addr.
 */
template <typename Entry, typename Undo>
void
undoLogRecover(Machine &m, const char *kernel, const char *log_path,
               std::uint64_t threads, std::uint64_t batch_addr,
               std::uint64_t flag_addr, Undo &&undo)
{
    telemetry::Span span("recovery", kernel);
    telemetry::count("recovery.invocations");
    PmRecoveryScope rscope(m.pool().recorder());
    const std::uint32_t crashed = m.pool().load<std::uint32_t>(batch_addr);
    GpmLog log = GpmLog::open(m, log_path);
    KernelDesc k;
    k.name = kernel;
    k.blocks = static_cast<std::uint32_t>(ceilDiv(threads, 256));
    k.block_threads = 256;
    k.phases.push_back([&log, &undo, crashed](ThreadCtx &ctx) {
        Entry entry;
        // Entries of earlier, committed steps must not be undone.
        if (!log.read(ctx, &entry, sizeof(entry)) || entry.batch != crashed)
            return;
        undo(ctx, entry);
        gpmPersist(ctx);
        log.remove(ctx, sizeof(entry));
    });
    m.runKernel(k);
    m.advance(log.consumeSerializationNs());
    const std::uint32_t zero = 0;
    m.cpuWritePersist(flag_addr, &zero, 4, 1);
}

/**
 * A `workload` span over one host-side phase of a workload's run()
 * that the launches do not cover: "setup" (mapping regions, loading
 * initial state) or "verify" (the functional output check), with the
 * workload's key as its `workload` arg.
 */
class WorkloadSpan : public telemetry::Span
{
  public:
    WorkloadSpan(const char *phase, std::string_view workload)
        : telemetry::Span("workload", phase)
    {
        arg("workload", workload);
    }
};

/**
 * How many ops (gpKVS) or rows (gpDB update) ahead a transactional
 * kernel warms the host cache lines its random PM accesses will touch
 * (PmPool::prefetch). A host-only hint with no modelled effect
 * (DESIGN.md decision #10), hence a constant and not a parameter.
 */
inline constexpr std::uint32_t kPrefetchAhead = 16;

/**
 * Charge the simulated clock for GPU computation performed host-side.
 *
 * Compute-heavy phases (DNN math, stencils) execute functionally in
 * plain C++ for speed; their GPU cost is the max of ALU time and HBM
 * traffic time, plus one launch (the same composition Machine uses
 * for recorded kernels).
 */
inline void
chargeGpuCompute(Machine &m, double ops, std::uint64_t hbm_bytes,
                 bool charge_launch = true)
{
    const SimConfig &cfg = m.config();
    const SimNs compute = ops / cfg.gpu_ops_per_ns;
    const SimNs mem = transferNs(hbm_bytes, cfg.hbm_gbps);
    m.advance((charge_launch ? cfg.kernel_launch_ns : 0.0) +
              std::max(compute, mem));
}

} // namespace gpm
