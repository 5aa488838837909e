/**
 * @file
 * Deterministic persistency event stream — the gpmcheck substrate.
 *
 * A PmEventRecorder, when attached to a PmPool, captures every
 * durability-relevant action as one flat event list: PM stores,
 * system-scope fences (with the bytes they actually drained), CPU
 * range flushes, domain toggles (gpm_persist_begin/end), the crash
 * itself, and loads issued inside a workload's recovery window. The
 * executor brackets the stream with launch begin/end markers carrying
 * kernel name, geometry, the crash-armed flag, and the running
 * thread-phase so every event has exact kernel/phase/owner
 * provenance.
 *
 * Determinism contract: stores and fences reach the pool in
 * block-major sequential order, so the captured stream is
 * bit-identical at any sweep worker count. streamHash() is the cheap
 * fingerprint the determinism tests compare.
 *
 * The recorder is also where workloads declare *intent*: which PM
 * ranges hold recoverable data, which hold commit records (log
 * tails, checkpoint flips), what the atomic-update granule is, and
 * which ranges must persist before which. The analyzer
 * (analysis/analyzer.hpp) replays the event stream against these
 * declarations to prove or refute persist-ordering properties
 * without crashing anything.
 *
 * Disabled path: the pool holds a plain recorder pointer, null by
 * default; every hook is a single pointer test, the same
 * one-load-and-branch budget the telemetry layer spends.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "memsim/sim_config.hpp"

namespace gpm {

/** Same alias as pm_pool.hpp (redeclaration of an alias is legal). */
using OwnerId = std::uint64_t;

enum class PmEventKind : std::uint8_t {
    LaunchBegin,   ///< kernel launch starts (addr=blocks, size=threads)
    LaunchEnd,     ///< launch retired or crashed out
    Store,         ///< PM store, visible at once (device or CPU owner)
    Fence,         ///< system-scope fence by owner
    FlushRange,    ///< CPU flush of [addr, addr+size)
    PersistAll,    ///< orderly-shutdown persist of everything pending
    DomainSet,     ///< persist-domain toggle (addr = new domain)
    Crash,         ///< power failure (addr = survive_prob * 1e6)
    RecoveryBegin, ///< workload recovery window opens
    RecoveryEnd,   ///< recovery window closes
    RecoveryRead,  ///< PM load issued inside the recovery window
};

/** One durability-relevant action, with provenance. */
struct PmEvent {
    PmEventKind kind{};
    PersistDomain domain{};    ///< domain in effect when recorded
    bool armed = false;        ///< inside a crash-armed launch
    std::uint32_t kernel = 0;  ///< interned name index + 1; 0 = host
    std::uint32_t launch = 0;  ///< launch ordinal (1-based); 0 = host
    std::uint32_t phase = 0;   ///< executor phase within the launch
    std::uint32_t ordinal = 0; ///< per-launch store/fence ordinal, 1-based
    OwnerId owner = 0;         ///< store/fence owner (CPU bit preserved)
    std::uint64_t addr = 0;
    std::uint64_t size = 0;
    std::uint64_t drained = 0; ///< bytes this event made durable
};

/** What a declared range holds. */
enum class PmRangeKind : std::uint8_t {
    Data,   ///< recoverable payload (rows, pairs, partial sums)
    Commit, ///< commit record: log tail, flag, checkpoint flip
};

/** A workload's declaration of durable intent for one PM range. */
struct PmDeclaredRange {
    std::string label;          ///< stable name, e.g. "gpkvs.data"
    std::uint64_t addr = 0;
    std::uint64_t size = 0;
    std::uint32_t atomic_unit = 0; ///< torn-update granule; 0 = none
    PmRangeKind kind = PmRangeKind::Data;
};

/** "Stores to `first` must be durable no later than stores to `then`";
 *  strict additionally forbids persisting in the same epoch (the
 *  coalesced-sentinel hazard: one fence draining entry and tail
 *  together can tear at crash-line granularity). */
struct PmOrderRule {
    std::string first;
    std::string then;
    bool strict = false;
};

/** Captures the event stream and the declaration registry. */
class PmEventRecorder
{
  public:
    // ---- declarations (workload / gpm-runtime intent) -----------------

    void
    declareRange(const std::string &label, std::uint64_t addr,
                 std::uint64_t size, std::uint32_t atomic_unit = 0,
                 PmRangeKind kind = PmRangeKind::Data)
    {
        for (PmDeclaredRange &r : ranges_) {
            if (r.label == label) {
                r = {label, addr, size, atomic_unit, kind};
                return;
            }
        }
        ranges_.push_back({label, addr, size, atomic_unit, kind});
    }

    void
    declareOrder(const std::string &first, const std::string &then,
                 bool strict)
    {
        for (const PmOrderRule &o : orders_)
            if (o.first == first && o.then == then)
                return;
        orders_.push_back({first, then, strict});
    }

    // ---- executor context ---------------------------------------------

    void
    launchBegin(const std::string &kernel_name, std::uint32_t blocks,
                std::uint32_t block_threads, bool armed)
    {
        cur_kernel_ = internKernel(kernel_name);
        cur_launch_ = ++launch_count_;
        cur_armed_ = armed;
        phase_ = 0;
        store_ord_ = 0;
        fence_ord_ = 0;
        push(PmEventKind::LaunchBegin, domain_, 0, blocks,
             block_threads, 0, 0);
    }

    void
    launchEnd()
    {
        push(PmEventKind::LaunchEnd, domain_, 0, 0, 0, 0, 0);
        cur_kernel_ = 0;
        cur_launch_ = 0;
        cur_armed_ = false;
        phase_ = 0;
    }

    void setPhase(std::uint32_t p) { phase_ = p; }

    void
    recoveryBegin()
    {
        in_recovery_ = true;
        push(PmEventKind::RecoveryBegin, domain_, 0, 0, 0, 0, 0);
    }

    void
    recoveryEnd()
    {
        push(PmEventKind::RecoveryEnd, domain_, 0, 0, 0, 0, 0);
        in_recovery_ = false;
    }

    bool inRecovery() const { return in_recovery_; }

    // ---- pool events ---------------------------------------------------

    void
    store(PersistDomain d, OwnerId owner, std::uint64_t addr,
          std::uint64_t size)
    {
        domain_ = d;
        push(PmEventKind::Store, d, owner, addr, size, ++store_ord_, 0);
    }

    void
    fence(PersistDomain d, OwnerId owner, std::uint64_t drained)
    {
        domain_ = d;
        push(PmEventKind::Fence, d, owner, 0, 0, ++fence_ord_, drained);
    }

    void
    flushRange(PersistDomain d, std::uint64_t addr, std::uint64_t size,
               std::uint64_t drained)
    {
        domain_ = d;
        push(PmEventKind::FlushRange, d, 0, addr, size, 0, drained);
    }

    void
    persistAll(PersistDomain d, std::uint64_t drained)
    {
        domain_ = d;
        push(PmEventKind::PersistAll, d, 0, 0, 0, 0, drained);
    }

    void
    domainSet(PersistDomain d)
    {
        domain_ = d;
        push(PmEventKind::DomainSet, d, 0,
             static_cast<std::uint64_t>(d), 0, 0, 0);
    }

    void
    crash(PersistDomain d, double survive_prob, std::uint64_t drained)
    {
        push(PmEventKind::Crash, d, 0,
             static_cast<std::uint64_t>(survive_prob * 1e6), 0, 0,
             drained);
    }

    void
    recoveryRead(PersistDomain d, std::uint64_t addr, std::uint64_t size)
    {
        push(PmEventKind::RecoveryRead, d, 0, addr, size, 0, 0);
    }

    // ---- access --------------------------------------------------------

    const std::vector<PmEvent> &events() const { return events_; }
    const std::vector<PmDeclaredRange> &ranges() const { return ranges_; }
    const std::vector<PmOrderRule> &orders() const { return orders_; }

    /** Kernel name for PmEvent::kernel (0 = host context). */
    const std::string &
    kernelName(std::uint32_t idx) const
    {
        static const std::string host = "host";
        return idx == 0 ? host : kernels_[idx - 1];
    }

    /** FNV fingerprint of the whole stream, field by field (stable
     *  across struct layout/padding changes). */
    std::uint64_t
    streamHash() const
    {
        std::uint64_t h = kFnvOffset;
        for (const std::string &k : kernels_)
            h = fnv1aStr(k, h);
        for (const PmEvent &e : events_) {
            h = fnv1aU64(static_cast<std::uint64_t>(e.kind), h);
            h = fnv1aU64(static_cast<std::uint64_t>(e.domain), h);
            h = fnv1aU64(e.armed, h);
            h = fnv1aU64(e.kernel, h);
            h = fnv1aU64(e.launch, h);
            h = fnv1aU64(e.phase, h);
            h = fnv1aU64(e.ordinal, h);
            h = fnv1aU64(e.owner, h);
            h = fnv1aU64(e.addr, h);
            h = fnv1aU64(e.size, h);
            h = fnv1aU64(e.drained, h);
        }
        return h;
    }

    void
    clear()
    {
        events_.clear();
        kernels_.clear();
        ranges_.clear();
        orders_.clear();
        cur_kernel_ = 0;
        cur_launch_ = 0;
        launch_count_ = 0;
        cur_armed_ = false;
        phase_ = 0;
        store_ord_ = 0;
        fence_ord_ = 0;
        in_recovery_ = false;
    }

  private:
    std::uint32_t
    internKernel(const std::string &name)
    {
        for (std::size_t i = 0; i < kernels_.size(); ++i)
            if (kernels_[i] == name)
                return static_cast<std::uint32_t>(i + 1);
        kernels_.push_back(name);
        return static_cast<std::uint32_t>(kernels_.size());
    }

    void
    push(PmEventKind kind, PersistDomain d, OwnerId owner,
         std::uint64_t addr, std::uint64_t size, std::uint32_t ordinal,
         std::uint64_t drained)
    {
        PmEvent e;
        e.kind = kind;
        e.domain = d;
        e.armed = cur_armed_;
        e.kernel = cur_kernel_;
        e.launch = cur_launch_;
        e.phase = phase_;
        e.ordinal = ordinal;
        e.owner = owner;
        e.addr = addr;
        e.size = size;
        e.drained = drained;
        events_.push_back(e);
    }

    std::vector<PmEvent> events_;
    std::vector<std::string> kernels_;
    std::vector<PmDeclaredRange> ranges_;
    std::vector<PmOrderRule> orders_;
    PersistDomain domain_ = PersistDomain::McDurable;
    std::uint32_t cur_kernel_ = 0;
    std::uint32_t cur_launch_ = 0;
    std::uint32_t launch_count_ = 0;
    bool cur_armed_ = false;
    std::uint32_t phase_ = 0;
    std::uint32_t store_ord_ = 0;
    std::uint32_t fence_ord_ = 0;
    bool in_recovery_ = false;
};

/** RAII recovery window: workloads open it around their recovery
 *  entry points so PM loads inside are recorded as RecoveryRead. */
class PmRecoveryScope
{
  public:
    explicit PmRecoveryScope(PmEventRecorder *rec) : rec_(rec)
    {
        if (rec_)
            rec_->recoveryBegin();
    }

    ~PmRecoveryScope()
    {
        if (rec_)
            rec_->recoveryEnd();
    }

    PmRecoveryScope(const PmRecoveryScope &) = delete;
    PmRecoveryScope &operator=(const PmRecoveryScope &) = delete;

  private:
    PmEventRecorder *rec_;
};

} // namespace gpm
