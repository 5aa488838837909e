#include "persistency_bugs/corpus.hpp"

#include <cstring>
#include <exception>

#include "common/hash.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "platform/machine.hpp"
#include "pmem/pm_events.hpp"
#include "workloads/workload.hpp"

namespace gpm {

namespace {

/** FNV-1a of the durable bytes of [addr, addr+size) of @p m's pool. */
std::uint64_t
durableHash(Machine &m, std::uint64_t addr, std::uint64_t size,
            std::uint64_t h = kFnvOffset)
{
    return fnv1a(m.pool().durableRange(addr, size).data(), size, h);
}

/** Same adapter boilerplate the production invariants use. */
template <typename Body>
TortureOutcome
runBugScenario(const DomainSetup &setup, std::uint64_t seed, Body &&body)
{
    TortureOutcome o;
    try {
        SimConfig cfg;
        Machine m(cfg, setup.kind, 1_MiB, seed);
        if (setup.recorder)
            m.pool().setRecorder(setup.recorder);
        const CrashOutcome c = body(m);
        o.fired = c.fired;
        o.recovery_ran = c.recovery_ran;
        o.strict_ok = c.strict_ok;
        o.state_hash = c.state_hash;
        const PmPoolStats &st = m.pool().stats();
        o.crashes = st.crashes;
        o.crash_sub_extents = st.crash_sub_extents;
        o.crash_survivors = st.crash_survivors;
    } catch (const std::exception &e) {
        o.error = e.what();
    }
    return o;
}

/**
 * Corpus scaffold: run the doomed kernel under the domain's persist
 * window, crash the pool once, recover under a fresh window inside a
 * recorder recovery scope, and report the invariant verdict.
 */
class BugInvariant : public RecoveryInvariant
{
  public:
    explicit BugInvariant(bool fixed) : fixed_(fixed) {}

    TortureOutcome
    run(const DomainSetup &setup, const CrashPoint &point,
        std::uint64_t seed, double survive_prob) const override
    {
        return runBugScenario(setup, seed, [&](Machine &m) {
            CrashOutcome o;
            const bool window = setup.open_persist_window &&
                                m.kind() == PlatformKind::Gpm;
            if (window)
                gpmPersistBegin(m);
            try {
                doomed(m, point);
            } catch (const KernelCrashed &) {
                o.fired = true;
            }
            m.pool().crash(survive_prob);
            // Reboot-time recovery always gets DDIO right, even when
            // the crashed run did not (llc-volatile cells).
            if (!window && m.kind() == PlatformKind::Gpm)
                gpmPersistBegin(m);
            {
                PmRecoveryScope rscope(m.pool().recorder());
                o.strict_ok = recover(m);
            }
            o.recovery_ran = true;
            o.state_hash = stateHash(m);
            if (m.kind() == PlatformKind::Gpm)
                gpmPersistEnd(m);
            return o;
        });
    }

  protected:
    /** Map regions, declare intent, run the armed kernel. The
     *  regions live in the scenario's pool: recover() and stateHash()
     *  look them up there, so the adapter holds no scenario state. */
    virtual void doomed(Machine &m, const CrashPoint &point) const = 0;

    /** Durable-state invariant over the post-crash pool. */
    virtual bool recover(Machine &m) const = 0;

    virtual std::uint64_t stateHash(Machine &m) const = 0;

    bool fixed_;
};

std::string
suffixed(const char *base, bool fixed)
{
    return fixed ? std::string(base) + "-fixed" : base;
}

// ---- drop-fence --------------------------------------------------------
// GpmLog::insert-style append, minus the fence that seals the entry
// body before the tail bump: one fence drains entry + tail together,
// so the sentinel can survive a crash its entry did not.
class DropFenceBug : public BugInvariant
{
  public:
    using BugInvariant::BugInvariant;

    std::string
    name() const override
    {
        return suffixed("drop-fence", fixed_);
    }

    std::uint64_t doomedThreadPhases() const override { return kThreads; }

  protected:
    static constexpr std::uint32_t kThreads = 8;
    static constexpr std::uint64_t kEntryBytes = 512;

    static std::uint64_t
    entryWord(std::uint32_t t, std::uint64_t i)
    {
        return (std::uint64_t(t + 1) << 32) ^
               (i * 0x9e3779b97f4a7c15ull) ^ 0xbadc0ffeeull;
    }

    void
    doomed(Machine &m, const CrashPoint &point) const override
    {
        const PmRegion entries = gpmMap(m, "bug.log.entries",
                                        kThreads * kEntryBytes, true);
        const PmRegion tails =
            gpmMap(m, "bug.log.tails", kThreads * 8, true);
        if (PmEventRecorder *rec = m.pool().recorder()) {
            rec->declareRange("bug.log.entries", entries.offset,
                              kThreads * kEntryBytes, 0,
                              PmRangeKind::Data);
            rec->declareRange("bug.log.tails", tails.offset,
                              kThreads * 8, 0, PmRangeKind::Commit);
            rec->declareOrder("bug.log.entries", "bug.log.tails",
                              /*strict=*/true);
        }
        KernelDesc k;
        k.name = suffixed("bug_log_append", fixed_);
        k.blocks = 1;
        k.block_threads = kThreads;
        k.crash = point;
        k.phases.push_back([this, entries, tails](ThreadCtx &ctx) {
            const std::uint32_t t = ctx.threadIdx();
            std::uint64_t words[kEntryBytes / 8];
            for (std::uint64_t i = 0; i < kEntryBytes / 8; ++i)
                words[i] = entryWord(t, i);
            ctx.pmWrite(entries.offset + t * kEntryBytes, words,
                        kEntryBytes);
            if (fixed_)
                ctx.threadfenceSystem();  // seal entry before the bump
            ctx.pmStore<std::uint64_t>(tails.offset + t * 8, 1);
            ctx.threadfenceSystem();
        });
        m.runKernel(k);
    }

    bool
    recover(Machine &m) const override
    {
        const PmRegion entries = m.pool().region("bug.log.entries");
        const PmRegion tails = m.pool().region("bug.log.tails");
        bool ok = true;
        for (std::uint32_t t = 0; t < kThreads; ++t) {
            if (m.pool().loadDurable<std::uint64_t>(
                    tails.offset + t * 8) != 1)
                continue;  // never claimed: nothing to check
            for (std::uint64_t i = 0; i < kEntryBytes / 8; ++i)
                if (m.pool().loadDurable<std::uint64_t>(
                        entries.offset + t * kEntryBytes + i * 8) !=
                    entryWord(t, i))
                    ok = false;
        }
        return ok;
    }

    std::uint64_t
    stateHash(Machine &m) const override
    {
        const PmRegion entries = m.pool().region("bug.log.entries");
        const PmRegion tails = m.pool().region("bug.log.tails");
        const std::uint64_t h =
            durableHash(m, entries.offset, kThreads * kEntryBytes);
        return durableHash(m, tails.offset, kThreads * 8, h);
    }
};

// ---- reorder-flip ------------------------------------------------------
// Checkpoint whose generation flip runs in the phase *before* the
// data copy: the sentinel is durable while the data it claims is not
// even written yet.
class ReorderFlipBug : public BugInvariant
{
  public:
    using BugInvariant::BugInvariant;

    std::string
    name() const override
    {
        return suffixed("reorder-flip", fixed_);
    }

    std::uint64_t
    doomedThreadPhases() const override
    {
        return 2ull * kThreads;
    }

  protected:
    static constexpr std::uint32_t kThreads = 4;
    static constexpr std::uint64_t kSliceWords = 32;  // 256 B / thread

    static std::uint64_t
    imageWord(std::uint64_t gen, std::uint64_t w)
    {
        return (gen + 1) * 0x100000001b3ull ^ (w << 7) ^ w;
    }

    void
    doomed(Machine &m, const CrashPoint &point) const override
    {
        const std::uint64_t bytes = kThreads * kSliceWords * 8;
        const PmRegion data = gpmMap(m, "bug.ckpt.data", bytes, true);
        const PmRegion meta = gpmMap(m, "bug.ckpt.meta", 8, true);
        if (PmEventRecorder *rec = m.pool().recorder()) {
            rec->declareRange("bug.ckpt.data", data.offset, bytes, 8,
                              PmRangeKind::Data);
            rec->declareRange("bug.ckpt.meta", meta.offset, 8, 8,
                              PmRangeKind::Commit);
            rec->declareOrder("bug.ckpt.data", "bug.ckpt.meta",
                              /*strict=*/true);
        }
        // Generation 0 image + sentinel, durably in place.
        std::vector<std::uint64_t> img(kThreads * kSliceWords);
        for (std::uint64_t w = 0; w < img.size(); ++w)
            img[w] = imageWord(0, w);
        m.cpuWritePersist(data.offset, img.data(), bytes, 1);
        const std::uint64_t zero = 0;
        m.cpuWritePersist(meta.offset, &zero, 8, 1);

        KernelDesc k;
        k.name = suffixed("bug_ckpt", fixed_);
        k.blocks = 1;
        k.block_threads = kThreads;
        k.crash = point;
        const auto copy = [data](ThreadCtx &ctx) {
            const std::uint64_t base =
                std::uint64_t(ctx.threadIdx()) * kSliceWords;
            for (std::uint64_t i = 0; i < kSliceWords; ++i)
                ctx.pmStore<std::uint64_t>(
                    data.offset + (base + i) * 8,
                    imageWord(1, base + i));
            ctx.threadfenceSystem();
        };
        const auto flip = [meta](ThreadCtx &ctx) {
            if (ctx.threadIdx() != 0)
                return;
            ctx.pmStore<std::uint64_t>(meta.offset, 1);
            ctx.threadfenceSystem();
        };
        if (fixed_) {  // copy, barrier, then flip
            k.phases.push_back(copy);
            k.phases.push_back(flip);
        } else {  // the reorder: flip commits a copy that never ran
            k.phases.push_back(flip);
            k.phases.push_back(copy);
        }
        m.runKernel(k);
    }

    bool
    recover(Machine &m) const override
    {
        const PmRegion data = m.pool().region("bug.ckpt.data");
        const PmRegion meta = m.pool().region("bug.ckpt.meta");
        const std::uint64_t gen =
            m.pool().loadDurable<std::uint64_t>(meta.offset);
        if (gen > 1)
            return false;
        bool ok = true;
        for (std::uint64_t w = 0; w < kThreads * kSliceWords; ++w)
            if (m.pool().loadDurable<std::uint64_t>(data.offset +
                                                    w * 8) !=
                imageWord(gen, w))
                ok = false;
        return ok;
    }

    std::uint64_t
    stateHash(Machine &m) const override
    {
        const PmRegion data = m.pool().region("bug.ckpt.data");
        const PmRegion meta = m.pool().region("bug.ckpt.meta");
        const std::uint64_t h =
            durableHash(m, data.offset, kThreads * kSliceWords * 8);
        return durableHash(m, meta.offset, 8, h);
    }
};

// ---- coalesced-tail ----------------------------------------------------
// The record's commit tail abuts its payload, so the pool's
// last-extent coalescing merges both into one pending extent; the
// single fence then seals payload and tail in the same epoch, and a
// crash tears the merged extent at 128 B granularity.
class CoalescedTailBug : public BugInvariant
{
  public:
    using BugInvariant::BugInvariant;

    std::string
    name() const override
    {
        return suffixed("coalesced-tail", fixed_);
    }

    std::uint64_t doomedThreadPhases() const override { return 1; }

  protected:
    static constexpr std::uint64_t kPayloadBytes = 512;

    static std::uint64_t
    payloadWord(std::uint64_t i)
    {
        return 0xfeedface00000000ull ^ (i * 0x9e3779b97f4a7c15ull);
    }

    void
    doomed(Machine &m, const CrashPoint &point) const override
    {
        const PmRegion record =
            gpmMap(m, "bug.rec", kPayloadBytes + 8, true);
        if (PmEventRecorder *rec = m.pool().recorder()) {
            rec->declareRange("bug.rec.payload", record.offset,
                              kPayloadBytes, 0, PmRangeKind::Data);
            rec->declareRange("bug.rec.tail",
                              record.offset + kPayloadBytes, 8, 0,
                              PmRangeKind::Commit);
            rec->declareOrder("bug.rec.payload", "bug.rec.tail",
                              /*strict=*/true);
        }
        KernelDesc k;
        k.name = suffixed("bug_record_append", fixed_);
        k.blocks = 1;
        k.block_threads = 32;
        k.crash = point;
        k.phases.push_back([this, record](ThreadCtx &ctx) {
            if (ctx.threadIdx() != 0)
                return;
            std::uint64_t words[kPayloadBytes / 8];
            for (std::uint64_t i = 0; i < kPayloadBytes / 8; ++i)
                words[i] = payloadWord(i);
            ctx.pmWrite(record.offset, words, kPayloadBytes);
            if (fixed_)
                ctx.threadfenceSystem();  // drain before the tail abuts
            ctx.pmStore<std::uint64_t>(record.offset + kPayloadBytes, 1);
            ctx.threadfenceSystem();
        });
        m.runKernel(k);
    }

    bool
    recover(Machine &m) const override
    {
        const PmRegion record = m.pool().region("bug.rec");
        if (m.pool().loadDurable<std::uint64_t>(record.offset +
                                                kPayloadBytes) != 1)
            return true;
        bool ok = true;
        for (std::uint64_t i = 0; i < kPayloadBytes / 8; ++i)
            if (m.pool().loadDurable<std::uint64_t>(record.offset +
                                                    i * 8) !=
                payloadWord(i))
                ok = false;
        return ok;
    }

    std::uint64_t
    stateHash(Machine &m) const override
    {
        const PmRegion record = m.pool().region("bug.rec");
        return durableHash(m, record.offset, kPayloadBytes + 8);
    }
};

// ---- torn-value --------------------------------------------------------
// A 16 B KVS value written as two 8 B stores that persist in
// different epochs: a crash between them leaves a key without its
// value. No undo log protects the slot.
class TornValueBug : public BugInvariant
{
  public:
    using BugInvariant::BugInvariant;

    std::string
    name() const override
    {
        return suffixed("torn-value", fixed_);
    }

    std::uint64_t doomedThreadPhases() const override { return kThreads; }

  protected:
    static constexpr std::uint32_t kThreads = 4;

    static std::uint64_t
    keyOf(std::uint32_t t)
    {
        return 0x1000 + t;
    }

    static std::uint64_t
    valOf(std::uint32_t t)
    {
        return 0xabcd0000 + t;
    }

    void
    doomed(Machine &m, const CrashPoint &point) const override
    {
        const PmRegion slots = gpmMap(m, "bug.slots", kThreads * 16, true);
        if (PmEventRecorder *rec = m.pool().recorder()) {
            rec->declareRange("bug.slots", slots.offset, kThreads * 16,
                              16, PmRangeKind::Data);
        }
        KernelDesc k;
        k.name = suffixed("bug_kvs_put", fixed_);
        k.blocks = 1;
        k.block_threads = kThreads;
        k.crash = point;
        k.phases.push_back([this, slots](ThreadCtx &ctx) {
            const std::uint32_t t = ctx.threadIdx();
            const std::uint64_t slot = slots.offset + t * 16ull;
            if (fixed_) {
                const std::uint64_t pair[2] = {keyOf(t), valOf(t)};
                ctx.pmWrite(slot, pair, 16);
                ctx.threadfenceSystem();
            } else {
                ctx.pmStore<std::uint64_t>(slot, keyOf(t));
                ctx.threadfenceSystem();
                ctx.pmStore<std::uint64_t>(slot + 8, valOf(t));
                ctx.threadfenceSystem();
            }
        });
        m.runKernel(k);
    }

    bool
    recover(Machine &m) const override
    {
        const PmRegion slots = m.pool().region("bug.slots");
        bool ok = true;
        for (std::uint32_t t = 0; t < kThreads; ++t) {
            const std::uint64_t k = m.pool().loadDurable<std::uint64_t>(
                slots.offset + t * 16ull);
            const std::uint64_t v = m.pool().loadDurable<std::uint64_t>(
                slots.offset + t * 16ull + 8);
            const bool empty = k == 0 && v == 0;
            const bool put = k == keyOf(t) && v == valOf(t);
            if (!empty && !put)
                ok = false;
        }
        return ok;
    }

    std::uint64_t
    stateHash(Machine &m) const override
    {
        const PmRegion slots = m.pool().region("bug.slots");
        return durableHash(m, slots.offset, kThreads * 16);
    }
};

// ---- double-flush ------------------------------------------------------
// The host flushes a range the kernel already drained with its own
// fence: the second flush moves nothing. Pure perf lint; there is no
// crash window, so the finding carries no dynamic witness.
class DoubleFlushBug : public BugInvariant
{
  public:
    using BugInvariant::BugInvariant;

    std::string
    name() const override
    {
        return suffixed("double-flush", fixed_);
    }

    std::uint64_t doomedThreadPhases() const override { return 1; }

  protected:
    static constexpr std::uint64_t kBytes = 256;

    void
    doomed(Machine &m, const CrashPoint &point) const override
    {
        const PmRegion buf = gpmMap(m, "bug.buf", kBytes, true);
        if (PmEventRecorder *rec = m.pool().recorder()) {
            rec->declareRange("bug.buf", buf.offset, kBytes, 0,
                              PmRangeKind::Data);
        }
        KernelDesc k;
        k.name = suffixed("bug_fill", fixed_);
        k.blocks = 1;
        k.block_threads = 32;
        k.crash = point;
        k.phases.push_back([buf](ThreadCtx &ctx) {
            if (ctx.threadIdx() != 0)
                return;
            for (std::uint64_t i = 0; i < kBytes / 8; ++i)
                ctx.pmStore<std::uint64_t>(buf.offset + i * 8,
                                           0xd00d + i);
            ctx.threadfenceSystem();
        });
        m.runKernel(k);
        if (!fixed_)  // belt-and-braces flush of already-durable data
            m.cpuPersistRange(buf.offset, kBytes, 1);
    }

    bool
    recover(Machine &m) const override
    {
        const PmRegion buf = m.pool().region("bug.buf");
        bool ok = true;
        for (std::uint64_t i = 0; i < kBytes / 8; ++i) {
            const std::uint64_t v = m.pool().loadDurable<std::uint64_t>(
                buf.offset + i * 8);
            if (v != 0 && v != 0xd00d + i)
                ok = false;
        }
        return ok;
    }

    std::uint64_t
    stateHash(Machine &m) const override
    {
        const PmRegion buf = m.pool().region("bug.buf");
        return durableHash(m, buf.offset, kBytes);
    }
};

// ---- host-only-commit --------------------------------------------------
// A declared commit range only the host ever stores to: no
// crash-armed launch can reach it, so the torture matrix exercises
// none of its ordering. Dead coverage, not a durability bug.
class HostOnlyCommitBug : public BugInvariant
{
  public:
    using BugInvariant::BugInvariant;

    std::string
    name() const override
    {
        return suffixed("host-only-commit", fixed_);
    }

    std::uint64_t doomedThreadPhases() const override { return 1; }

  protected:
    static constexpr std::uint64_t kBytes = 256;

    void
    doomed(Machine &m, const CrashPoint &point) const override
    {
        const PmRegion data = gpmMap(m, "bug.data", kBytes, true);
        const PmRegion flag = gpmMap(m, "bug.flag", 8, true);
        if (PmEventRecorder *rec = m.pool().recorder()) {
            rec->declareRange("bug.data", data.offset, kBytes, 0,
                              PmRangeKind::Data);
            rec->declareRange("bug.flag", flag.offset, 8, 0,
                              PmRangeKind::Commit);
        }
        const std::uint64_t one = 1;
        m.cpuWritePersist(flag.offset, &one, 8, 1);
        KernelDesc k;
        k.name = suffixed("bug_worker", fixed_);
        k.blocks = 1;
        k.block_threads = 32;
        k.crash = point;
        k.phases.push_back([this, data, flag](ThreadCtx &ctx) {
            if (ctx.threadIdx() != 0)
                return;
            for (std::uint64_t i = 0; i < kBytes / 8; ++i)
                ctx.pmStore<std::uint64_t>(data.offset + i * 8,
                                           0xcafe + i);
            if (fixed_)  // the device owns the commit record too
                ctx.pmStore<std::uint64_t>(flag.offset, 2);
            ctx.threadfenceSystem();
        });
        m.runKernel(k);
    }

    bool
    recover(Machine &m) const override
    {
        const PmRegion data = m.pool().region("bug.data");
        bool ok = true;
        for (std::uint64_t i = 0; i < kBytes / 8; ++i) {
            const std::uint64_t v = m.pool().loadDurable<std::uint64_t>(
                data.offset + i * 8);
            if (v != 0 && v != 0xcafe + i)
                ok = false;
        }
        return ok;
    }

    std::uint64_t
    stateHash(Machine &m) const override
    {
        const PmRegion data = m.pool().region("bug.data");
        const PmRegion flag = m.pool().region("bug.flag");
        const std::uint64_t h = durableHash(m, data.offset, kBytes);
        return durableHash(m, flag.offset, 8, h);
    }
};

// ---- late-redo ---------------------------------------------------------
// GpmHeap's redo protocol inverted: the kernel publishes allocation
// bitmap bits and only afterwards writes the redo record that
// justifies them. A crash after the publication fence leaves durable
// bits no record explains — leaked slots recovery cannot reconcile.
// The fixed twin is the real heap shape: the *host* persists the
// whole record before the kernel publishes a single bit.
class LateRedoBug : public BugInvariant
{
  public:
    using BugInvariant::BugInvariant;

    std::string
    name() const override
    {
        return suffixed("late-redo", fixed_);
    }

    std::uint64_t doomedThreadPhases() const override { return kSlots; }

  protected:
    static constexpr std::uint32_t kSlots = 8;  ///< one per thread

    void
    doomed(Machine &m, const CrashPoint &point) const override
    {
        const PmRegion bitmap =
            gpmMap(m, "bug.heap.bitmap", kSlots * 8, true);
        const PmRegion redo = gpmMap(m, "bug.heap.redo", kSlots * 8, true);
        if (PmEventRecorder *rec = m.pool().recorder()) {
            rec->declareRange("bug.heap.bitmap", bitmap.offset,
                              kSlots * 8, 0, PmRangeKind::Data);
            rec->declareRange("bug.heap.redo", redo.offset, kSlots * 8,
                              0, PmRangeKind::Commit);
            // The record must be durable before the bits it covers —
            // exactly GpmHeap::setup()'s declaration.
            rec->declareOrder("bug.heap.redo", "bug.heap.bitmap",
                              /*strict=*/false);
        }
        if (fixed_) {
            // Host-written record first (GpmHeap::txBegin's shape).
            std::uint64_t rec_words[kSlots];
            for (std::uint32_t t = 0; t < kSlots; ++t)
                rec_words[t] = 1;
            m.cpuWritePersist(redo.offset, rec_words, kSlots * 8, 1);
        }
        KernelDesc k;
        k.name = suffixed("bug_heap_alloc", fixed_);
        k.blocks = 1;
        k.block_threads = kSlots;
        k.crash = point;
        k.phases.push_back([this, bitmap, redo](ThreadCtx &ctx) {
            const std::uint32_t t = ctx.threadIdx();
            ctx.pmStore<std::uint64_t>(bitmap.offset + t * 8, 1);
            ctx.threadfenceSystem();  // the bit is now durable...
            if (!fixed_) {  // ...and only then does its record follow
                ctx.pmStore<std::uint64_t>(redo.offset + t * 8, 1);
                ctx.threadfenceSystem();
            }
        });
        m.runKernel(k);
    }

    bool
    recover(Machine &m) const override
    {
        const PmRegion bitmap = m.pool().region("bug.heap.bitmap");
        const PmRegion redo = m.pool().region("bug.heap.redo");
        // A record without its bit rolls forward (redo semantics); a
        // bit without its record is a leaked slot — the violation.
        bool ok = true;
        for (std::uint32_t t = 0; t < kSlots; ++t) {
            const std::uint64_t bit =
                m.pool().loadDurable<std::uint64_t>(bitmap.offset +
                                                    t * 8);
            const std::uint64_t rec =
                m.pool().loadDurable<std::uint64_t>(redo.offset +
                                                    t * 8);
            if (bit > 1 || rec > 1)
                ok = false;
            if (bit == 1 && rec == 0)
                ok = false;
        }
        return ok;
    }

    std::uint64_t
    stateHash(Machine &m) const override
    {
        const PmRegion bitmap = m.pool().region("bug.heap.bitmap");
        const PmRegion redo = m.pool().region("bug.heap.redo");
        std::uint64_t h = durableHash(m, bitmap.offset, kSlots * 8);
        return durableHash(m, redo.offset, kSlots * 8, h);
    }
};

} // namespace

std::vector<std::string>
registeredBugs()
{
    return {"drop-fence",       "drop-fence-fixed",
            "reorder-flip",     "reorder-flip-fixed",
            "coalesced-tail",   "coalesced-tail-fixed",
            "torn-value",       "torn-value-fixed",
            "double-flush",     "double-flush-fixed",
            "host-only-commit", "host-only-commit-fixed",
            "late-redo",        "late-redo-fixed"};
}

std::unique_ptr<RecoveryInvariant>
makeBugInvariant(const std::string &name)
{
    const bool fixed = name.size() > 6 &&
                       name.compare(name.size() - 6, 6, "-fixed") == 0;
    const std::string base =
        fixed ? name.substr(0, name.size() - 6) : name;
    if (base == "drop-fence")
        return std::make_unique<DropFenceBug>(fixed);
    if (base == "reorder-flip")
        return std::make_unique<ReorderFlipBug>(fixed);
    if (base == "coalesced-tail")
        return std::make_unique<CoalescedTailBug>(fixed);
    if (base == "torn-value")
        return std::make_unique<TornValueBug>(fixed);
    if (base == "double-flush")
        return std::make_unique<DoubleFlushBug>(fixed);
    if (base == "host-only-commit")
        return std::make_unique<HostOnlyCommitBug>(fixed);
    if (base == "late-redo")
        return std::make_unique<LateRedoBug>(fixed);
    fatal("unknown corpus bug '", name, "'");
}

} // namespace gpm
