/**
 * @file
 * Crash-consistent simulated persistent-memory device.
 *
 * PmPool is the functional heart of the reproduction. It holds one
 * byte image, the *visible* contents: what loads observe while the
 * system runs (writes are immediately visible, UVA-style, regardless
 * of durability). The *durable* contents, what survives a crash, are
 * that image with the *pre-images* of the lines still pending patched
 * in: a pre-image holds the durable bytes of one 128 B crash line that
 * a pending store touched. Only those lines can differ, so the pool
 * never keeps a second full image.
 *
 * A store moves from visible-only to durable according to the machine's
 * PersistDomain (see sim_config.hpp):
 *
 *   - McDurable (GPM, DDIO off): device stores are pending until the
 *     issuing owner executes a system-scope fence (persistOwner).
 *   - LlcVolatile (DDIO on): device stores are pending until a CPU
 *     thread flushes their address range (persistRange); a device
 *     fence orders but does NOT persist — exactly the trap GPM-NDP
 *     and naive UVA writes fall into.
 *   - LlcDurable (eADR): stores are durable on arrival.
 *
 * crash() models a power failure: every still-pending extent is either
 * dropped or — with a caller-chosen probability — retained, modelling
 * cache lines that happened to be evicted to the media before the
 * failure. Arbitrary subsets of unpersisted writes surviving is the
 * adversarial reordering that undo logging must tolerate; recovery
 * tests sweep many eviction seeds (the NVBitFI analog of section 6.2).
 *
 * Pending-log invariant: pending extents live in one append-order log,
 * chained per owner. A store merges only into its owner's last extent,
 * and crash() rolls lines owner-ascending, then in insertion order, so
 * the eviction RNG sees the extents in the same order whatever the
 * interleaving of owners.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "memsim/sim_config.hpp"

namespace gpm {

class PmEventRecorder;

/**
 * A zero-filled byte image, recycled between owners through one
 * process-wide free list.
 *
 * The image lives in an anonymous private mapping, so a fresh instance
 * is O(1) to build and reads as zero everywhere. What a sweep pays for
 * instead is the first-touch fault on every page an owner writes, and
 * the munmap that frees those pages again. So a released mapping is
 * not unmapped. The owner zeroes the pages it wrote (markDirty) and
 * hands the mapping, with a bitmap of its resident 4 KiB pages, to the
 * free list. The next instance of the same size takes it over as it
 * is, whatever it writes where: a pool's image and CAP's device copy
 * of gpKVS's store share the list.
 *
 * Every byte a successor can see is zero; only where the pages live
 * differs. Pages follow addresses, not layouts: a mapping keeps at
 * most the union of the pages ever written through it, so it never
 * holds more than the widest footprint its owners had at each offset.
 *
 * The free list holds at most as many idle mappings as the peak number
 * of instances ever live at once. A moved-from instance recycles
 * nothing.
 */
class RecycledImage
{
  public:
    /** Dirty/resident tracking granularity: the common host page. */
    static constexpr std::uint64_t kPageBytes = 4096;

    /** A zero-filled image of @p size bytes. */
    explicit RecycledImage(std::size_t size);
    RecycledImage(RecycledImage &&o) noexcept;
    RecycledImage(const RecycledImage &) = delete;
    RecycledImage &operator=(const RecycledImage &) = delete;
    RecycledImage &operator=(RecycledImage &&) = delete;
    ~RecycledImage();

    std::size_t size() const { return size_; }
    std::uint8_t *data() { return base_; }
    const std::uint8_t *data() const { return base_; }

    /** Note that [addr, addr+size) may now hold non-zero bytes. Every
     *  byte that enters the image must be covered. */
    void
    markDirty(std::uint64_t addr, std::uint64_t size)
    {
        if (size == 0)
            return;
        const std::uint64_t last = (addr + size - 1) / kPageBytes;
        for (std::uint64_t p = addr / kPageBytes; p <= last; ++p)
            dirty_[p / 64] |= std::uint64_t(1) << (p % 64);
    }

  private:
    void release();

    std::uint8_t *base_ = nullptr;
    std::size_t size_ = 0;
    std::vector<std::uint64_t> resident_;  ///< zero pages kept resident
    std::vector<std::uint64_t> dirty_;     ///< pages this owner wrote
};

/**
 * Host-only hint: prefetch, with write intent, the host cache lines of
 * [p, p + bytes). Changes no simulated state (DESIGN.md decision #10).
 */
inline void
prefetchHostLines(const void *p, std::uint64_t bytes)
{
    constexpr std::uintptr_t kLine = 64;
    const auto lo = reinterpret_cast<std::uintptr_t>(p);
    for (std::uintptr_t a = lo & ~(kLine - 1); a < lo + bytes; a += kLine)
        __builtin_prefetch(reinterpret_cast<const void *>(a), /*rw=*/1);
}

/** Identity of a writer for fence scoping (GPU thread / CPU thread). */
using OwnerId = std::uint64_t;

/** Owner namespace tag for CPU threads (GPU owners count from zero). */
constexpr OwnerId kCpuOwnerBase = OwnerId(1) << 62;

/** A named allocation inside the pool (the gpm_map unit). */
struct PmRegion {
    std::uint64_t offset = 0;  ///< byte offset of the region in the pool
    std::uint64_t size = 0;    ///< region size in bytes
};

/**
 * Lifetime counters for crash/persist activity. The torture runner
 * asserts on these after each scenario: exactly one crash happened,
 * zero-probability crashes produced zero survivors, and eADR crashes
 * never reached the probabilistic tearing path at all.
 */
struct PmPoolStats {
    std::uint64_t crashes = 0;           ///< crash() invocations
    std::uint64_t extents_drained = 0;   ///< extents copied to durable
    std::uint64_t crash_sub_extents = 0; ///< 128 B lines rolled at crash
    std::uint64_t crash_survivors = 0;   ///< lines that won the roll
    std::uint64_t extents_merged = 0;    ///< appends coalesced into the
                                         ///< owner's previous extent
};

/**
 * The records a host store actually changed inside its range:
 * ascending, disjoint offsets from the range's start, each @c bytes
 * long.
 */
struct WrittenRecords {
    std::span<const std::uint64_t> offsets;
    std::uint64_t bytes = 0;
};

/**
 * The durable bytes of one pool range (PmPool::durableRange): the
 * pool's image itself when no pre-image overlaps the range, otherwise
 * a copy with the pre-images patched in. Valid until the pool next
 * changes.
 */
class DurableBytes
{
  public:
    DurableBytes(DurableBytes &&) = default;
    DurableBytes(const DurableBytes &) = delete;
    DurableBytes &operator=(const DurableBytes &) = delete;
    DurableBytes &operator=(DurableBytes &&) = delete;

    const std::uint8_t *data() const { return data_; }

  private:
    friend class PmPool;
    explicit DurableBytes(const std::uint8_t *image) : data_(image) {}
    explicit DurableBytes(std::vector<std::uint8_t> patched)
        : data_(patched.data()), patched_(std::move(patched))
    {
    }

    const std::uint8_t *data_;
    std::vector<std::uint8_t> patched_;  ///< empty when data_ is the image
};

/** Simulated byte-addressable persistent memory with crash semantics. */
class PmPool
{
  public:
    /**
     * @param capacity  Pool size in bytes.
     * @param domain    Where the persistence-domain boundary sits.
     * @param seed      Seed for crash-time partial-eviction decisions.
     */
    PmPool(std::size_t capacity, PersistDomain domain,
           std::uint64_t seed = 1);

    std::size_t capacity() const { return image_.size(); }
    PersistDomain domain() const { return domain_; }

    /** Change the persistence domain (gpm_persist_begin/end toggling). */
    void setDomain(PersistDomain d);

    // ---- persistency event stream (gpmcheck) ---------------------------

    /**
     * Attach (or detach, with nullptr) a persistency event recorder.
     * Every durability-relevant pool action is then recorded with its
     * current-domain context; the default null pointer keeps the hot
     * paths at a single pointer test (telemetry-style disabled path).
     * The recorder must outlive the pool or be detached first.
     */
    void setRecorder(PmEventRecorder *rec);

    /** The attached recorder, or nullptr. */
    PmEventRecorder *recorder() const { return recorder_; }

    // ---- region registry (gpm_map substrate) ---------------------------

    /**
     * Map a named region, creating it when @p create is true.
     *
     * Creation bump-allocates @p size bytes at 256 B alignment; opening
     * an existing region returns its recorded placement and requires
     * @p size to be zero or to match.
     */
    PmRegion map(const std::string &name, std::uint64_t size, bool create);

    /** True when a region of this name exists. */
    bool hasRegion(const std::string &name) const;

    /** Look up an existing region; fatal() when absent. */
    PmRegion region(const std::string &name) const;

    // ---- data path -------------------------------------------------------

    /** Store from a device (GPU) context. Visible at once; durability
     *  follows the persistence domain. */
    void deviceWrite(OwnerId owner, std::uint64_t addr, const void *src,
                     std::uint64_t size);

    /** Store from a CPU context (CAP paths). Pending until flushed,
     *  or durable immediately under eADR. */
    void cpuWrite(OwnerId owner, std::uint64_t addr, const void *src,
                  std::uint64_t size);

    /** Load from the visible image. */
    void read(std::uint64_t addr, void *dst, std::uint64_t size) const;

    /**
     * Host-only hint: warm the host cache lines of [addr, addr+bytes)
     * in the image, ahead of a store (and the pre-image it may save).
     * No modelled cost, no recorder event, no counter; a zero or
     * out-of-range request does nothing (DESIGN.md decision #10).
     */
    void prefetch(std::uint64_t addr, std::uint64_t bytes) const;

    /** Typed convenience load from the visible image. */
    template <typename T>
    T
    load(std::uint64_t addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    /** Typed convenience device store. */
    template <typename T>
    void
    storeDevice(OwnerId owner, std::uint64_t addr, const T &v)
    {
        deviceWrite(owner, addr, &v, sizeof(T));
    }

    // ---- persistence ------------------------------------------------------

    /**
     * System-scope fence semantics for @p owner's pending stores.
     *
     * Under McDurable this is a persist (GPM's gpm_persist); under
     * LlcVolatile it only orders (returns false so callers can detect
     * that durability was NOT achieved); under LlcDurable stores were
     * already durable.
     *
     * @return true when the owner's stores are durable after the call.
     */
    bool persistOwner(OwnerId owner);

    /** CPU flush path: persist all pending stores overlapping
     *  [addr, addr+size), regardless of owner (CLFLUSHOPT semantics). */
    void persistRange(std::uint64_t addr, std::uint64_t size);

    /**
     * cpuWrite of [addr, addr+size) followed by persistRange of the
     * same range, in one call: the same visible and durable contents,
     * recorder events, dirty pages and PmPoolStats as the pair.
     *
     * With @p written, only its records are copied from @p src. The
     * caller guarantees that the image already holds @p src's bytes
     * everywhere else in the range; the flush then makes the whole
     * range durable as it stands. Events, dirty pages and counters
     * still cover the whole range.
     */
    void cpuWritePersist(OwnerId owner, std::uint64_t addr,
                         const void *src, std::uint64_t size,
                         const WrittenRecords *written = nullptr);

    /** Persist everything pending (e.g. an orderly shutdown). */
    void persistAll();

    // ---- crash ------------------------------------------------------------

    /**
     * Power failure: every pending extent is first split at 128 B
     * cache-line boundaries and each sub-extent independently survives
     * with probability @p survive_prob (natural eviction before the
     * crash); everything else is lost and the image is reset to the
     * durable contents, i.e. the post-reboot state. The reset copies
     * back only the pre-images, after every line has been rolled, so
     * its cost is the lines the run left pending, not the capacity.
     *
     * Line granularity matters: a multi-chunk HCL entry or a 60 B row
     * straddling a line can be *torn* — partially durable — which is
     * precisely the adversarial state undo-log recovery must tolerate.
     * Per-extent survival could never produce it.
     *
     * Under LlcDurable (eADR) all pending extents drain — that is the
     * hardware guarantee.
     */
    void crash(double survive_prob = 0.0);

    /** Crash-granularity: survival is decided per this many bytes. */
    static constexpr std::uint64_t kCrashLineBytes = 128;

    /** Number of pending (visible but not durable) extents. */
    std::size_t pendingExtents() const;

    /** Pending bytes (sum of extent sizes). Stores that abut or
     *  overlap the owner's most recent extent coalesce on append, so
     *  a contiguous or repeatedly-rewritten stream never
     *  double-counts; only a re-touch of an *older* extent still can. */
    std::uint64_t pendingBytes() const;

    /** Lifetime crash/persist counters (see PmPoolStats). */
    const PmPoolStats &stats() const { return stats_; }

    // ---- inspection & file backing ------------------------------------

    /**
     * What a crash would preserve of [addr, addr+size): the image
     * itself when no pending line overlaps the range, which is every
     * clean run's verify, else a patched copy.
     */
    DurableBytes durableRange(std::uint64_t addr, std::uint64_t size) const;

    /** Image base: the visible contents. */
    const std::uint8_t *visible() const { return image_.data(); }

    /** Typed load of durable contents. */
    template <typename T>
    T
    loadDurable(std::uint64_t addr) const
    {
        T v;
        std::memcpy(&v, durableRange(addr, sizeof(T)).data(), sizeof(T));
        return v;
    }

    /** Serialize the durable contents + region table to @p path. */
    void saveDurable(const std::string &path) const;

    /** Restore a pool previously saved with saveDurable. */
    static PmPool loadDurable(const std::string &path,
                              PersistDomain domain,
                              std::uint64_t seed = 1);

  private:
    /** Index into log_; kNone ends an owner's chain or marks "no slot". */
    static constexpr std::uint32_t kNone = ~std::uint32_t(0);
    /** LogEntry::next of an extent a persist drained. */
    static constexpr std::uint32_t kDrained = kNone - 1;

    /** One pending extent, in the append-order log. */
    struct LogEntry {
        std::uint64_t addr;
        std::uint64_t size;
        OwnerId owner;
        std::uint32_t next;  ///< owner's next extent, kNone, or kDrained
        std::uint32_t pre;   ///< its line's pre-image when it lies in
                             ///< one line, else kNone
    };

    /** An owner's pending chain, in the open-addressed owner table.
     *  Slots stamped with an older epoch are empty. */
    struct OwnerSlot {
        OwnerId owner = 0;
        std::uint64_t epoch = 0;
        std::uint32_t head = kNone;
        std::uint32_t tail = kNone;  ///< the owner's last extent
    };

    /** A line's pre-image in the open-addressed pre-image table.
     *  Slots stamped with an older epoch are empty. */
    struct PreSlot {
        std::uint64_t line = 0;   ///< address / kCrashLineBytes
        std::uint64_t epoch = 0;
        std::uint32_t index = 0;  ///< into pre_lines_ and pre_bytes_
    };

    void checkRange(std::uint64_t addr, std::uint64_t size) const;
    void writeCommon(OwnerId owner, std::uint64_t addr, const void *src,
                     std::uint64_t size);
    /** Record a visible-only store as @p owner's pending extent; @p pre
     *  is its line's pre-image when it lies in one line, else kNone. */
    void appendExtent(OwnerId owner, std::uint64_t addr,
                      std::uint64_t size, std::uint32_t pre);
    /** [addr, addr+size) becomes durable: copy it into the pre-images
     *  it overlaps (@p pre, when it lies in that one line). */
    void drain(std::uint64_t addr, std::uint64_t size, std::uint32_t pre);
    /** Drain extent @p i, mark it drained and return its size. */
    std::uint64_t drainEntry(std::uint32_t i);

    /** The table slot holding @p line, or the empty slot it would
     *  take. */
    std::uint32_t preSlot(std::uint64_t line) const;
    /** @p line's index in pre_lines_, or kNone. */
    std::uint32_t findPreImage(std::uint64_t line) const;
    /** Save the current bytes of every line [addr, addr+size) touches
     *  that has no pre-image yet: a pending store is about to write
     *  them. Returns the line's pre-image when the range lies in one
     *  line, else kNone. */
    std::uint32_t savePreImages(std::uint64_t addr, std::uint64_t size);
    /** Double the pre-image table and re-insert this epoch's lines. */
    void growPreTable();
    /** Copy the image's bytes of [addr, addr+size) into the
     *  pre-images it overlaps: those bytes are durable now. */
    void refreshPreImages(std::uint64_t addr, std::uint64_t size);
    /** Call fn(index, lo, n) for each pre-image overlapping
     *  [addr, addr+size), with [lo, lo+n) the overlap. */
    template <typename Fn>
    void forEachPreImage(std::uint64_t addr, std::uint64_t size,
                         Fn &&fn) const;
    /** Pre-image @p i's byte for the pool address @p addr. */
    std::uint8_t *
    preImage(std::uint32_t i, std::uint64_t addr)
    {
        return pre_bytes_.data() + i * kCrashLineBytes +
               addr % kCrashLineBytes;
    }
    const std::uint8_t *
    preImage(std::uint32_t i, std::uint64_t addr) const
    {
        return pre_bytes_.data() + i * kCrashLineBytes +
               addr % kCrashLineBytes;
    }

    /** @p owner's table slot, or kNone when it has none this epoch. */
    std::uint32_t findOwner(OwnerId owner);
    /** @p owner's table slot, claimed when it has none. */
    std::uint32_t claimOwner(OwnerId owner);
    /** The table probe behind findOwner (and claimOwner when
     *  @p claim) once the last-owner check missed. */
    std::uint32_t probeOwner(OwnerId owner, bool claim);
    /** Re-insert only the owners with a pending chain, into a table
     *  that holds them at a load of at most 1/4. */
    void rehashOwners();
    /** Drop drained entries from the log and relink every chain. */
    void compactLog();
    /** After a persist: an empty log restarts (a new epoch empties
     *  the owner and pre-image tables), a mostly drained one is
     *  compacted. */
    void settleLog();

    /** First region whose name is not less than @p name. */
    std::vector<std::pair<std::string, PmRegion>>::const_iterator
    regionAt(const std::string &name) const;

    // Invariant: the durable contents are the image with the
    // pre-images patched in, and they differ from the image only
    // inside pending extents. A pending store first saves the lines it
    // touches that have no pre-image (writeCommon), so every pending
    // byte lies in a line with one. A write that is durable on
    // arrival (eADR, cpuWritePersist) refreshes the pre-images it
    // overlaps, drain refreshes an extent's before it stops being
    // pending, and the table empties with the log. crash() relies on
    // it to copy back just the pre-images instead of the whole image.
    // writeCommon, cpuWritePersist and loadDurable are the only places
    // new bytes enter the image, so they alone mark dirty pages.
    RecycledImage image_;
    PmEventRecorder *recorder_ = nullptr;

    // The pending extents. log_ holds them in append order; each
    // owner's live extents form a chain through LogEntry::next, in
    // that same order, from its owners_ slot. A store merges only into
    // its owner's tail. persistOwner drains a chain and leaves its
    // entries marked kDrained; persistRange drains whole overlapping
    // extents of any owner and compacts, so a chain never holds a
    // drained entry. crash() rolls lines owner-ascending, then in
    // insertion order: it sorts the pending owners, then walks each
    // chain. When nothing is pending the log is cleared and a new
    // epoch empties the owner table, both O(1), so steady state
    // allocates nothing.
    std::vector<LogEntry> log_;
    std::vector<OwnerSlot> owners_ = std::vector<OwnerSlot>(16);
    std::uint64_t epoch_ = 1;
    std::size_t owners_used_ = 0;  ///< slots stamped this epoch
    std::size_t live_ = 0;         ///< pending extents in log_
    std::uint32_t last_slot_ = kNone;  ///< slot of the last owner seen

    // The pre-images: pre_lines_[i]'s durable bytes are pre_bytes_[
    // i * kCrashLineBytes, +kCrashLineBytes), in capture order, and
    // pre_slots_ finds a line's index. A line keeps its pre-image
    // until the log empties; settleLog's new epoch then empties the
    // table in O(1), and the buffers keep their capacity.
    std::vector<PreSlot> pre_slots_ = std::vector<PreSlot>(64);
    std::vector<std::uint64_t> pre_lines_;
    std::vector<std::uint8_t> pre_bytes_;
    /** Sorted by name, the order saveDurable writes them in. */
    std::vector<std::pair<std::string, PmRegion>> regions_;
    std::uint64_t alloc_cursor_ = 0;
    PersistDomain domain_;
    Rng rng_;
    PmPoolStats stats_;
};

} // namespace gpm
