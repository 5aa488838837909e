/**
 * @file
 * GpmHeap: a persistent size-class allocator over PmPool.
 *
 * Every workload used to hand-roll its persistence layout; GpmHeap is
 * the reusable bottom half of the transactional layer (docs/pmheap.md,
 * DESIGN.md decision #9). It carves three PM regions out of the pool:
 *
 *   <name>.slabs    fixed-size object slots, segregated by size class
 *   <name>.bitmap   one bit per slot: durably allocated or free
 *   <name>.redo     a single small redo/intent record (the tx area)
 *
 * Allocation is a two-phase protocol designed around the commit-
 * before-publication rule gpmcheck enforces:
 *
 *   1. alloc() hands out a slot from a volatile free list. Nothing
 *      durable changes: the slot is unreachable garbage until its
 *      owner publishes a reference, so a crash leaks nothing.
 *   2. The client stages payload bytes into the slot (device writes,
 *      fenced) while the slot is still unreferenced.
 *   3. txBegin() writes the record body — the batch's alloc and free
 *      handles plus an opaque client blob — persists it, and only
 *      then persists the record flag. The flag is the commit point.
 *   4. The client publishes references (its own data structure).
 *   5. txCommit() applies the bitmap deltas (set alloc bits, clear
 *      free bits), recycles freed slots, and clears the flag.
 *
 * Crash anywhere in between and recover() reconciles deterministically
 * from the redo area: a Commit-mode record rolls the bitmap forward
 * (the client re-publishes from the blob first); an Intent-mode record
 * — used by undo-logging clients such as the GpKvs serving path, whose
 * own log rolls the references back — is simply discarded, because the
 * bitmap was never touched. Either way the volatile free lists are
 * rebuilt by a full bitmap scan, so allocation order after recovery is
 * a deterministic function of durable state alone.
 *
 * Handles encode (length << 40) | slab byte offset, so a reference is
 * one 64-bit word that names the object and its size — small enough to
 * live in a fixed-size directory entry or KVS value slot.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "platform/machine.hpp"

namespace gpm {

class ThreadCtx;

/** Heap geometry. Classes must be ascending, multiples of 8. */
struct GpmHeapParams {
    std::string name = "gpmheap";
    std::vector<std::uint32_t> class_sizes = {16,  32,   64,   128, 256,
                                              512, 1024, 2048, 4096};
    std::uint32_t slots_per_class = 256;
    std::uint32_t max_tx_ops = 512;   ///< alloc + free handles per record
    std::uint32_t max_tx_blob = 0;    ///< client payload bytes per record

    std::uint64_t slabBytes() const;
    std::uint64_t bitmapBytes() const;
    std::uint64_t redoBytes() const;
    /** Pool bytes the three regions need (256 B alignment slack incl). */
    std::uint64_t poolBytes() const;
};

/** GpmHeap instance bound to one Machine+PmPool. */
class GpmHeap
{
  public:
    /** Redo-record mode: which way recovery reconciles. */
    enum class TxMode : std::uint32_t {
        None = 0,
        Intent = 1,  ///< undo client: crash discards the record
        Commit = 2,  ///< redo client: crash rolls the record forward
    };

    /** Durable in-flight record, decoded (see inFlight()). */
    struct InFlight {
        TxMode mode = TxMode::None;
        std::uint32_t batch_id = 0;
        std::vector<std::uint64_t> allocs;
        std::vector<std::uint64_t> frees;
        std::vector<std::uint8_t> blob;
    };

    GpmHeap(Machine &m, const GpmHeapParams &p);

    /** Map the three regions, declare analyzer ranges/orders, and
     *  build the free lists with a recovery-grade bitmap scan. */
    void setup(bool create);

    // ---- volatile allocation ------------------------------------------

    /** Take a free slot of the smallest class holding @p len bytes.
     *  Purely volatile until the surrounding tx commits. */
    std::uint64_t alloc(std::uint32_t len);

    /** Return an uncommitted alloc() to its free list. */
    void cancel(std::uint64_t handle);

    /** Free slots remaining in the class serving @p len. */
    std::uint64_t freeSlotsFor(std::uint32_t len) const;

    // ---- transaction protocol -----------------------------------------

    /** Write + persist the record body, then the mode flag (the commit
     *  point). At most one record may be in flight. */
    void txBegin(TxMode mode, std::uint32_t batch_id,
                 const std::vector<std::uint64_t> &allocs,
                 const std::vector<std::uint64_t> &frees,
                 const void *blob = nullptr, std::uint32_t blob_bytes = 0);

    /** Apply the bitmap deltas durably, recycle the freed slots, and
     *  clear the record flag. */
    void txCommit();

    /** Decode the durable redo record; false when none is in flight. */
    bool inFlight(InFlight &out) const;

    /**
     * Reboot-time reconciliation: roll a Commit record's bitmap deltas
     * forward (idempotent), discard an Intent record, rebuild the free
     * lists from the bitmap. The caller re-publishes references from
     * the blob *before* calling this (and wraps the whole sequence in
     * a PmRecoveryScope). @return true when a record was reconciled.
     *
     * @p apply_intent lets an undo-logging client whose *own* commit
     * point says the batch went through (GpKvs: the txn flag cleared
     * before the crash) force its Intent record forward instead of
     * discarding it — the composite commit decision lives with the
     * client, not the heap.
     */
    bool recover(bool apply_intent = false);

    // ---- handles + payloads -------------------------------------------

    static std::uint32_t
    lenOf(std::uint64_t handle)
    {
        return static_cast<std::uint32_t>(handle >> 40);
    }

    static std::uint64_t
    offOf(std::uint64_t handle)
    {
        return handle & ((1ull << 40) - 1);
    }

    /** Absolute PM address of @p handle's slot. */
    std::uint64_t slotAddr(std::uint64_t handle) const;

    /**
     * FNV-1a over the first @p len bytes of the deterministic payload
     * stream seeded with @p seed — the expected readPayloadHash() of a
     * correctly stored object. Word w of the stream (bytes
     * [8w, 8w + 8)) is fnv1aU64(w, fnv1aU64(seed)); clients and
     * host oracles share it. Folds the words directly: no buffer.
     */
    static std::uint64_t payloadHash(std::uint64_t seed,
                                     std::uint32_t len);

    /** Device write of the seeded payload into the slot (one store;
     *  the caller fences). Built in the heap's scratch buffer. */
    void stagePayload(ThreadCtx &ctx, std::uint64_t handle,
                      std::uint64_t seed);

    /** Device read of the slot, hashed (GET-style verification). Reads
     *  into the heap's scratch buffer. */
    std::uint64_t readPayloadHash(ThreadCtx &ctx,
                                  std::uint64_t handle) const;

    /** Host-side hash of the slot's durable bytes (crash oracles). */
    std::uint64_t durablePayloadHash(std::uint64_t handle) const;

    // ---- oracle / introspection ---------------------------------------

    /** Slab offsets of every durably allocated slot, ascending. */
    std::vector<std::uint64_t> durableAllocatedOffsets() const;

    /** FNV over the durable bitmap region. */
    std::uint64_t durableBitmapHash() const;

    const GpmHeapParams &params() const { return p_; }

    /** Analyzer label of the redo region ("<name>.redo"), so clients
     *  can declare their publication order against it. */
    std::string redoLabel() const { return p_.name + ".redo"; }

  private:
    std::uint32_t classOf(std::uint32_t len) const;
    std::uint32_t classOfOffset(std::uint64_t off) const;
    void rebuildFreeLists();
    void writeBitDurable(std::uint64_t handle, bool set);

    Machine *m_;
    GpmHeapParams p_;
    PmRegion slabs_, bitmap_, redo_;
    std::vector<std::uint64_t> class_off_;     ///< slab base per class
    std::vector<std::uint64_t> class_bm_off_;  ///< bitmap byte base
    std::vector<std::vector<std::uint32_t>> free_;  ///< slot idx, desc
    /** One largest-class payload, reused by stagePayload() and
     *  readPayloadHash(). Per heap, not static: shards of a serving
     *  engine run their batches on different sweep lanes. */
    mutable std::vector<std::uint8_t> scratch_;
    bool tx_open_ = false;
};

} // namespace gpm
