/**
 * @file
 * gpKVS: the GPU-accelerated persistent key-value store of GPMbench
 * (Table 1, transactional class; derived from MegaKV in the paper).
 *
 * The store is an 8-way set-associative array of (key, value) pairs
 * living on PM. A batch of SETs runs as a GPU kernel where groups of
 * THRD_GRP_SZ = 8 threads cooperate per operation: each thread probes
 * one way of the hashed set, and the thread owning the selected way
 * becomes the leader that (a) undo-logs the pair being replaced via
 * gpmlog_insert, (b) stores the new pair, and (c) persists it — the
 * exact flow of Figure 6(a). Recovery (Figure 6(b)) undoes the last
 * partially executed batch from the log.
 *
 * On CAP platforms the kernel updates a volatile device-resident copy
 * and the whole store is transferred and persisted afterwards — the
 * source of Table 4's ~39x write amplification.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "gpm/gpm_log.hpp"
#include "gpusim/kernel.hpp"
#include "pmheap/gpm_heap.hpp"
#include "workloads/workload.hpp"

namespace gpm {

/** One stored pair; 8 B keys and values per the paper's Figure 1a. */
struct KvPair {
    std::uint64_t key = 0;
    std::uint64_t value = 0;

    bool
    operator==(const KvPair &o) const
    {
        return key == o.key && value == o.value;
    }
};

/** gpKVS sizing and batch mix. */
struct GpKvsParams {
    std::uint32_t n_sets = 1u << 17;  ///< 131072 sets x 8 ways = 16 MiB
    std::uint32_t batch_ops = 32768;  ///< operations per batch
    std::uint32_t batches = 4;        ///< number of batches
    double get_ratio = 0.0;           ///< fraction of GETs per batch
    std::uint64_t seed = 42;          ///< key/value stream seed
    bool use_hcl = true;              ///< HCL vs conventional log
    std::uint32_t conv_partitions = 16;  ///< conventional-log partitions
    int cap_threads = 32;             ///< CPU persist threads under CAP
    std::uint64_t cap_chunk_bytes = 4096;  ///< CAP dirty-chunk granule

    static constexpr std::uint32_t kWays = 8;
    static constexpr std::uint32_t kGroup = 8;  ///< THRD_GRP_SZ

    std::uint64_t
    storeBytes() const
    {
        return std::uint64_t(n_sets) * kWays * sizeof(KvPair);
    }
};

/** Undo-log record for one SET (Figure 6a's log_entry). */
struct KvLogEntry {
    std::uint32_t set = 0;
    std::uint32_t way = 0;
    std::uint64_t old_key = 0;
    std::uint64_t old_value = 0;
};

/** Request verbs of the serving path (src/service, tools/gpmserve). */
enum class KvVerb : std::uint8_t { Get = 0, Put = 1, Del = 2 };

/** Canonical lower-case name of @p v ("get" / "put" / "del"). */
const char *kvVerbName(KvVerb v);

/** One client request as admitted by the serving engine. */
struct KvRequest {
    KvVerb verb = KvVerb::Get;
    std::uint64_t key = 0;
    /** Inline 8 B value; in variable-size mode the payload seed. */
    std::uint64_t value = 0;
    /** Variable-size mode only: payload bytes (> 0 for every PUT). */
    std::uint32_t value_len = 0;
};

/**
 * Value table of the variable-size serve oracle. A host-mirror slot's
 * value is a reference into it (0 = empty slot). An entry records the
 * PUT's payload (seed, len); the expected payload hash is computed the
 * first time a GET or the durable check asks for it, then kept, so a
 * value overwritten or deleted unread is never hashed. Entries of
 * deleted values are recycled: the table holds at most one entry per
 * live mirror slot, and starts empty.
 */
class ServeVarValues
{
  public:
    /** Record a PUT of (@p seed, @p len) into a mirror slot whose
     *  reference is @p ref (0: the slot was empty). @return the slot's
     *  new reference. */
    std::uint64_t put(std::uint64_t ref, std::uint64_t seed,
                      std::uint32_t len);

    /** Release @p ref: its mirror slot was deleted. */
    void drop(std::uint64_t ref);

    /** Payload bytes of @p ref. */
    std::uint32_t len(std::uint64_t ref) { return entry(ref).len; }

    /** Expected payload hash of @p ref (GpmHeap::payloadHash of its
     *  seed and length), hashed on first use. */
    std::uint64_t hash(std::uint64_t ref);

  private:
    struct Entry {
        std::uint64_t word = 0;  ///< the seed; the hash once hashed
        std::uint32_t len = 0;
        bool hashed = false;
    };

    Entry &entry(std::uint64_t ref);

    std::vector<Entry> entries_;       ///< reference r is entries_[r - 1]
    std::vector<std::uint64_t> free_;  ///< recycled references
};

/** gpKVS instance bound to one Machine. */
class GpKvs
{
  public:
    GpKvs(Machine &m, const GpKvsParams &p);

    /** Map PM regions, create the log, zero the store. Charged as
     *  one-time setup (excluded from operation time). */
    void setup();

    /** Run every batch; returns operation-time results. */
    WorkloadResult run();

    /**
     * Run batches, crash during batch @p crash_batch after a fraction
     * @p frac of its thread-phase executions, let unpersisted lines
     * survive with probability @p survive_prob, recover, then verify
     * the durable store equals the pre-batch reference.
     *
     * Only meaningful on platforms with in-kernel persistence.
     */
    WorkloadResult runWithCrash(std::uint32_t crash_batch, double frac,
                                double survive_prob);

    /** Thread phases of the doomed batch kernel. */
    static std::uint64_t doomedThreadPhases(const GpKvsParams &p);

    /**
     * Expected durable stores of a crash in batch @p crash_batch: every
     * earlier batch applied (pre_crash), and the doomed batch on top
     * (committed). A pure function of @p p and @p crash_batch.
     */
    static CrashReference crashReference(const GpKvsParams &p,
                                         std::uint32_t crash_batch);

    /**
     * Descriptor-armed crash run (runCrashSequence; the torture-matrix
     * entry point) of batch @p ref.crash_batch, @p ref from
     * crashReference() with these params.
     */
    CrashOutcome runCrashPoint(const CrashReference &ref,
                               const CrashPoint &point,
                               double survive_prob,
                               bool open_persist_window = true,
                               WorkloadResult *result_out = nullptr);

    /** The durable store equals @p reference? */
    bool durableEquals(const std::vector<KvPair> &reference) const;

    /** FNV-1a fingerprint of the durable store image. */
    std::uint64_t durableStoreHash() const;

    /** Visible-store lookup (functional checks). */
    bool lookup(std::uint64_t key, std::uint64_t &value_out) const;

    /** Result of GET op @p i of the most recent batch (0 = miss). */
    std::uint64_t
    getResult(std::uint32_t i) const
    {
        GPM_REQUIRE(i < get_results_.size(), "GET index out of range");
        return get_results_[i];
    }

    /** Reference model: apply one batch to a host-side mirror using
     *  exactly the kernel's placement policy. */
    void applyBatchReference(std::vector<KvPair> &mirror,
                             std::uint32_t batch) const;

    /** Expected store after every batch: the ways of only the sets
     *  some SET touched (at most batches x batch_ops of them), found
     *  through a 4 B slot per set. */
    struct ExpectedStore {
        /** Per set: 0 when no SET touched it, else 1 + its index
         *  among the touched sets. */
        std::vector<std::uint32_t> slot;
        std::vector<KvPair> ways;  ///< kWays pairs per touched set

        /** The ways of touched set @p set, or nullptr. */
        const KvPair *
        find(std::uint32_t set) const
        {
            return slot[set]
                ? &ways[std::uint64_t(slot[set] - 1) * GpKvsParams::kWays]
                : nullptr;
        }
    };

    /**
     * Replay every batch into an ExpectedStore. With @p gets_ok, also
     * report whether the last run()'s GET results equal what the
     * in-order replay of its last batch observes.
     */
    ExpectedStore expectedStore(bool *gets_ok = nullptr) const;

    /**
     * Does @p store, storeBytes() bytes laid out like the PM store,
     * hold exactly @p want? Every touched set must equal its reference
     * ways and every other set must be all zero.
     */
    bool storeMatches(const ExpectedStore &want,
                      const std::uint8_t *store) const;

    /** run()'s store check: the durable store holds exactly @p want
     *  and CAP's device copy equals it byte for byte. */
    bool storesMatch(const ExpectedStore &want) const;

    /** CAP's device copy of the store; nullptr on in-kernel platforms. */
    std::uint8_t *
    deviceCopy()
    {
        return host_copy_ ? host_copy_->data() : nullptr;
    }

    static std::uint64_t hashKey(std::uint64_t key);

    /** chooseWay result when the target set is full (the SET fails). */
    static constexpr std::uint32_t kNoWay = 0xffffffffu;

    // ---- serving path (src/service) ----------------------------------

    /**
     * Map PM regions and create a serve-sized HCL log for transaction
     * batches of up to @p max_batch_ops get/put/delete requests.
     * Requires an in-kernel-persistence platform and the HCL log.
     */
    void serveSetup(std::uint32_t max_batch_ops);

    /**
     * Variable-size serving: serveSetup plus a GpmHeap for
     * out-of-line values (docs/pmheap.md). KvPair.value holds a heap
     * handle; a PUT carries (value = payload seed, value_len = bytes)
     * and a GET answers with the FNV hash of the stored payload.
     * @p heap is the slot geometry; name/tx sizing are forced here.
     */
    void serveSetupVar(std::uint32_t max_batch_ops, GpmHeapParams heap);

    /** Non-null after serveSetupVar(): the value heap. */
    const GpmHeap *serveHeap() const { return serve_heap_.get(); }

    /** Set index of @p key under this instance's geometry. */
    std::uint32_t
    setOf(std::uint64_t key) const
    {
        return static_cast<std::uint32_t>(hashKey(key) % p_.n_sets);
    }

    /**
     * Execute one serving batch as a single logged+persisted kernel
     * launch (the Figure 6a flow, extended with GET and DELETE verbs).
     *
     * Precondition (checked): every request targets a distinct set
     * index — the dynamic batcher dedups on setOf() — so the kernel
     * is block-independent (disjoint 128 B set lines) and batch
     * results are order-free.
     *
     * @p results gets one result per request: GET -> value or 0 on
     * miss; PUT -> 1 applied / 0 rejected (set full); DEL -> 1
     * deleted / 0 absent.
     *
     * Inline and variable-size serving share this one body and its
     * one gpkvs_serve kernel; with a heap, serveStageVar() runs first
     * and the heap's Intent record brackets the transaction.
     *
     * @p crash optionally arms a crash descriptor on the batch kernel;
     * the KernelCrashed exception propagates to the caller, leaving
     * the in-flight transaction for serveRecover().
     */
    void serveBatch(const std::vector<KvRequest> &reqs,
                    std::vector<std::uint64_t> &results,
                    const CrashPoint *crash = nullptr);

    /**
     * Reboot-time recovery entry point for the serving path: undo the
     * in-flight batch if the durable txn flag says one was open, then
     * truncate the log. @return true when recovery actually ran.
     */
    bool serveRecover();

    /**
     * Reference model of one serve request against a host-mirror set
     * (exactly the kernel's placement/visibility policy). Mutates
     * @p set_base for PUT/DEL. @return the expected result.
     */
    static std::uint64_t serveReference(KvPair *set_base,
                                        const KvRequest &rq);

    /**
     * Variable-size twin of serveReference: the mirror stores a
     * @p values reference where the kernel stores a heap handle, and a
     * GET hit expects that value's full payload hash. Mutates
     * @p set_base and @p values for PUT/DEL.
     */
    static std::uint64_t serveReferenceVar(KvPair *set_base,
                                           const KvRequest &rq,
                                           ServeVarValues &values);

    /**
     * Variable-size durable check: every durable (key, handle) slot
     * must match @p reference positionally, each handle's length and
     * durable payload hash must be the ones its mirror value expects,
     * and the set of live handles must be exactly the heap's durably
     * allocated slots (no leaks, no double allocations).
     */
    bool durableEqualsVar(const std::vector<KvPair> &reference,
                          ServeVarValues &values) const;

    struct Op {
        std::uint64_t key;
        std::uint64_t value;
        bool is_get;
    };

    /**
     * Assemble batch @p batch into a reused member buffer (and a
     * cached batch-0 buffer for GET retargeting), so steady-state
     * batch assembly allocates nothing. The reference is valid until
     * the next makeBatch call on this instance. Public so the
     * allocation-churn microbench can drive assembly in isolation.
     */
    const std::vector<Op> &makeBatch(std::uint32_t batch) const;
    void fillBatch(std::uint32_t batch, std::vector<Op> &out) const;

  private:
    /** Machine-less instance: the host reference model only
     *  (crashReference). */
    explicit GpKvs(const GpKvsParams &p);

    static std::uint32_t chooseWay(const KvPair *set_base,
                                   std::uint64_t key);

    /** Apply batch @p batch's SETs, in op order and with the kernel's
     *  placement policy, to the ways setAt(set) points at, and hand
     *  each GET to onGet(op index, op). The one replay body behind
     *  applyBatchReference, crashReference and expectedStore. */
    template <typename SetAt, typename OnGet>
    void replayBatch(std::uint32_t batch, SetAt &&setAt,
                     OnGet &&onGet) const;

    /** GPM-family batch: in-kernel logging + persistence. A set
     *  @p crash arms the batch kernel (runCrashPoint's doomed batch):
     *  the batch then returns right after the kernel, never reaching
     *  its commit, whether or not the point fired. */
    void runBatchGpm(const std::vector<Op> &ops, bool ndp,
                     const std::optional<CrashPoint> &crash =
                         std::nullopt);
    /** CAP-family batch: volatile update + bulk transfer + persist. */
    void runBatchCap(const std::vector<Op> &ops);
    /** Launch the recovery kernel of Figure 6(b). */
    void recover();

    /** Variable-size half of serveBatch (run when a heap exists):
     *  plan each PUT's handle and the handles the batch frees, then
     *  stage the payloads into still-unreachable slots. serveBatch
     *  then opens the Intent record on that plan and runs the one
     *  serve kernel, which differs only in the GET answer (payload
     *  hash) and the PUT value (the planned handle). */
    void serveStageVar(const std::vector<KvRequest> &reqs);

    std::uint64_t pairAddr(std::uint32_t set, std::uint32_t way) const;

    /** The ways of @p set in CAP's device copy. */
    KvPair *
    hostWays(std::uint32_t set)
    {
        return reinterpret_cast<KvPair *>(host_copy_->data()) +
               std::uint64_t(set) * GpKvsParams::kWays;
    }

    /**
     * One op group's probe of its set. The group's first lane computes
     * it and the other lanes read it back, as a warp ballot would
     * share it. Exact because a group's lanes run in lane order and
     * only the group's own leader writes the set, after which
     * chooseWay still returns the same way.
     */
    struct Probe {
        std::uint32_t set = 0;
        std::uint32_t way = kNoWay;  ///< the leader lane, or kNoWay
        KvPair old;                  ///< that way's pair before the op
    };

    /** Op @p op_idx's probe of the PM store for @p key: computed when
     *  @p gtid is the group's first lane, else the one it computed.
     *  @p exact picks the way holding @p key (a DEL) instead of
     *  chooseWay's. */
    const Probe &groupProbe(std::uint64_t gtid, std::uint64_t op_idx,
                            std::uint64_t key, bool exact = false);

    /** Warm the PM lines of @p key's set (PmPool::prefetch). */
    void prefetchSet(std::uint64_t key) const;

    /** Warm the log row the leader of SET op @p op_idx on @p key is
     *  expected to insert into: the leader chooseWay picks from the
     *  set as it stands now. A stale guess costs only the hint. */
    void prefetchLeaderLog(std::uint64_t op_idx, std::uint64_t key) const;

    Machine *m_ = nullptr;
    GpKvsParams p_;
    PmRegion store_;
    PmRegion meta_;   ///< [0]: txn_active flag
    std::vector<GpmLog> log_;          ///< one log (vector for lazy init)
    /** CAP's volatile device copy of the store: one recycled image,
     *  so a cell inherits a zeroed, resident predecessor's pages. */
    std::optional<RecycledImage> host_copy_;
    std::vector<std::uint64_t> get_results_;  ///< last batch's GETs
    std::vector<Probe> probe_;  ///< per-op probes, reused across launches
    mutable std::vector<Op> ops_buf_;   ///< makeBatch's reused buffer
    mutable std::vector<Op> first_ops_; ///< cached batch 0 (GET targets)
    mutable std::vector<std::uint32_t> set_scratch_;  ///< dedup check
    std::uint32_t serve_max_ops_ = 0;   ///< serveSetup grid capacity
    std::unique_ptr<GpmHeap> serve_heap_;  ///< variable-size value heap
    // serveStageVar's per-batch plan, reused across batches.
    struct StagedVal {
        std::uint64_t handle;
        std::uint64_t seed;
    };
    std::vector<std::uint64_t> plan_handles_;  ///< per-op PUT handle
    std::vector<std::uint64_t> plan_allocs_;   ///< Intent record allocs
    std::vector<std::uint64_t> plan_frees_;    ///< Intent record frees
    std::vector<StagedVal> plan_staged_;       ///< payloads to stage
};

} // namespace gpm
