/**
 * @file
 * Deterministic KVS serving engine over GpKvs (the "GPM-as-a-service"
 * tentpole): closed-loop load generation, bounded-depth admission,
 * dynamic batching, and key-sharded Machine+PmPool persist pipelines.
 *
 * The paper's amortization argument — massive parallelism hides
 * launch + persist latency — only shows up when many small requests
 * share one kernel launch. This engine measures exactly that, as a
 * *serving system*: N closed-loop clients issue get/put/delete
 * requests over a seeded zipfian or uniform key popularity; requests
 * are admitted into per-shard bounded queues (a full queue blocks the
 * client — backpressure); a dynamic batcher closes a batch when it
 * reaches `batch_max` ops or when the oldest admitted op has waited
 * `batch_deadline_ns`; each shard is an independent Machine+PmPool
 * running GpKvs::serveBatch transactions, so persist cost amortizes
 * across the batch exactly as in Figure 6(a).
 *
 * Time is *virtual*: the discrete-event loop orders client arrivals,
 * batch deadlines and batch completions on a single clock, and a
 * batch's service time is the simulated duration GpKvs::serveBatch
 * accrues on its shard's Machine (enqueue -> batch-close -> launch ->
 * persist -> ack). Per-op latency is request-to-ack in that clock,
 * accumulated into log2 histograms whose p50/p99/p999 accessors feed
 * BENCH_serve.json.
 *
 * Determinism contract (the repo-wide rule): all randomness flows
 * from ServeConfig::seed through sequential draws on the event loop;
 * host execution of closed batches is farmed to the sweep worker pool
 * (`jobs`) with canonical-order result slots. Same seed =>
 * bit-identical ack stream and report signature at any `jobs` width.
 *
 * Crash injection: `crash_at_launch` dooms the Nth batch launch
 * (globally, in launch order) with an armed CrashPoint; the engine
 * then power-fails every shard pool, runs reboot recovery on each,
 * and verifies zero acknowledged-write loss against per-shard host
 * mirrors (the torture "serve" invariant sweeps this grid).
 */
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/keydist.hpp"
#include "gpusim/kernel.hpp"
#include "platform/machine.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/kvs.hpp"

namespace gpm {

/** Serving-engine knobs (defaults are a small smoke configuration). */
struct ServeConfig {
    PlatformKind platform = PlatformKind::Gpm;
    std::uint32_t shards = 2;        ///< independent Machine pipelines
    std::uint32_t n_sets = 1u << 13; ///< sets per shard
    std::uint32_t clients = 64;      ///< closed-loop clients
    std::uint64_t requests = 8192;   ///< total requests to issue
    std::uint32_t batch_max = 256;   ///< close a batch at this size
    SimNs batch_deadline_ns = 20000; ///< ... or this long after its
                                     ///< oldest op was admitted
    std::uint32_t queue_depth = 4096;  ///< per-shard admission bound
    SimNs think_ns = 2000;           ///< client think time after ack
    double get_ratio = 0.5;          ///< fraction of GETs
    double del_ratio = 0.05;         ///< fraction of DELs
    KeyDistKind dist = KeyDistKind::Zipfian;
    std::uint64_t key_space = 1u << 16;  ///< distinct popularity ranks
    double theta = KeyDist::kDefaultTheta;
    std::uint64_t seed = 42;
    /** Retired: kernels always run on the one sequential executor
     *  path, and the constructor rejects any value but 1. Kept only
     *  until the repository benchmark stops assigning it. */
    int exec_workers = 1;
    int jobs = 1;                    ///< sweep width for batch flushes
    /** Media backend behind every shard's Machine (timing-only: the
     *  ack stream and its pinned signature are media-invariant). */
    MediaConfig media{};
    /**
     * False models the GPM-NDP trap for the serving path: traffic
     * runs with DDIO on (fences order, nothing persists), so a crash
     * loses acknowledged writes — the torture grid classifies it as
     * the expected ddio-trap, never as silent success.
     */
    bool open_persist_window = true;
    // ---- variable-size values (GpmHeap-backed, docs/pmheap.md) -------
    /**
     * value_bytes_max > 0 switches every shard to the variable-size
     * serve path: PUT payloads are heap objects of a length drawn
     * uniformly from [value_bytes_min, value_bytes_max], GETs answer
     * with the stored payload's hash, and crash recovery reconciles
     * the per-shard GpmHeap. 0 keeps the legacy inline-8B path (and
     * its pinned ack signature) byte-identical.
     */
    std::uint32_t value_bytes_min = 0;
    std::uint32_t value_bytes_max = 0;
    /** Heap slots per size class in variable-size mode. */
    std::uint32_t heap_slots_per_class = 4096;
    // ---- crash injection ---------------------------------------------
    std::int64_t crash_at_launch = -1;  ///< global launch ordinal, -1 off
    CrashPoint crash_point;             ///< armed on the doomed launch
    double survive_prob = 0.0;          ///< line survival at the crash
};

/** Aggregate outcome of one serving run. */
struct ServeReport {
    std::uint64_t ops_issued = 0;    ///< requests admitted or blocked
    std::uint64_t ops_acked = 0;     ///< responses delivered
    std::uint64_t batches = 0;       ///< kernel launches
    std::uint64_t size_closes = 0;   ///< batches closed on batch_max
    std::uint64_t deadline_closes = 0;  ///< batches closed on deadline
    std::uint64_t deferred_conflicts = 0;  ///< same-set ops pushed to a
                                           ///< later batch
    std::uint64_t blocked_admissions = 0;  ///< client stalls on a full
                                           ///< admission queue
    std::uint64_t oracle_failures = 0;  ///< responses that contradicted
                                        ///< the host mirror (must be 0)
    SimNs makespan_ns = 0;           ///< virtual time of the last ack
    double throughput_mops = 0.0;    ///< acked ops per virtual second /1e6
    telemetry::HistogramData latency;     ///< request-to-ack ns
    telemetry::HistogramData batch_size;  ///< ops per launched batch
    std::uint64_t ack_signature = 0; ///< FNV fold of the ack stream
    // ---- crash-mode outcome ------------------------------------------
    bool crash_armed = false;
    bool crash_fired = false;
    bool recovery_ran = false;       ///< any shard ran undo recovery
    bool durable_ok = true;          ///< every shard's durable store ==
                                     ///< its oracle mirror after reboot
    std::uint64_t state_hash = 0;    ///< fold of per-shard durable hashes
    // Pool crash accounting, summed over shards (a power failure hits
    // every shard pool exactly once, so pool_crashes == shards on a
    // crash run). Feeds the torture "serve" invariant's bookkeeping.
    std::uint64_t pool_crashes = 0;      ///< crash() events, summed
    std::uint64_t crash_sub_extents = 0; ///< 128 B tearing rolls, summed
    std::uint64_t crash_survivors = 0;   ///< lines that survived, summed

    /** One order-stable FNV fingerprint of the whole report. */
    std::uint64_t signature() const;
};

/** The serving engine. Construct once, run once. */
class ServiceEngine
{
  public:
    explicit ServiceEngine(const ServeConfig &cfg);
    ~ServiceEngine();

    /** Run the configured traffic to completion (or to the injected
     *  crash + recovery) and return the report. */
    ServeReport run();

  private:
    struct AdmittedOp {
        std::uint64_t req_id = 0;
        std::uint32_t client = 0;
        std::uint32_t set = 0;      ///< set index on its shard
        KvRequest rq;
        SimNs t_request = 0;        ///< latency clock start
        SimNs t_admit = 0;          ///< entered the admission queue
    };

    struct Shard {
        std::unique_ptr<Machine> machine;
        std::unique_ptr<GpKvs> kvs;
        std::vector<KvPair> mirror;      ///< oracle state
        std::deque<AdmittedOp> pending;  ///< admission queue
        std::deque<AdmittedOp> blocked;  ///< clients stalled on depth
        bool busy = false;               ///< a batch is in flight
        std::uint64_t deadline_token = 0;  ///< arms/invalidates deadlines
        bool deadline_armed = false;     ///< a live deadline event exists
        // In-flight batch (content fixed at close, executed at flush).
        std::vector<AdmittedOp> batch_meta;
        std::vector<KvRequest> batch_reqs;
        std::vector<std::uint64_t> batch_results;
    };

    struct Event {
        SimNs t = 0;
        int kind = 0;       ///< 0 arrival, 1 deadline, 2 batch-done
        std::uint64_t seq = 0;  ///< push order: the deterministic tie-break
        std::uint32_t a = 0;    ///< client (arrival) or shard index
        std::uint64_t b = 0;    ///< deadline token
    };
    struct EventAfter {
        bool operator()(const Event &x, const Event &y) const;
    };

    void push(SimNs t, int kind, std::uint32_t a, std::uint64_t b = 0);
    std::uint32_t shardOf(std::uint64_t key) const;
    bool varMode() const { return cfg_.value_bytes_max > 0; }
    /** serveReference / serveReferenceVar, per the configured mode. */
    std::uint64_t applyReference(Shard &sh, const KvRequest &rq,
                                 std::uint32_t set) const;
    void issueRequest(std::uint32_t client, SimNs now);
    void admit(AdmittedOp op, SimNs now);
    void maybeLaunch(std::uint32_t s, SimNs now);
    void closeBatch(std::uint32_t s, SimNs now, bool by_size);
    void flushLaunches();
    void onBatchDone(std::uint32_t s, SimNs now);
    void crashAndRecover();

    ServeConfig cfg_;
    std::vector<Shard> shards_;
    std::vector<Event> heap_;        ///< std::push_heap on EventAfter
    std::uint64_t event_seq_ = 0;
    Rng verb_rng_;
    KeyDist dist_;
    ServeReport rep_;
    std::vector<std::uint32_t> launch_buf_;  ///< shards with closed,
                                             ///< unexecuted batches
    std::uint64_t launches_flushed_ = 0;     ///< global launch ordinal
    SimNs last_t_ = 0;
    bool crashed_ = false;
};

} // namespace gpm
