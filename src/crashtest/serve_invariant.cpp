/**
 * @file
 * The "serve" torture adapter: a power failure in the middle of live
 * serving traffic.
 *
 * Where the other invariants crash one kernel of one workload on one
 * Machine, this one drives the full ServiceEngine — closed-loop
 * clients, dynamic batching, and *two* key-sharded Machine+PmPool
 * pipelines — and dooms a mid-traffic batch launch (global launch
 * ordinal kCrashLaunch). The strict invariant is the serving-path
 * durability contract: after the power failure hits every shard pool
 * and each shard runs reboot recovery, every shard's durable store
 * must equal its oracle mirror (zero acknowledged-write loss, the
 * doomed transaction rolled back whole) and no response delivered
 * before the crash may contradict the oracle.
 *
 * This adapter is *extended*: reachable through makeInvariant / the
 * --workloads flag, but not part of registeredInvariants(), so the
 * pinned default and scale sweep signatures are untouched.
 */
#include "crashtest/recovery_invariant.hpp"

#include <exception>

#include "service/serve_engine.hpp"
#include "workloads/kvs.hpp"

namespace gpm {

namespace {

/** Ops per closed batch. 64 x kGroup = 512 threads fills the 2-block
 *  grid exactly, so doomedThreadPhases() is exact, not an upper
 *  bound, whenever the doomed batch is full — which the saturated
 *  config below guarantees in steady state. */
constexpr std::uint32_t kBatchMax = 64;

/** Global launch ordinal to doom: late enough that both shards have
 *  committed (and acked) earlier batches, early enough that the
 *  queues are still saturated with closed-loop traffic. */
constexpr std::int64_t kCrashLaunch = 6;

class ServeInvariant : public RecoveryInvariant
{
  public:
    std::string name() const override { return "serve"; }

    std::uint64_t
    doomedThreadPhases() const override
    {
        return std::uint64_t(kBatchMax) * GpKvsParams::kGroup;
    }

    TortureOutcome
    run(const DomainSetup &setup, const CrashPoint &point,
        std::uint64_t seed, double survive_prob) const override
    {
        TortureOutcome o;
        try {
            ServeConfig sc;
            sc.platform = setup.kind;
            sc.open_persist_window = setup.open_persist_window;
            sc.media = setup.media;
            // Saturated small-store config: 8x batch_max clients with
            // zero think time keep both admission queues deep, so
            // every launch up to the doomed one is a full batch.
            sc.shards = 2;
            sc.n_sets = 1u << 9;
            sc.clients = kBatchMax * 8;
            sc.requests = 4096;
            sc.batch_max = kBatchMax;
            sc.batch_deadline_ns = 1e6;
            sc.queue_depth = 256;
            sc.think_ns = 0.0;
            sc.get_ratio = 0.3;
            sc.del_ratio = 0.1;
            sc.key_space = 1u << 12;
            sc.seed = seed;
            sc.jobs = 1;  // parallelism lives at the torture level
            sc.crash_at_launch = kCrashLaunch;
            sc.crash_point = point;
            sc.survive_prob = survive_prob;

            ServiceEngine engine(sc);
            const ServeReport r = engine.run();

            o.fired = r.crash_fired;
            o.recovery_ran = r.recovery_ran;
            o.strict_ok = r.durable_ok && r.oracle_failures == 0;
            o.state_hash = r.state_hash;
            // The power failure hits every shard pool exactly once
            // (crashAndRecover crashes them in one pass), so the
            // summed count collapses to the runner's one-crash
            // bookkeeping; anything else is reported raw and flags a
            // violation.
            o.crashes =
                r.pool_crashes == sc.shards ? 1 : r.pool_crashes;
            o.crash_sub_extents = r.crash_sub_extents;
            o.crash_survivors = r.crash_survivors;
        } catch (const std::exception &e) {
            o.error = e.what();
        }
        return o;
    }
};

} // namespace

std::unique_ptr<RecoveryInvariant>
makeServeInvariant()
{
    return std::make_unique<ServeInvariant>();
}

} // namespace gpm
