/**
 * @file
 * The "pmheap" torture adapter: allocator + container crash
 * consistency under the full crash-point grammar.
 *
 * Drives a GpmMap (directory + GpmHeap slots) through batches of
 * allocate / overwrite / delete traffic, dooms one mid-stream batch
 * with the armed CrashPoint on either the payload-staging launch
 * (odd seeds — the record was never committed, recovery must discard
 * everything) or the publication launch (even seeds — the record is
 * durable, recovery must roll the whole batch forward), power-fails
 * the pool, reboots through GpmMap::recover(), and then *keeps
 * serving* a post-recovery batch on the rebuilt free lists.
 *
 * The strict invariant is exact-state: the durable directory, every
 * reachable payload, and the allocation bitmap must equal the host
 * oracle for the precisely-predicted state (batch boundary chosen by
 * where the crash hit), and the directory-handle set must be in
 * bijection with the bitmap — which is simultaneously a leak check
 * (no bit without a reference) and a double-allocation check (no two
 * references to one slot).
 *
 * Extended adapter: reachable via --workloads pmheap, not part of
 * registeredInvariants(), so the pinned default/scale signatures are
 * untouched.
 */
#include "crashtest/recovery_invariant.hpp"

#include <map>
#include <vector>

#include "common/hash.hpp"
#include "gpm/gpm_runtime.hpp"
#include "pmheap/gpm_map.hpp"
#include "workloads/workload.hpp"

namespace gpm {

namespace {

constexpr std::uint32_t kBatches = 4;
constexpr std::uint32_t kDoomedBatch = 2;
constexpr std::uint32_t kOpsPerBatch = 64;
constexpr std::uint32_t kKeySpace = 96;
constexpr std::uint32_t kMaxLen = 256;

GpmMapParams
mapParams()
{
    GpmMapParams p;
    p.name = "pmheap";
    p.n_groups = 64;
    p.heap.class_sizes = {16, 32, 64, 128, 256};
    // Worst case per class: every live key (<= kKeySpace) plus every
    // doomed-batch allocation (<= kOpsPerBatch) in one class.
    p.heap.slots_per_class = kKeySpace + kOpsPerBatch;
    p.heap.max_tx_ops = 2 * kOpsPerBatch;
    p.heap.max_tx_blob = 24 * kOpsPerBatch;
    return p;
}

using Oracle = std::map<std::uint64_t, MapOracleValue>;

std::vector<MapOp>
makeOps(std::uint32_t batch, std::uint64_t seed)
{
    Rng rng(fnv1aU64(batch + 1, fnv1aU64(seed)));
    std::vector<bool> used(kKeySpace + 1, false);
    std::vector<MapOp> ops;
    ops.reserve(kOpsPerBatch);
    for (std::uint32_t i = 0; i < kOpsPerBatch; ++i) {
        std::uint64_t key = rng.next() % kKeySpace + 1;
        while (used[key])
            key = key % kKeySpace + 1;
        used[key] = true;
        MapOp op;
        op.key = key;
        if (rng.chance(0.25)) {
            op.verb = MapOp::Verb::Del;
        } else {
            op.verb = MapOp::Verb::Put;
            op.len = 1 + static_cast<std::uint32_t>(rng.next() % kMaxLen);
            op.seed = rng.next();
        }
        ops.push_back(op);
    }
    return ops;
}

/** Host twin of GpmMap's acceptance policy (group = 8 ways). */
void
applyOps(Oracle &model, const std::vector<MapOp> &ops,
         std::uint32_t n_groups)
{
    for (const MapOp &op : ops) {
        auto it = model.find(op.key);
        if (op.verb == MapOp::Verb::Del) {
            if (it != model.end())
                model.erase(it);
            continue;
        }
        if (it == model.end()) {
            const std::uint64_t g = fnv1aU64(op.key) % n_groups;
            std::uint32_t occupied = 0;
            for (const auto &kv : model)
                if (fnv1aU64(kv.first) % n_groups == g)
                    ++occupied;
            if (occupied >= GpmMapParams::kWays)
                continue; // full group: plan rejects it too
        }
        model[op.key] = MapOracleValue{op.len, op.seed};
    }
}

std::vector<std::pair<std::uint64_t, MapOracleValue>>
asVector(const Oracle &model)
{
    return {model.begin(), model.end()};
}

class PmheapInvariant : public RecoveryInvariant
{
  public:
    std::string name() const override { return "pmheap"; }

    std::uint64_t
    doomedThreadPhases() const override
    {
        // Stage and publish launches both top out at one 8-thread
        // block per op, one phase each.
        return std::uint64_t(kOpsPerBatch) * GpmMapParams::kWays;
    }

    TortureOutcome
    run(const DomainSetup &setup, const CrashPoint &point,
        std::uint64_t seed, double survive_prob) const override
    {
        return runScenario(setup, seed, [&](Machine &m) {
            GpmMap map(m, mapParams());
            const std::uint32_t n_groups = map.params().n_groups;
            // Odd seeds arm the staging launch (record never commits:
            // recovery discards), even seeds the publication launch
            // (record durable: recovery rolls forward).
            const bool stage_armed = (seed % 2) != 0;
            Oracle model;  // the batches before the doomed one
            CrashSteps s;
            s.workload = CrashWorkload::Pmheap;
            s.crash_step = kDoomedBatch;
            s.setup = [&map] { map.setup(true); };
            s.step = [&](std::uint32_t b,
                         const std::optional<CrashPoint> &armed) {
                const std::vector<MapOp> ops = makeOps(b, seed);
                if (!armed) {
                    map.runBatch(ops);
                    applyOps(model, ops, n_groups);
                } else if (stage_armed) {
                    map.runBatch(ops, armed, {});
                } else {
                    map.runBatch(ops, {}, armed);
                }
            };
            s.in_flight = [] { return true; };  // the record decides
            s.recover = [&map] { map.recover(); };
            s.ops_done = [] { return 0.0; };
            s.check = [&](CrashOutcome &o) {
                // Exact expected state: a fired staging crash means the
                // batch never committed; any other path means it did.
                Oracle expect = model;
                if (!(o.fired && stage_armed))
                    applyOps(expect, makeOps(kDoomedBatch, seed), n_groups);
                const bool mid_ok = map.durableEqualsOracle(asVector(expect));

                // Post-recovery service on the rebuilt free lists.
                const std::vector<MapOp> tail = makeOps(kBatches - 1, seed);
                const bool window = setup.open_persist_window &&
                                    m.kind() == PlatformKind::Gpm;
                if (window)
                    gpmPersistBegin(m);
                map.runBatch(tail);
                if (window)
                    gpmPersistEnd(m);
                applyOps(expect, tail, n_groups);
                o.strict_ok =
                    mid_ok && map.durableEqualsOracle(asVector(expect));
                o.state_hash = map.durableStateHash();
                return o.strict_ok;
            };
            return runCrashSequence(m, s, point, survive_prob,
                                    setup.open_persist_window, nullptr);
        });
    }
};

} // namespace

std::unique_ptr<RecoveryInvariant>
makePmheapInvariant()
{
    return std::make_unique<PmheapInvariant>();
}

} // namespace gpm
