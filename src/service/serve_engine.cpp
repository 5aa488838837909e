#include "service/serve_engine.hpp"

#include <algorithm>
#include <cstring>

#include "common/hash.hpp"
#include "common/status.hpp"
#include "gpm/gpm_runtime.hpp"
#include "harness/sweep.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

namespace {

/** Bit image of a SimNs (double) for order-stable FNV folding. */
std::uint64_t
bitsOf(SimNs v)
{
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

constexpr std::size_t kNoDoom = static_cast<std::size_t>(-1);

} // namespace

std::uint64_t
ServeReport::signature() const
{
    std::uint64_t h = kFnvOffset;
    h = fnv1aU64(ops_issued, h);
    h = fnv1aU64(ops_acked, h);
    h = fnv1aU64(batches, h);
    h = fnv1aU64(size_closes, h);
    h = fnv1aU64(deadline_closes, h);
    h = fnv1aU64(deferred_conflicts, h);
    h = fnv1aU64(blocked_admissions, h);
    h = fnv1aU64(oracle_failures, h);
    h = fnv1aU64(bitsOf(makespan_ns), h);
    h = fnv1aU64(ack_signature, h);
    h = fnv1aU64(latency.count, h);
    h = fnv1aU64(bitsOf(latency.sum), h);
    h = fnv1aU64(batch_size.count, h);
    h = fnv1aU64(bitsOf(batch_size.sum), h);
    h = fnv1aU64((std::uint64_t(crash_armed) << 3) |
                     (std::uint64_t(crash_fired) << 2) |
                     (std::uint64_t(recovery_ran) << 1) |
                     std::uint64_t(durable_ok),
                 h);
    h = fnv1aU64(state_hash, h);
    h = fnv1aU64(pool_crashes, h);
    h = fnv1aU64(crash_sub_extents, h);
    h = fnv1aU64(crash_survivors, h);
    return h;
}

bool
ServiceEngine::EventAfter::operator()(const Event &x,
                                      const Event &y) const
{
    if (x.t != y.t)
        return x.t > y.t;
    if (x.kind != y.kind)
        return x.kind > y.kind;
    return x.seq > y.seq;
}

ServiceEngine::ServiceEngine(const ServeConfig &cfg)
    : cfg_(cfg),
      verb_rng_(Rng(cfg.seed).split(0x7e)),
      dist_(cfg.dist, cfg.key_space, Rng(cfg.seed).split(0xd1).next(),
            cfg.theta)
{
    GPM_REQUIRE(cfg_.shards >= 1, "serving needs at least one shard");
    GPM_REQUIRE(cfg_.clients >= 1, "serving needs at least one client");
    GPM_REQUIRE(cfg_.batch_max >= 1, "empty batch_max");
    GPM_REQUIRE(cfg_.queue_depth >= 1, "empty queue_depth");
    GPM_REQUIRE(cfg_.get_ratio >= 0.0 && cfg_.del_ratio >= 0.0 &&
                    cfg_.get_ratio + cfg_.del_ratio <= 1.0,
                "verb mix must satisfy get + del <= 1");
    GPM_REQUIRE(inKernelPersistence(cfg_.platform),
                "the serving engine requires in-kernel persistence (",
                platformName(cfg_.platform), " given)");

    GPM_REQUIRE(cfg_.exec_workers == 1,
                "ServeConfig::exec_workers is retired and must stay 1 (",
                cfg_.exec_workers, " given)");

    SimConfig sim;
    applyMediaConfig(sim, cfg_.media);

    GpKvsParams kp;
    kp.n_sets = cfg_.n_sets;
    kp.batch_ops = cfg_.batch_max;
    kp.batches = 1;
    kp.seed = cfg_.seed;
    kp.use_hcl = true;

    // Store + serve log (2 undo rows + tail per thread, striped) +
    // meta, with allocator slack.
    const std::uint64_t log_bytes =
        std::uint64_t(cfg_.batch_max) * GpKvsParams::kGroup * 64 +
        (1u << 20);
    std::uint64_t capacity = kp.storeBytes() + log_bytes;

    // Variable-size mode: power-of-two size classes covering the
    // configured payload range, one heap per shard.
    GpmHeapParams hp;
    if (varMode()) {
        GPM_REQUIRE(cfg_.value_bytes_min >= 1 &&
                        cfg_.value_bytes_min <= cfg_.value_bytes_max,
                    "value size range [", cfg_.value_bytes_min, ", ",
                    cfg_.value_bytes_max, "] is invalid");
        hp.class_sizes.clear();
        for (std::uint32_t cs = 16;; cs *= 2) {
            hp.class_sizes.push_back(cs);
            if (cs >= cfg_.value_bytes_max)
                break;
        }
        hp.slots_per_class = cfg_.heap_slots_per_class;
        hp.max_tx_ops = 2u * cfg_.batch_max;
        capacity += hp.poolBytes();
    }

    Rng seeder(cfg_.seed);
    shards_.resize(cfg_.shards);
    for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
        Shard &sh = shards_[s];
        sh.machine = std::make_unique<Machine>(
            sim, cfg_.platform, capacity, seeder.split(100 + s).next());
        sh.kvs = std::make_unique<GpKvs>(*sh.machine, kp);
        if (varMode())
            sh.kvs->serveSetupVar(cfg_.batch_max, hp);
        else
            sh.kvs->serveSetup(cfg_.batch_max);
        sh.mirror.assign(
            std::uint64_t(cfg_.n_sets) * GpKvsParams::kWays, KvPair{});
        // The service opens one long-lived persist window for all of
        // its traffic; leaving it closed under GPM is the NDP trap.
        if (cfg_.platform == PlatformKind::Gpm &&
            cfg_.open_persist_window)
            gpmPersistBegin(*sh.machine);
    }
}

ServiceEngine::~ServiceEngine() = default;

void
ServiceEngine::push(SimNs t, int kind, std::uint32_t a, std::uint64_t b)
{
    heap_.push_back(Event{t, kind, event_seq_++, a, b});
    std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
}

std::uint64_t
ServiceEngine::applyReference(Shard &sh, const KvRequest &rq,
                              std::uint32_t set) const
{
    KvPair *base = &sh.mirror[std::uint64_t(set) * GpKvsParams::kWays];
    return varMode() ? GpKvs::serveReferenceVar(base, rq, sh.values)
                     : GpKvs::serveReference(base, rq);
}

std::uint32_t
ServiceEngine::shardOf(std::uint64_t key) const
{
    // Upper hash bits, so the shard choice decorrelates from the
    // per-shard set index (which consumes the low bits).
    return static_cast<std::uint32_t>((GpKvs::hashKey(key) >> 32) %
                                      cfg_.shards);
}

void
ServiceEngine::issueRequest(std::uint32_t client, SimNs now)
{
    if (rep_.ops_issued >= cfg_.requests)
        return;  // the client retires

    AdmittedOp op;
    op.req_id = rep_.ops_issued++;
    op.client = client;
    op.rq.key = dist_.next();
    const double u = verb_rng_.uniform();
    if (u < cfg_.get_ratio) {
        op.rq.verb = KvVerb::Get;
    } else if (u < cfg_.get_ratio + cfg_.del_ratio) {
        op.rq.verb = KvVerb::Del;
    } else {
        op.rq.verb = KvVerb::Put;
        op.rq.value = verb_rng_.next() | 1;
        // Gated draw: the legacy (inline-value) request stream stays
        // byte-identical, preserving its pinned ack signature.
        if (varMode())
            op.rq.value_len =
                cfg_.value_bytes_min +
                static_cast<std::uint32_t>(verb_rng_.below(
                    cfg_.value_bytes_max - cfg_.value_bytes_min + 1));
    }
    op.t_request = now;

    const std::uint32_t s = shardOf(op.rq.key);
    op.set = shards_[s].kvs->setOf(op.rq.key);
    admit(std::move(op), now);
}

void
ServiceEngine::admit(AdmittedOp op, SimNs now)
{
    Shard &sh = shards_[shardOf(op.rq.key)];
    if (sh.pending.size() >= cfg_.queue_depth) {
        // Backpressure: the closed-loop client stalls here; its
        // latency clock (t_request) keeps running.
        ++rep_.blocked_admissions;
        sh.blocked.push_back(std::move(op));
        return;
    }
    op.t_admit = now;
    const std::uint32_t s = shardOf(op.rq.key);
    sh.pending.push_back(std::move(op));
    maybeLaunch(s, now);
}

void
ServiceEngine::maybeLaunch(std::uint32_t s, SimNs now)
{
    Shard &sh = shards_[s];
    if (sh.busy || sh.pending.empty())
        return;
    const bool full = sh.pending.size() >= cfg_.batch_max;
    if (full ||
        now >= sh.pending.front().t_admit + cfg_.batch_deadline_ns) {
        closeBatch(s, now, full);
        return;
    }
    if (!sh.deadline_armed) {
        sh.deadline_armed = true;
        push(sh.pending.front().t_admit + cfg_.batch_deadline_ns,
             /*kind=*/1, s, ++sh.deadline_token);
    }
}

void
ServiceEngine::closeBatch(std::uint32_t s, SimNs now, bool by_size)
{
    Shard &sh = shards_[s];
    ++sh.deadline_token;  // invalidate any armed deadline event
    sh.deadline_armed = false;
    sh.batch_meta.clear();
    sh.batch_reqs.clear();

    // FIFO collection with one-op-per-set dedup: a second op on a set
    // already in this batch defers to the next batch, which keeps the
    // kernel block-independent and the batch order-free (see
    // GpKvs::serveBatch). Deferred ops are compacted in place toward
    // the queue's front, so the queue keeps its FIFO order.
    taken_.clear();
    auto kept = sh.pending.begin();
    auto next = sh.pending.begin();
    for (; next != sh.pending.end() &&
           sh.batch_meta.size() < cfg_.batch_max;
         ++next) {
        const auto it =
            std::lower_bound(taken_.begin(), taken_.end(), next->set);
        if (it != taken_.end() && *it == next->set) {
            ++rep_.deferred_conflicts;
            if (kept != next)
                *kept = std::move(*next);
            ++kept;
            continue;
        }
        taken_.insert(it, next->set);
        sh.batch_reqs.push_back(next->rq);
        sh.batch_meta.push_back(std::move(*next));
    }
    sh.pending.erase(kept, next);

    GPM_ASSERT(!sh.batch_meta.empty(), "closed an empty batch");
    ++rep_.batches;
    if (by_size)
        ++rep_.size_closes;
    else
        ++rep_.deadline_closes;
    rep_.batch_size.observe(static_cast<double>(sh.batch_meta.size()));
    sh.busy = true;
    launch_buf_.push_back(s);

    // The launch freed admission-queue space: unblock stalled
    // clients, oldest first.
    while (!sh.blocked.empty() &&
           sh.pending.size() < cfg_.queue_depth) {
        AdmittedOp op = std::move(sh.blocked.front());
        sh.blocked.pop_front();
        op.t_admit = now;
        sh.pending.push_back(std::move(op));
    }
}

void
ServiceEngine::flushLaunches()
{
    // Global launch ordinals are assigned in close order; the crash
    // config dooms one of them.
    std::size_t doom = kNoDoom;
    if (cfg_.crash_at_launch >= 0 &&
        std::uint64_t(cfg_.crash_at_launch) >= launches_flushed_ &&
        std::uint64_t(cfg_.crash_at_launch) <
            launches_flushed_ + launch_buf_.size())
        doom = static_cast<std::size_t>(
            std::uint64_t(cfg_.crash_at_launch) - launches_flushed_);

    // Every buffered batch was closed at the same instant (last_t_),
    // each on a distinct idle shard with its content fixed — so host
    // execution is order-free and farms out to the sweep pool. The
    // canonical-order duration slots keep everything downstream
    // bit-identical at any jobs width.
    const std::size_t n_par =
        doom == kNoDoom ? launch_buf_.size() : doom;
    SweepOptions opt;
    opt.workers = static_cast<int>(
        std::min<std::size_t>(std::size_t(std::max(cfg_.jobs, 1)),
                              n_par ? n_par : 1));
    const std::vector<SimNs> durs = sweep(
        n_par,
        [&](SweepLane &lane, std::size_t i) -> SimNs {
            Shard &sh = shards_[launch_buf_[i]];
            const SimNs t0 = sh.machine->now();
            sh.kvs->serveBatch(sh.batch_reqs, sh.batch_results);
            lane.count("serve.batches_executed");
            return sh.machine->now() - t0;
        },
        opt);

    for (std::size_t i = 0; i < n_par; ++i) {
        const std::uint32_t s = launch_buf_[i];
        Shard &sh = shards_[s];
        // Oracle: every response must match the host mirror, applied
        // in launch order with the kernel's own placement policy.
        for (std::size_t j = 0; j < sh.batch_meta.size(); ++j) {
            const std::uint64_t expected = applyReference(
                sh, sh.batch_meta[j].rq, sh.batch_meta[j].set);
            if (expected != sh.batch_results[j])
                ++rep_.oracle_failures;
        }
        push(last_t_ + durs[i], /*kind=*/2, s);
        ++launches_flushed_;
    }

    if (doom != kNoDoom) {
        // The doomed launch runs on the caller with the crash point
        // armed; later launches in the wave never started — their ops are
        // unacknowledged and may be lost.
        Shard &sh = shards_[launch_buf_[doom]];
        bool fired = false;
        try {
            sh.kvs->serveBatch(sh.batch_reqs, sh.batch_results,
                               &cfg_.crash_point);
        } catch (const KernelCrashed &) {
            fired = true;
        }
        ++launches_flushed_;
        rep_.crash_fired = fired;
        if (!fired) {
            // The armed ordinal was past the kernel's events: the
            // batch committed (still unacked — the power failure
            // beats the ack).
            for (std::size_t j = 0; j < sh.batch_meta.size(); ++j)
                applyReference(sh, sh.batch_meta[j].rq,
                               sh.batch_meta[j].set);
        }
        crashed_ = true;
        crashAndRecover();
    }
    launch_buf_.clear();
}

void
ServiceEngine::onBatchDone(std::uint32_t s, SimNs now)
{
    Shard &sh = shards_[s];
    sh.busy = false;
    for (std::size_t j = 0; j < sh.batch_meta.size(); ++j) {
        const AdmittedOp &op = sh.batch_meta[j];
        std::uint64_t h = rep_.ack_signature;
        h = fnv1aU64(op.req_id, h);
        h = fnv1aU64(static_cast<std::uint64_t>(op.rq.verb), h);
        h = fnv1aU64(op.rq.key, h);
        h = fnv1aU64(op.rq.value, h);
        if (varMode())
            h = fnv1aU64(op.rq.value_len, h);
        h = fnv1aU64(sh.batch_results[j], h);
        h = fnv1aU64(bitsOf(op.t_request), h);
        h = fnv1aU64(bitsOf(now), h);
        rep_.ack_signature = h;
        rep_.latency.observe(now - op.t_request);
        ++rep_.ops_acked;
        // Closed loop: the client thinks, then issues its next
        // request.
        push(now + cfg_.think_ns, /*kind=*/0, op.client);
    }
    rep_.makespan_ns = now;
    sh.batch_meta.clear();
    sh.batch_reqs.clear();
    sh.batch_results.clear();
    maybeLaunch(s, now);
}

void
ServiceEngine::crashAndRecover()
{
    telemetry::Span span("serve", "crash_recover");
    // Power failure hits every shard at once; each pool rolls its own
    // deterministic line-survival dice.
    for (Shard &sh : shards_)
        sh.machine->pool().crash(cfg_.survive_prob);
    // Reboot: every shard runs the Figure 6(b) undo recovery.
    for (Shard &sh : shards_)
        rep_.recovery_ran = sh.kvs->serveRecover() || rep_.recovery_ran;
    // Zero acknowledged-write loss: acked batches are a prefix of the
    // mirror, so durable == mirror implies every acked write (and
    // every committed-but-unacked one) survived, and the doomed
    // batch was rolled back whole.
    std::uint64_t h = kFnvOffset;
    for (Shard &sh : shards_) {
        rep_.durable_ok =
            (varMode() ? sh.kvs->durableEqualsVar(sh.mirror, sh.values)
                       : sh.kvs->durableEquals(sh.mirror)) &&
            rep_.durable_ok;
        h = fnv1aU64(sh.kvs->durableStoreHash(), h);
        const PmPoolStats &ps = sh.machine->pool().stats();
        rep_.pool_crashes += ps.crashes;
        rep_.crash_sub_extents += ps.crash_sub_extents;
        rep_.crash_survivors += ps.crash_survivors;
    }
    rep_.state_hash = h;
}

ServeReport
ServiceEngine::run()
{
    telemetry::Span span("serve", "service_run");
    rep_.ack_signature = kFnvOffset;
    rep_.crash_armed = cfg_.crash_at_launch >= 0;

    for (std::uint32_t c = 0; c < cfg_.clients; ++c)
        push(0.0, /*kind=*/0, c);

    while (!crashed_ && (!heap_.empty() || !launch_buf_.empty())) {
        // Resolve closed batches before crossing a virtual-time
        // boundary: a batch closed at T completes strictly after T,
        // so only events at exactly T may run before its flush.
        if (!launch_buf_.empty() &&
            (heap_.empty() || heap_.front().t > last_t_)) {
            flushLaunches();
            continue;
        }
        std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
        const Event e = heap_.back();
        heap_.pop_back();
        last_t_ = e.t;
        switch (e.kind) {
          case 0:
            issueRequest(e.a, e.t);
            break;
          case 1: {
            Shard &sh = shards_[e.a];
            if (e.b != sh.deadline_token)
                break;  // superseded deadline
            sh.deadline_armed = false;
            if (!sh.busy && !sh.pending.empty())
                closeBatch(e.a, e.t, /*by_size=*/false);
            break;
          }
          case 2:
            onBatchDone(e.a, e.t);
            break;
        }
    }

    if (!crashed_ && cfg_.crash_at_launch >= 0) {
        // Armed past the final launch: the failure lands after
        // traffic drained; recovery must still be a no-op success.
        crashAndRecover();
    }

    if (rep_.makespan_ns > 0)
        rep_.throughput_mops = static_cast<double>(rep_.ops_acked) /
                               rep_.makespan_ns * 1e3;
    return rep_;
}

} // namespace gpm
