#include "workloads/kvs.hpp"

#include <algorithm>
#include <cstring>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "pmem/pm_events.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

const char *
kvVerbName(KvVerb v)
{
    switch (v) {
      case KvVerb::Get: return "get";
      case KvVerb::Put: return "put";
      case KvVerb::Del: return "del";
    }
    return "?";
}

namespace {

/** Meta region layout. */
constexpr std::uint64_t kTxnFlagOff = 0;   ///< u32: transaction active
constexpr std::uint64_t kBatchIdOff = 4;   ///< u32: batch in flight

/** How many ops ahead runBatchGpm warms the log row of an op's
 *  expected leader: nearer than kPrefetchAhead, so that op's set,
 *  whose ways the guess reads, was prefetched a while ago. */
constexpr std::uint32_t kLogAhead = kPrefetchAhead / 4;

/** Undo record with its batch epoch (see recover()). */
struct EpochEntry {
    KvLogEntry e;
    std::uint32_t batch = 0;
};

} // namespace

GpKvs::GpKvs(const GpKvsParams &p) : p_(p)
{
    GPM_REQUIRE(p_.n_sets > 0 && p_.batch_ops > 0 && p_.batches > 0,
                "empty gpKVS configuration");
}

GpKvs::GpKvs(Machine &m, const GpKvsParams &p) : GpKvs(p)
{
    m_ = &m;
}

std::uint64_t
GpKvs::hashKey(std::uint64_t key)
{
    std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint32_t
GpKvs::chooseWay(const KvPair *set_base, std::uint64_t key)
{
    for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
        if (set_base[w].key == key)
            return w;  // update in place
    }
    for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
        if (set_base[w].key == 0)
            return w;  // first free way
    }
    // Set full: the SET fails. Evicting here would allow two ops of
    // one batch to write the same slot, and the order-insensitive
    // per-thread undo of Figure 6(b) cannot restore that correctly —
    // MegaKV-style batching likewise resolves way conflicts among the
    // thread group before logging. Eviction happens out of band.
    return kNoWay;
}

std::uint64_t
GpKvs::pairAddr(std::uint32_t set, std::uint32_t way) const
{
    return store_.offset +
           (std::uint64_t(set) * GpKvsParams::kWays + way) *
               sizeof(KvPair);
}

const GpKvs::Probe &
GpKvs::groupProbe(std::uint64_t gtid, std::uint64_t op_idx,
                  std::uint64_t key, bool exact)
{
    Probe &pr = probe_[op_idx];
    if (gtid % GpKvsParams::kGroup != 0)
        return pr;
    KvPair ways[GpKvsParams::kWays];
    pr.set = setOf(key);
    m_->pool().read(pairAddr(pr.set, 0), ways, sizeof(ways));
    if (exact) {
        pr.way = kNoWay;
        for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
            if (ways[w].key == key)
                pr.way = w;
        }
    } else {
        pr.way = chooseWay(ways, key);
    }
    if (pr.way != kNoWay)
        pr.old = ways[pr.way];
    return pr;
}

void
GpKvs::prefetchSet(std::uint64_t key) const
{
    m_->pool().prefetch(pairAddr(setOf(key), 0),
                        GpKvsParams::kWays * sizeof(KvPair));
}

void
GpKvs::prefetchLeaderLog(std::uint64_t op_idx, std::uint64_t key) const
{
    // A peek at the visible image, not a modelled load.
    KvPair ways[GpKvsParams::kWays];
    std::memcpy(ways, m_->pool().visible() + pairAddr(setOf(key), 0),
                sizeof(ways));
    const std::uint32_t way = chooseWay(ways, key);
    if (way != kNoWay)
        log_.front().prefetchInsert(op_idx * GpKvsParams::kGroup + way);
}

void
GpKvs::fillBatch(std::uint32_t batch, std::vector<Op> &out) const
{
    Rng rng = Rng(p_.seed).split(batch);
    out.resize(p_.batch_ops);
    for (Op &op : out) {
        op.key = rng.next() | 1;  // never the empty-slot marker
        op.value = rng.next() | 1;
        op.is_get = rng.chance(p_.get_ratio);
    }
}

const std::vector<GpKvs::Op> &
GpKvs::makeBatch(std::uint32_t batch) const
{
    fillBatch(batch, ops_buf_);
    if (batch > 0 && p_.get_ratio > 0.0) {
        // Make GETs meaningful: target keys the first batch SET (a
        // read-mostly store serving its own population), falling back
        // to random (miss) keys for every second GET. Batch 0 is
        // cached so steady-state assembly touches no allocator.
        if (first_ops_.empty())
            fillBatch(0, first_ops_);
        for (std::uint32_t i = 0; i < ops_buf_.size(); ++i) {
            if (ops_buf_[i].is_get && i % 2 == 0)
                ops_buf_[i].key = first_ops_[i].key;
        }
    }
    return ops_buf_;
}

void
GpKvs::setup()
{
    store_ = gpmMap(*m_, "gpkvs.data", p_.storeBytes(), /*create=*/true);
    meta_ = gpmMap(*m_, "gpkvs.meta", 256, /*create=*/true);

    if (PmEventRecorder *rec = m_->pool().recorder()) {
        // Each KvPair is the atomic unit: a torn half-slot (key
        // without value) is exactly what the per-thread undo protects
        // against, so gpmcheck may assume slot-granular recovery.
        rec->declareRange("gpkvs.data", store_.offset, p_.storeBytes(),
                          sizeof(KvPair), PmRangeKind::Data);
        rec->declareRange("gpkvs.meta", meta_.offset, 8, 0,
                          PmRangeKind::Commit);
        rec->declareOrder("gpkvs.data", "gpkvs.meta", /*strict=*/false);
    }

    const std::uint64_t threads =
        std::uint64_t(p_.batch_ops) * GpKvsParams::kGroup;
    const std::uint32_t tpb = 256;
    const std::uint32_t blocks =
        static_cast<std::uint32_t>(ceilDiv(threads, tpb));

    if (inKernelPersistence(m_->kind()) ||
        m_->kind() == PlatformKind::GpmNdp) {
        if (p_.use_hcl) {
            log_.push_back(GpmLog::createHcl(
                *m_, "gpkvs.log", sizeof(EpochEntry),
                /*max_entries=*/p_.batches + 1, blocks, tpb));
        } else {
            // Size each partition for every batch's worst case. The
            // gtid%P placement is heavily skewed (way-0 leaders
            // cluster on every eighth partition), so leave 8x slack.
            const std::uint64_t part_bytes =
                8 * ceilDiv(std::uint64_t(p_.batch_ops) *
                                (p_.batches + 1) * sizeof(EpochEntry),
                            p_.conv_partitions) + 4096;
            log_.push_back(GpmLog::createConv(*m_, "gpkvs.log",
                                              part_bytes,
                                              p_.conv_partitions));
        }
    } else {
        // emplace releases any previous copy before taking one.
        host_copy_.emplace(p_.storeBytes());
    }
}

void
GpKvs::runBatchGpm(const std::vector<Op> &ops, bool ndp,
                   const std::optional<CrashPoint> &crash)
{
    get_results_.assign(ops.size(), 0);
    const std::uint32_t batch_id =
        m_->pool().load<std::uint32_t>(meta_.offset + kBatchIdOff);

    // Transaction prologue: flag the in-flight batch (persisted from
    // the CPU; a CPU flush is always available regardless of DDIO).
    const std::uint32_t flag_and_batch[2] = {1u, batch_id};
    m_->cpuWritePersist(meta_.offset, flag_and_batch, 8, 1);

    const std::uint64_t threads =
        std::uint64_t(ops.size()) * GpKvsParams::kGroup;
    const std::uint32_t tpb = 256;

    std::uint64_t sets_written = 0;
    probe_.resize(ops.size());
    KernelDesc k;
    k.name = "gpkvs_batch";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(threads, tpb));
    k.block_threads = tpb;
    k.crash = crash;
    k.phases.push_back([this, &ops, batch_id,
                        &sets_written](ThreadCtx &ctx) {
        const std::uint64_t gtid = ctx.globalId();
        const std::uint64_t op_idx = gtid / GpKvsParams::kGroup;
        if (op_idx >= ops.size())
            return;
        const Op &op = ops[op_idx];
        const bool first = gtid % GpKvsParams::kGroup == 0;
        ctx.work(40);  // hashing + probe arithmetic
        if (first && op_idx + kPrefetchAhead < ops.size())
            prefetchSet(ops[op_idx + kPrefetchAhead].key);
        if (first && op_idx + kLogAhead < ops.size() &&
            !ops[op_idx + kLogAhead].is_get)
            prefetchLeaderLog(op_idx + kLogAhead,
                              ops[op_idx + kLogAhead].key);

        if (op.is_get) {
            if (first) {
                // Served from the HBM-cached copy of the store.
                ctx.hbmTraffic(GpKvsParams::kWays * sizeof(KvPair));
                ctx.work(20);
                KvPair gways[GpKvsParams::kWays];
                m_->pool().read(pairAddr(setOf(op.key), 0), gways,
                                sizeof(gways));
                get_results_[op_idx] = 0;
                for (const KvPair &pair : gways) {
                    if (pair.key == op.key)
                        get_results_[op_idx] = pair.value;
                }
            }
            return;
        }

        const Probe &pr = groupProbe(gtid, op_idx, op.key);
        ctx.hbmTraffic(sizeof(KvPair));  // this thread probes one way
        if (gtid % GpKvsParams::kGroup != pr.way)
            return;  // not the leader for this op
        const std::uint32_t set = pr.set;
        const std::uint32_t way = pr.way;

        // GPM-NDP runs the very same kernel (logging included); only
        // the persistence guarantee moves to the CPU — the fences
        // below complete at the volatile LLC and order without
        // persisting (section 6.1).
        EpochEntry entry;
        entry.e = KvLogEntry{set, way, pr.old.key, pr.old.value};
        entry.batch = batch_id;
        // Conventional logs spread ops, not thread ids, over the
        // partitions (leader thread ids cluster on way 0).
        log_.front().insert(ctx, &entry, sizeof(entry),
                            p_.use_hcl ? -1
                                       : static_cast<int>(
                                             op_idx %
                                             p_.conv_partitions));
        ctx.pmStore(pairAddr(set, way), KvPair{op.key, op.value});
        gpmPersist(ctx);
        ++sets_written;
    });
    m_->runKernel(k);
    if (crash)
        return;  // a doomed batch never commits, fired or not
    m_->advance(log_.front().consumeSerializationNs());

    if (ndp) {
        // The CPU sweeps the updated lines: KVS slot, log stripes and
        // tail for each SET.
        m_->cpuPersistScattered(sets_written * 3 *
                                    m_->config().cache_line,
                                p_.cap_threads);
    }

    // Transaction epilogue: batch committed.
    const std::uint32_t done_and_next[2] = {0u, batch_id + 1};
    m_->cpuWritePersist(meta_.offset, done_and_next, 8, 1);
}

void
GpKvs::runBatchCap(const std::vector<Op> &ops)
{
    get_results_.assign(ops.size(), 0);
    const std::uint64_t threads =
        std::uint64_t(ops.size()) * GpKvsParams::kGroup;
    const std::uint32_t tpb = 256;

    // The kernel reports the pairs it wrote so CAP can moderate the
    // extraneous movement to their chunks (section 3.2) — a chunk is
    // still dirtied by a single 16 B update, hence Table 4's
    // amplification.
    std::vector<std::uint64_t> written;
    written.reserve(ops.size());

    probe_.resize(ops.size());
    KernelDesc k;
    k.name = "gpkvs_batch_volatile";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(threads, tpb));
    k.block_threads = tpb;
    k.phases.push_back([this, &ops, &written](ThreadCtx &ctx) {
        const std::uint64_t gtid = ctx.globalId();
        const std::uint64_t op_idx = gtid / GpKvsParams::kGroup;
        if (op_idx >= ops.size())
            return;
        const Op &op = ops[op_idx];
        const bool first = gtid % GpKvsParams::kGroup == 0;
        ctx.work(40);
        if (first && op_idx + kPrefetchAhead < ops.size())
            prefetchHostLines(hostWays(setOf(ops[op_idx + kPrefetchAhead].key)),
                              GpKvsParams::kWays * sizeof(KvPair));
        if (op.is_get) {
            if (first) {
                ctx.hbmTraffic(GpKvsParams::kWays * sizeof(KvPair));
                ctx.work(20);
                const KvPair *ways = hostWays(setOf(op.key));
                get_results_[op_idx] = 0;
                for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
                    if (ways[w].key == op.key)
                        get_results_[op_idx] = ways[w].value;
                }
            }
            return;
        }
        // The group's first lane probes; the others read its way.
        Probe &pr = probe_[op_idx];
        if (first) {
            pr.set = setOf(op.key);
            pr.way = chooseWay(hostWays(pr.set), op.key);
        }
        ctx.hbmTraffic(sizeof(KvPair));
        if (gtid % GpKvsParams::kGroup != pr.way)
            return;
        hostWays(pr.set)[pr.way] = KvPair{op.key, op.value};
        ctx.hbmTraffic(sizeof(KvPair));
        written.push_back(
            (std::uint64_t(pr.set) * GpKvsParams::kWays + pr.way) *
            sizeof(KvPair));
    });
    m_->runKernel(k);

    // Every chunk holding a written pair is transferred and persisted
    // in full; the host copies only the pairs. The rest of each chunk
    // already matches PM: the device copy and the pool start zeroed,
    // and every batch persists every pair it wrote. The pairs are
    // also what the device copy zeroes when it is handed back.
    std::sort(written.begin(), written.end());
    written.erase(std::unique(written.begin(), written.end()),
                  written.end());
    for (const std::uint64_t off : written)
        host_copy_->markDirty(off, sizeof(KvPair));
    m_->capPersistChunks(store_.offset, host_copy_->data(),
                         p_.storeBytes(), {written, sizeof(KvPair)},
                         p_.cap_chunk_bytes, p_.cap_threads);
}

WorkloadResult
GpKvs::run()
{
    WorkloadResult r;
    if (!m_->supports(WriteGrain::Thread)) {
        // Fine-grain per-thread writes deadlock GPUfs (section 6.1).
        r.supported = false;
        return r;
    }
    {
        WorkloadSpan span("setup", "kvs");
        setup();
    }

    const SimNs t0 = m_->now();
    const std::uint64_t pcie0 = m_->pcieWriteBytes();
    const std::uint64_t pay0 = m_->persistPayloadBytes();

    for (std::uint32_t b = 0; b < p_.batches; ++b) {
        const std::vector<Op> &ops = makeBatch(b);
        switch (m_->kind()) {
          case PlatformKind::Gpm:
            gpmPersistBegin(*m_);
            runBatchGpm(ops, /*ndp=*/false);
            gpmPersistEnd(*m_);
            break;
          case PlatformKind::GpmEadr:
            runBatchGpm(ops, /*ndp=*/false);
            break;
          case PlatformKind::GpmNdp:
            runBatchGpm(ops, /*ndp=*/true);
            break;
          default:
            runBatchCap(ops);
            break;
        }
        r.ops_done += static_cast<double>(ops.size());
    }

    r.op_ns = m_->now() - t0;
    r.pcie_write_bytes = m_->pcieWriteBytes() - pcie0;
    r.persisted_payload = m_->persistPayloadBytes() - pay0;

    // Functional check: the durable store (and CAP's device copy)
    // holds each batch's writes, and the last batch's GETs returned
    // what an in-order reference execution would have observed.
    WorkloadSpan verify("verify", "kvs");
    bool gets_ok = false;
    const ExpectedStore want = expectedStore(&gets_ok);
    r.verified = gets_ok && storesMatch(want);
    return r;
}

void
GpKvs::recover()
{
    undoLogRecover<EpochEntry>(
        *m_, "gpkvs_recover", "gpkvs.log",
        std::uint64_t(p_.batch_ops) * GpKvsParams::kGroup,
        meta_.offset + kBatchIdOff, meta_.offset + kTxnFlagOff,
        [this](ThreadCtx &ctx, const EpochEntry &entry) {
            ctx.pmStore(pairAddr(entry.e.set, entry.e.way),
                        KvPair{entry.e.old_key, entry.e.old_value});
        });
}

std::uint64_t
GpKvs::doomedThreadPhases(const GpKvsParams &p)
{
    return std::uint64_t(p.batch_ops) * GpKvsParams::kGroup;
}

WorkloadResult
GpKvs::runWithCrash(std::uint32_t crash_batch, double frac,
                    double survive_prob)
{
    GPM_REQUIRE(frac >= 0.0 && frac <= 1.0, "bad crash fraction");
    WorkloadResult r;
    const CrashOutcome o = runCrashPoint(
        crashReference(p_, crash_batch),
        CrashPoint::afterFraction(frac, doomedThreadPhases(p_)), survive_prob,
        /*open_persist_window=*/true, &r);
    GPM_ASSERT(o.fired || frac >= 1.0, "crash point did not fire");
    return r;
}

CrashReference
GpKvs::crashReference(const GpKvsParams &p, std::uint32_t crash_batch)
{
    GPM_REQUIRE(crash_batch < p.batches, "crash batch out of range");
    telemetry::Span span("oracle", "reference");
    span.arg("workload", "kvs");
    const GpKvs model(p);
    std::vector<KvPair> store(std::uint64_t(p.n_sets) *
                              GpKvsParams::kWays);
    const std::size_t bytes = store.size() * sizeof(KvPair);
    for (std::uint32_t b = 0; b < crash_batch; ++b)
        model.applyBatchReference(store, b);
    CrashReference ref;
    ref.crash_batch = crash_batch;
    ref.pre_crash = CrashImage(store.data(), bytes);
    model.applyBatchReference(store, crash_batch);
    ref.committed = CrashImage(store.data(), bytes);
    return ref;
}

CrashOutcome
GpKvs::runCrashPoint(const CrashReference &ref, const CrashPoint &point,
                     double survive_prob, bool open_persist_window,
                     WorkloadResult *result_out)
{
    GPM_REQUIRE(p_.use_hcl,
                "per-thread undo recovery requires the HCL log");
    GPM_REQUIRE(ref.crash_batch < p_.batches, "crash batch out of range");
    CrashSteps s;
    s.workload = CrashWorkload::Kvs;
    s.crash_step = ref.crash_batch;
    s.setup = [this] { setup(); };
    s.step = [this](std::uint32_t b,
                    const std::optional<CrashPoint> &armed) {
        runBatchGpm(makeBatch(b), /*ndp=*/false, armed);
    };
    s.in_flight = [this] {
        return m_->pool().load<std::uint32_t>(meta_.offset +
                                              kTxnFlagOff) == 1;
    };
    s.recover = [this] { recover(); };
    s.ops_done = [this, &ref] {
        return static_cast<double>(ref.crash_batch) * p_.batch_ops;
    };
    s.check = [this, &ref](CrashOutcome &o) {
        o.state_hash = ref.check(
            o, m_->pool().durableRange(store_.offset, p_.storeBytes()).data(),
            p_.storeBytes());
        return o.strict_ok;
    };
    return runCrashSequence(*m_, s, point, survive_prob,
                            open_persist_window, result_out);
}

bool
GpKvs::durableEquals(const std::vector<KvPair> &reference) const
{
    const std::uint64_t bytes = reference.size() * sizeof(KvPair);
    return std::memcmp(
               m_->pool().durableRange(store_.offset, bytes).data(),
               reference.data(), bytes) == 0;
}

std::uint64_t
GpKvs::durableStoreHash() const
{
    std::uint64_t h = fnv1a(
        m_->pool().durableRange(store_.offset, p_.storeBytes()).data(),
        p_.storeBytes());
    // Variable-size serving: fold the heap's durable allocation state
    // so two runs differing only in slot accounting can't collide.
    if (serve_heap_)
        h = fnv1aU64(serve_heap_->durableBitmapHash(), h);
    return h;
}

bool
GpKvs::lookup(std::uint64_t key, std::uint64_t &value_out) const
{
    const std::uint32_t set =
        static_cast<std::uint32_t>(hashKey(key) % p_.n_sets);
    for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
        const KvPair pair =
            m_->pool().load<KvPair>(pairAddr(set, w));
        if (pair.key == key) {
            value_out = pair.value;
            return true;
        }
    }
    return false;
}

void
GpKvs::serveSetup(std::uint32_t max_batch_ops)
{
    GPM_REQUIRE(inKernelPersistence(m_->kind()),
                "serving requires in-kernel persistence (GPM/eADR)");
    GPM_REQUIRE(p_.use_hcl, "the serving path logs through HCL");
    GPM_REQUIRE(max_batch_ops > 0, "empty serve batch capacity");

    serve_max_ops_ = max_batch_ops;
    // The recovery kernel's grid spans p_.batch_ops ops; keep it in
    // sync with the serve log geometry.
    p_.batch_ops = max_batch_ops;

    store_ = gpmMap(*m_, "gpkvs.data", p_.storeBytes(), /*create=*/true);
    meta_ = gpmMap(*m_, "gpkvs.meta", 256, /*create=*/true);
    if (PmEventRecorder *rec = m_->pool().recorder()) {
        rec->declareRange("gpkvs.data", store_.offset, p_.storeBytes(),
                          sizeof(KvPair), PmRangeKind::Data);
        rec->declareRange("gpkvs.meta", meta_.offset, 8, 0,
                          PmRangeKind::Commit);
        rec->declareOrder("gpkvs.data", "gpkvs.meta", /*strict=*/false);
    }

    const std::uint64_t threads =
        std::uint64_t(max_batch_ops) * GpKvsParams::kGroup;
    const std::uint32_t tpb = 256;
    const std::uint32_t blocks =
        static_cast<std::uint32_t>(ceilDiv(threads, tpb));
    // At most one undo entry per leader thread per in-flight batch,
    // and serveBatch truncates after every commit — 2 rows per thread
    // is already headroom.
    log_.push_back(GpmLog::createHcl(*m_, "gpkvs.log",
                                     sizeof(EpochEntry),
                                     /*max_entries=*/2, blocks, tpb));
}

void
GpKvs::serveBatch(const std::vector<KvRequest> &reqs,
                  std::vector<std::uint64_t> &results,
                  const CrashPoint *crash)
{
    GPM_REQUIRE(serve_max_ops_ > 0, "serveSetup() was not called");
    GPM_REQUIRE(!reqs.empty() && reqs.size() <= serve_max_ops_,
                "serve batch of ", reqs.size(), " ops outside [1, ",
                serve_max_ops_, "]");

    // The dynamic batcher's dedup contract: at most one request per
    // set index. Distinct sets are disjoint 128 B lines, which is
    // what lets the kernel run block-independent and makes batch
    // results independent of intra-batch order.
    set_scratch_.clear();
    for (const KvRequest &rq : reqs)
        set_scratch_.push_back(setOf(rq.key));
    std::sort(set_scratch_.begin(), set_scratch_.end());
    GPM_REQUIRE(std::adjacent_find(set_scratch_.begin(),
                                   set_scratch_.end()) ==
                    set_scratch_.end(),
                "serve batch carries two requests on one set");

    results.assign(reqs.size(), 0);
    if (serve_heap_)
        serveStageVar(reqs);

    // Variable-size: the Intent record of the slot deltas this batch
    // will make real. The record never self-commits — the kvs txn flag
    // below is the composite commit point serveRecover() consults.
    const std::uint32_t batch_id =
        m_->pool().load<std::uint32_t>(meta_.offset + kBatchIdOff);
    if (serve_heap_)
        serve_heap_->txBegin(GpmHeap::TxMode::Intent, batch_id,
                             plan_allocs_, plan_frees_);
    const std::uint32_t flag_and_batch[2] = {1u, batch_id};
    m_->cpuWritePersist(meta_.offset, flag_and_batch, 8, 1);

    const std::uint64_t threads =
        std::uint64_t(reqs.size()) * GpKvsParams::kGroup;
    const std::uint32_t tpb = 256;
    KernelDesc k;
    k.name = "gpkvs_serve";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(threads, tpb));
    k.block_threads = tpb;
    if (crash)
        k.crash = *crash;
    probe_.resize(reqs.size());
    k.phases.push_back([this, &reqs, &results, batch_id](ThreadCtx &ctx) {
        const std::uint64_t gtid = ctx.globalId();
        const std::uint64_t op_idx = gtid / GpKvsParams::kGroup;
        if (op_idx >= reqs.size())
            return;
        const KvRequest &rq = reqs[op_idx];
        const bool first = gtid % GpKvsParams::kGroup == 0;
        ctx.work(40);  // hashing + probe arithmetic
        if (first && op_idx + kPrefetchAhead < reqs.size())
            prefetchSet(reqs[op_idx + kPrefetchAhead].key);

        if (rq.verb == KvVerb::Get) {
            if (first) {
                // Served from the HBM-cached copy of the store.
                ctx.hbmTraffic(GpKvsParams::kWays * sizeof(KvPair));
                ctx.work(20);
                KvPair ways[GpKvsParams::kWays];
                m_->pool().read(pairAddr(setOf(rq.key), 0), ways,
                                sizeof(ways));
                for (const KvPair &pair : ways) {
                    if (pair.key == rq.key)
                        results[op_idx] =
                            serve_heap_ ? serve_heap_->readPayloadHash(
                                              ctx, pair.value)
                                        : pair.value;
                }
            }
            return;
        }

        // DEL: only an exact key match has a leader.
        const Probe &pr = groupProbe(gtid, op_idx, rq.key,
                                     /*exact=*/rq.verb == KvVerb::Del);
        ctx.hbmTraffic(sizeof(KvPair));  // this thread probes one way
        if (gtid % GpKvsParams::kGroup != pr.way)
            return;  // not the leader (PUT on full set / DEL miss)
        const std::uint32_t set = pr.set;
        const std::uint32_t way = pr.way;

        EpochEntry entry;
        entry.e = KvLogEntry{set, way, pr.old.key, pr.old.value};
        entry.batch = batch_id;
        log_.front().insert(ctx, &entry, sizeof(entry));
        KvPair next{};
        if (rq.verb == KvVerb::Put) {
            GPM_ASSERT(!serve_heap_ || plan_handles_[op_idx] != 0,
                       "kernel way diverged from the host plan");
            next = KvPair{rq.key, serve_heap_ ? plan_handles_[op_idx]
                                              : rq.value};
        }
        ctx.pmStore(pairAddr(set, way), next);
        gpmPersist(ctx);
        results[op_idx] = 1;
    });
    m_->runKernel(k);  // KernelCrashed propagates; record + flag stay
    m_->advance(log_.front().consumeSerializationNs());

    // Transaction epilogue — THE commit point: after this store is
    // durable the batch is acknowledgeable and serveRecover() rolls a
    // variable-size batch's Intent record forward instead of
    // discarding it. Then truncate the per-thread undo tails so a
    // long-running service never outgrows the log.
    const std::uint32_t done_and_next[2] = {0u, batch_id + 1};
    m_->cpuWritePersist(meta_.offset, done_and_next, 8, 1);
    if (serve_heap_)
        serve_heap_->txCommit();
    log_.front().clearAll();
}

void
GpKvs::serveSetupVar(std::uint32_t max_batch_ops, GpmHeapParams heap)
{
    serveSetup(max_batch_ops);
    heap.name = "gpkvs.heap";
    // One record covers a whole batch: each op allocates at most one
    // slot (PUT) and frees at most one (overwrite or DEL).
    heap.max_tx_ops =
        std::max<std::uint32_t>(heap.max_tx_ops, 2u * max_batch_ops);
    heap.max_tx_blob = 0;
    serve_heap_ = std::make_unique<GpmHeap>(*m_, heap);
    serve_heap_->setup(/*create=*/true);
    if (PmEventRecorder *rec = m_->pool().recorder()) {
        // The Intent record is durable before the serve kernel
        // publishes any handle into the directory.
        rec->declareOrder(serve_heap_->redoLabel(), "gpkvs.data",
                          /*strict=*/false);
    }
}

void
GpKvs::serveStageVar(const std::vector<KvRequest> &reqs)
{
    // ---- host plan: predict each PUT's way and every handle this
    // batch replaces or deletes. One op per set (checked by the
    // caller) means the kernel probes exactly the state the plan saw,
    // so the prediction is exact.
    plan_handles_.assign(reqs.size(), 0);
    std::vector<std::uint64_t> &allocs = plan_allocs_;
    std::vector<std::uint64_t> &frees = plan_frees_;
    std::vector<StagedVal> &staged = plan_staged_;
    allocs.clear();
    frees.clear();
    staged.clear();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const KvRequest &rq = reqs[i];
        if (rq.verb == KvVerb::Get)
            continue;
        const std::uint32_t set = setOf(rq.key);
        KvPair ways[GpKvsParams::kWays];
        m_->pool().read(pairAddr(set, 0), ways, sizeof(ways));
        if (rq.verb == KvVerb::Put) {
            GPM_REQUIRE(rq.value_len > 0,
                        "variable-size PUT carries no length");
            const std::uint32_t way = chooseWay(ways, rq.key);
            if (way == kNoWay)
                continue;  // set full: the PUT is rejected
            if (ways[way].key == rq.key)
                frees.push_back(ways[way].value);
            const std::uint64_t h = serve_heap_->alloc(rq.value_len);
            allocs.push_back(h);
            staged.push_back({h, rq.value});
            plan_handles_[i] = h;
        } else {
            for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
                if (ways[w].key == rq.key)
                    frees.push_back(ways[w].value);
            }
        }
    }

    // ---- stage payloads into the still-unreachable slots. A crash
    // from here on is reconciled by serveRecover(); the popped free
    // slots come back with the heap's bitmap rebuild.
    if (!staged.empty()) {
        KernelDesc k;
        k.name = "gpkvs_serve_stage";
        k.blocks = static_cast<std::uint32_t>(staged.size());
        k.block_threads = GpKvsParams::kGroup;
        k.phases.push_back([this, &staged](ThreadCtx &ctx) {
            const std::uint64_t b =
                ctx.globalId() / GpKvsParams::kGroup;
            if (ctx.globalId() % GpKvsParams::kGroup != 0) {
                ctx.work(1);
                return;
            }
            serve_heap_->stagePayload(ctx, staged[b].handle,
                                      staged[b].seed);
            gpmPersist(ctx);
        });
        m_->runKernel(k);
    }
}

bool
GpKvs::serveRecover()
{
    GPM_REQUIRE(serve_max_ops_ > 0, "serveSetup() was not called");
    bool ran = false;
    const std::uint32_t flag =
        m_->pool().load<std::uint32_t>(meta_.offset + kTxnFlagOff);
    if (flag == 1) {
        // Recovery opens its own persist window: a reboot-time
        // procedure gets to configure DDIO even if the crashed
        // service left it in either state.
        if (m_->kind() == PlatformKind::Gpm)
            gpmPersistBegin(*m_);
        recover();
        if (m_->kind() == PlatformKind::Gpm)
            gpmPersistEnd(*m_);
        ran = true;
    }
    if (serve_heap_) {
        // Composite commit decision. The record is Intent-mode, so
        // the heap alone would discard it; it rolls forward exactly
        // when the epilogue ran before the crash — txn flag clear AND
        // the batch counter advanced past the record's batch. flag==1
        // means the undo above just restored the old references, and
        // a record whose prologue never ran (flag clear, counter not
        // advanced) published nothing — both discard.
        GpmHeap::InFlight rec;
        const bool in_flight = serve_heap_->inFlight(rec);
        const bool committed =
            in_flight && flag == 0 &&
            m_->pool().load<std::uint32_t>(meta_.offset +
                                           kBatchIdOff) ==
                rec.batch_id + 1;
        if (m_->kind() == PlatformKind::Gpm)
            gpmPersistBegin(*m_);
        {
            PmRecoveryScope scope(m_->pool().recorder());
            ran = serve_heap_->recover(committed) || ran;
        }
        if (m_->kind() == PlatformKind::Gpm)
            gpmPersistEnd(*m_);
    }
    log_.front().clearAll();
    return ran;
}

std::uint64_t
GpKvs::serveReference(KvPair *set_base, const KvRequest &rq)
{
    if (rq.verb == KvVerb::Get) {
        for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
            if (set_base[w].key == rq.key)
                return set_base[w].value;
        }
        return 0;
    }
    if (rq.verb == KvVerb::Put) {
        const std::uint32_t way = chooseWay(set_base, rq.key);
        if (way == kNoWay)
            return 0;
        set_base[way] = KvPair{rq.key, rq.value};
        return 1;
    }
    for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
        if (set_base[w].key == rq.key) {
            set_base[w] = KvPair{};
            return 1;
        }
    }
    return 0;
}

ServeVarValues::Entry &
ServeVarValues::entry(std::uint64_t ref)
{
    GPM_ASSERT(ref >= 1 && ref <= entries_.size(),
               "serve oracle value reference out of range");
    return entries_[ref - 1];
}

std::uint64_t
ServeVarValues::put(std::uint64_t ref, std::uint64_t seed,
                    std::uint32_t len)
{
    if (ref == 0) {
        if (free_.empty()) {
            entries_.emplace_back();
            ref = entries_.size();
        } else {
            ref = free_.back();
            free_.pop_back();
        }
    }
    entry(ref) = Entry{seed, len, false};
    return ref;
}

void
ServeVarValues::drop(std::uint64_t ref)
{
    entry(ref);  // a bad reference must not enter the free list
    free_.push_back(ref);
}

std::uint64_t
ServeVarValues::hash(std::uint64_t ref)
{
    Entry &e = entry(ref);
    if (!e.hashed) {
        e.word = GpmHeap::payloadHash(e.word, e.len);
        e.hashed = true;
    }
    return e.word;
}

std::uint64_t
GpKvs::serveReferenceVar(KvPair *set_base, const KvRequest &rq,
                         ServeVarValues &values)
{
    if (rq.verb == KvVerb::Get) {
        for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
            if (set_base[w].key == rq.key)
                return values.hash(set_base[w].value);
        }
        return 0;
    }
    if (rq.verb == KvVerb::Put) {
        const std::uint32_t way = chooseWay(set_base, rq.key);
        if (way == kNoWay)
            return 0;
        // An overwrite reuses the slot's entry; a free way holds 0.
        set_base[way] = KvPair{
            rq.key, values.put(set_base[way].value, rq.value,
                               rq.value_len)};
        return 1;
    }
    for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
        if (set_base[w].key == rq.key) {
            values.drop(set_base[w].value);
            set_base[w] = KvPair{};
            return 1;
        }
    }
    return 0;
}

bool
GpKvs::durableEqualsVar(const std::vector<KvPair> &reference,
                        ServeVarValues &values) const
{
    GPM_REQUIRE(serve_heap_ != nullptr,
                "durableEqualsVar without serveSetupVar");
    const std::uint64_t n =
        std::uint64_t(p_.n_sets) * GpKvsParams::kWays;
    GPM_REQUIRE(reference.size() == n, "reference mirror of ",
                reference.size(), " slots, store has ", n);
    const DurableBytes store =
        m_->pool().durableRange(store_.offset, p_.storeBytes());
    std::vector<std::uint64_t> live;
    for (std::uint64_t i = 0; i < n; ++i) {
        KvPair d;
        std::memcpy(&d, store.data() + i * sizeof(KvPair), sizeof(d));
        const KvPair &r = reference[i];
        if (d.key != r.key)
            return false;
        if (d.key == 0) {
            if (d.value != 0)
                return false;
            continue;
        }
        // The mirror stores a value reference where the directory
        // stores a handle.
        if (GpmHeap::lenOf(d.value) != values.len(r.value) ||
            serve_heap_->durablePayloadHash(d.value) !=
                values.hash(r.value))
            return false;
        live.push_back(GpmHeap::offOf(d.value));
    }
    // Leak / double-allocation check: live handles and durable bitmap
    // bits must be the same set.
    std::sort(live.begin(), live.end());
    return live == serve_heap_->durableAllocatedOffsets();
}

template <typename SetAt, typename OnGet>
void
GpKvs::replayBatch(std::uint32_t batch, SetAt &&setAt,
                   OnGet &&onGet) const
{
    const std::vector<Op> &ops = makeBatch(batch);
    for (std::uint32_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        if (op.is_get) {
            onGet(i, op);
            continue;
        }
        KvPair *base = setAt(setOf(op.key));
        const std::uint32_t way = chooseWay(base, op.key);
        if (way == kNoWay)
            continue;  // SET failed: the set is full
        base[way] = KvPair{op.key, op.value};
    }
}

void
GpKvs::applyBatchReference(std::vector<KvPair> &mirror,
                           std::uint32_t batch) const
{
    replayBatch(
        batch,
        [&](std::uint32_t set) {
            return &mirror[std::uint64_t(set) * GpKvsParams::kWays];
        },
        [](std::uint32_t, const Op &) {});
}

GpKvs::ExpectedStore
GpKvs::expectedStore(bool *gets_ok) const
{
    ExpectedStore want;
    want.slot.assign(p_.n_sets, 0);
    // Room for the worst case, so growing never copies the ways.
    want.ways.reserve(std::min<std::uint64_t>(
                          std::uint64_t(p_.batches) * p_.batch_ops,
                          p_.n_sets) *
                      GpKvsParams::kWays);
    // A set's ways are allocated at its first SET.
    const auto setAt = [&](std::uint32_t set) {
        if (want.slot[set] == 0) {
            want.ways.resize(want.ways.size() + GpKvsParams::kWays);
            want.slot[set] = static_cast<std::uint32_t>(
                want.ways.size() / GpKvsParams::kWays);
        }
        return &want.ways[std::uint64_t(want.slot[set] - 1) *
                          GpKvsParams::kWays];
    };
    bool ok = true;
    for (std::uint32_t b = 0; b < p_.batches; ++b) {
        const bool check = gets_ok && b + 1 == p_.batches;
        replayBatch(b, setAt, [&](std::uint32_t i, const Op &op) {
            if (!check)
                return;
            std::uint64_t expected = 0;
            if (const KvPair *base = want.find(setOf(op.key))) {
                for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
                    if (base[w].key == op.key)
                        expected = base[w].value;
                }
            }
            ok = ok && i < get_results_.size() &&
                 get_results_[i] == expected;
        });
    }
    if (gets_ok)
        *gets_ok = ok;
    return want;
}

bool
GpKvs::storeMatches(const ExpectedStore &want,
                    const std::uint8_t *store) const
{
    constexpr std::uint64_t kSetBytes =
        GpKvsParams::kWays * sizeof(KvPair);
    // Sets [first, end) are all zero?
    const auto allZero = [&](std::uint64_t first, std::uint64_t end) {
        const std::uint8_t *p = store + first * kSetBytes;
        const std::uint64_t n = (end - first) * kSetBytes;
        return n == 0 || (p[0] == 0 && std::memcmp(p, p + 1, n - 1) == 0);
    };
    std::uint64_t untouched = 0;  // first set of the current zero run
    for (std::uint32_t set = 0; set < p_.n_sets; ++set) {
        const KvPair *ways = want.find(set);
        if (!ways)
            continue;
        if (!allZero(untouched, set) ||
            std::memcmp(store + set * kSetBytes, ways, kSetBytes) != 0)
            return false;
        untouched = set + 1;
    }
    return allZero(untouched, p_.n_sets);
}

bool
GpKvs::storesMatch(const ExpectedStore &want) const
{
    // storeMatches fixes every byte of the store, so one walk of the
    // durable image and a plain comparison of the copy suffice.
    const DurableBytes durable =
        m_->pool().durableRange(store_.offset, p_.storeBytes());
    return storeMatches(want, durable.data()) &&
           (!host_copy_ || std::memcmp(durable.data(), host_copy_->data(),
                                       p_.storeBytes()) == 0);
}

} // namespace gpm
