#include "pmheap/gpm_map.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/hash.hpp"
#include "common/status.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/thread_ctx.hpp"
#include "pmem/pm_events.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

namespace {

/** Blob slot per planned directory write. */
struct PlannedWrite {
    std::uint64_t key;     ///< 0 for a Del clear
    std::uint64_t handle;  ///< 0 for a Del clear
    std::uint32_t group;
    std::uint32_t way;
};

constexpr std::uint32_t kBlobPerWrite = 24;

void
encodeWrite(std::uint8_t *dst, const PlannedWrite &w)
{
    std::memcpy(dst, &w.key, 8);
    std::memcpy(dst + 8, &w.handle, 8);
    std::memcpy(dst + 16, &w.group, 4);
    std::memcpy(dst + 20, &w.way, 4);
}

PlannedWrite
decodeWrite(const std::uint8_t *src)
{
    PlannedWrite w{};
    std::memcpy(&w.key, src, 8);
    std::memcpy(&w.handle, src + 8, 8);
    std::memcpy(&w.group, src + 16, 4);
    std::memcpy(&w.way, src + 20, 4);
    return w;
}

} // namespace

GpmMap::GpmMap(Machine &m, const GpmMapParams &p)
    : m_(&m), p_(p),
      heap_(m, [&p] {
          GpmHeapParams hp = p.heap;
          hp.name = p.name + ".heap";
          return hp;
      }())
{
    GPM_REQUIRE(p_.n_groups > 0, "GpmMap needs groups");
}

void
GpmMap::setup(bool create)
{
    heap_.setup(create);
    dir_ = gpmMap(*m_, p_.name + ".dir", p_.dirBytes(), create);

    if (PmEventRecorder *rec = m_->pool().recorder()) {
        // Entries are published by single 16 B leader stores; the
        // heap's commit record must be durable before any of them.
        rec->declareRange(p_.name + ".dir", dir_.offset, dir_.size,
                          sizeof(MapEntry), PmRangeKind::Data);
        rec->declareOrder(heap_.redoLabel(), p_.name + ".dir", false);
    }
}

std::uint64_t
GpmMap::groupOf(std::uint64_t key) const
{
    return fnv1aU64(key) % p_.n_groups;
}

std::uint64_t
GpmMap::entryAddr(std::uint32_t group, std::uint32_t way) const
{
    return dir_.offset +
           (std::uint64_t(group) * GpmMapParams::kWays + way) *
               sizeof(MapEntry);
}

std::vector<std::uint8_t>
GpmMap::runBatch(const std::vector<MapOp> &ops,
                 const std::optional<CrashPoint> &crash_stage,
                 const std::optional<CrashPoint> &crash_publish)
{
    telemetry::Span span("pmheap", "map_batch");
    std::vector<std::uint8_t> results(ops.size(), 0);

    // ---- plan (host): probe against a scratch view so ops later in
    // the batch see earlier ops' planned effects, and every planned
    // write gets a distinct (group, way).
    std::unordered_map<std::uint64_t, std::array<MapEntry, 8>> scratch;
    auto groupView = [&](std::uint64_t g) -> std::array<MapEntry, 8> & {
        auto it = scratch.find(g);
        if (it == scratch.end()) {
            std::array<MapEntry, 8> v;
            m_->pool().read(entryAddr(static_cast<std::uint32_t>(g), 0),
                            v.data(), sizeof(v));
            it = scratch.emplace(g, v).first;
        }
        return it->second;
    };

    std::vector<PlannedWrite> plan;
    struct Staged {
        std::uint64_t handle;
        std::uint64_t seed;
    };
    std::vector<Staged> staged;
    std::vector<std::uint64_t> allocs, frees;

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const MapOp &op = ops[i];
        GPM_REQUIRE(op.key != 0, "GpmMap key 0 is reserved");
        for (std::size_t j = 0; j < i; ++j)
            GPM_REQUIRE(ops[j].key != op.key,
                        "duplicate key in GpmMap batch");
        const auto g = static_cast<std::uint32_t>(groupOf(op.key));
        std::array<MapEntry, 8> &view = groupView(g);
        std::uint32_t hit = GpmMapParams::kWays;
        std::uint32_t empty = GpmMapParams::kWays;
        for (std::uint32_t w = 0; w < GpmMapParams::kWays; ++w) {
            if (view[w].key == op.key)
                hit = w;
            else if (view[w].key == 0 && empty == GpmMapParams::kWays)
                empty = w;
        }
        if (op.verb == MapOp::Verb::Del) {
            if (hit == GpmMapParams::kWays)
                continue; // absent: reject
            frees.push_back(view[hit].handle);
            plan.push_back({0, 0, g, hit});
            view[hit] = MapEntry{};
            results[i] = 1;
            continue;
        }
        const std::uint32_t w =
            hit != GpmMapParams::kWays ? hit : empty;
        if (w == GpmMapParams::kWays)
            continue; // full group: reject
        if (hit != GpmMapParams::kWays)
            frees.push_back(view[hit].handle);
        const std::uint64_t h = heap_.alloc(op.len);
        allocs.push_back(h);
        staged.push_back({h, op.seed});
        plan.push_back({op.key, h, g, w});
        view[w] = MapEntry{op.key, h};
        results[i] = 1;
    }

    if (plan.empty()) {
        ++batch_seq_;
        return results;
    }

    // Collapse the plan to the final value per (group, way): a Del
    // whose way is reused by a later Put in the same batch would
    // otherwise publish two stores into one 16 B atomic cell in one
    // launch — a genuine torn-update hazard the analyzer flags. One
    // store per cell keeps every entry update single-epoch.
    {
        std::vector<PlannedWrite> collapsed;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            bool superseded = false;
            for (std::size_t j = i + 1; j < plan.size() && !superseded;
                 ++j)
                superseded = plan[j].group == plan[i].group &&
                             plan[j].way == plan[i].way;
            if (!superseded)
                collapsed.push_back(plan[i]);
        }
        plan = std::move(collapsed);
    }

    // ---- stage (device): payloads into still-unreachable slots.
    // A crash from here on is reconciled by recover(); the volatile
    // free lists are rebuilt there, so popped-but-uncommitted slots
    // are never lost.
    if (!staged.empty()) {
        KernelDesc k;
        k.name = "gpmmap_stage";
        k.blocks = static_cast<std::uint32_t>(staged.size());
        k.block_threads = GpmMapParams::kWays;
        k.crash = crash_stage;
        k.phases = {[this, &staged](ThreadCtx &ctx) {
            const std::uint64_t b =
                ctx.globalId() / GpmMapParams::kWays;
            if (ctx.globalId() % GpmMapParams::kWays != 0) {
                ctx.work(1);
                return;
            }
            heap_.stagePayload(ctx, staged[b].handle, staged[b].seed);
            gpmPersist(ctx);
        }};
        m_->runKernel(k);
    }

    // ---- commit record before any publication (commit-before-data).
    std::vector<std::uint8_t> blob(plan.size() * kBlobPerWrite);
    for (std::size_t i = 0; i < plan.size(); ++i)
        encodeWrite(blob.data() + i * kBlobPerWrite, plan[i]);
    heap_.txBegin(GpmHeap::TxMode::Commit, batch_seq_, allocs, frees,
                  blob.data(), static_cast<std::uint32_t>(blob.size()));

    // ---- publish (device): one leader store per entry, all
    // (group, way) targets distinct by construction.
    {
        KernelDesc k;
        k.name = "gpmmap_publish";
        k.blocks = static_cast<std::uint32_t>(plan.size());
        k.block_threads = GpmMapParams::kWays;
        k.crash = crash_publish;
        k.phases = {[this, &plan](ThreadCtx &ctx) {
            const std::uint64_t b =
                ctx.globalId() / GpmMapParams::kWays;
            if (ctx.globalId() % GpmMapParams::kWays != 0) {
                ctx.work(1);
                return;
            }
            const PlannedWrite &w = plan[b];
            const MapEntry e{w.key, w.handle};
            ctx.pmWrite(entryAddr(w.group, w.way), &e, sizeof(e));
            gpmPersist(ctx);
        }};
        m_->runKernel(k);
    }

    heap_.txCommit();
    ++batch_seq_;
    telemetry::count("pmheap.map_batches");
    return results;
}

bool
GpmMap::recover()
{
    PmRecoveryScope scope(m_->pool().recorder());
    telemetry::Span span("recovery", "gpmmap_recover");

    GpmHeap::InFlight rec;
    const bool had = heap_.inFlight(rec);
    if (had && rec.mode == GpmHeap::TxMode::Commit) {
        // Replay every planned directory write from the blob — the
        // record is the truth, whether the publish kernel got to a
        // given entry or not. Idempotent under repeated crashes.
        GPM_REQUIRE(rec.blob.size() % kBlobPerWrite == 0,
                    "GpmMap '", p_.name, "': corrupt record blob");
        for (std::size_t at = 0; at < rec.blob.size();
             at += kBlobPerWrite) {
            const PlannedWrite w = decodeWrite(rec.blob.data() + at);
            const MapEntry e{w.key, w.handle};
            m_->cpuWritePersist(entryAddr(w.group, w.way), &e,
                                sizeof(e), 1);
        }
        telemetry::count("pmheap.map_replayed_writes",
                         rec.blob.size() / kBlobPerWrite);
    }
    heap_.recover();
    if (had)
        batch_seq_ = rec.batch_id + 1;
    return had;
}

bool
GpmMap::get(std::uint64_t key, MapEntry &out) const
{
    const auto g = static_cast<std::uint32_t>(groupOf(key));
    for (std::uint32_t w = 0; w < GpmMapParams::kWays; ++w) {
        auto e = m_->pool().load<MapEntry>(entryAddr(g, w));
        if (e.key == key) {
            out = e;
            return true;
        }
    }
    return false;
}

std::uint64_t
GpmMap::readValueHash(ThreadCtx &ctx, std::uint64_t handle) const
{
    return heap_.readPayloadHash(ctx, handle);
}

bool
GpmMap::durableEqualsOracle(
    const std::vector<std::pair<std::uint64_t, MapOracleValue>> &oracle)
    const
{
    std::unordered_map<std::uint64_t, MapOracleValue> want;
    for (const auto &kv : oracle)
        want.emplace(kv.first, kv.second);

    const DurableBytes dir = m_->pool().durableRange(dir_.offset, dir_.size);
    std::vector<std::uint64_t> dir_offsets;
    std::size_t found = 0;
    for (std::uint32_t g = 0; g < p_.n_groups; ++g)
        for (std::uint32_t w = 0; w < GpmMapParams::kWays; ++w) {
            MapEntry e;
            std::memcpy(&e, dir.data() + (entryAddr(g, w) - dir_.offset),
                        sizeof(e));
            if (e.key == 0)
                continue;
            auto it = want.find(e.key);
            if (it == want.end())
                return false; // entry the oracle never stored
            if (groupOf(e.key) != g)
                return false; // entry outside its home group
            if (GpmHeap::lenOf(e.handle) != it->second.len)
                return false;
            if (heap_.durablePayloadHash(e.handle) !=
                GpmHeap::payloadHash(it->second.seed, it->second.len))
                return false;
            dir_offsets.push_back(GpmHeap::offOf(e.handle));
            ++found;
        }
    if (found != want.size())
        return false; // a key the oracle has is missing

    // Leak / double-allocation check: directory handles and bitmap
    // bits must be the same set (duplicates break sorted equality
    // against the duplicate-free bitmap scan).
    std::sort(dir_offsets.begin(), dir_offsets.end());
    return dir_offsets == heap_.durableAllocatedOffsets();
}

std::uint64_t
GpmMap::durableStateHash() const
{
    std::uint64_t h =
        fnv1a(m_->pool().durableRange(dir_.offset, dir_.size).data(),
              dir_.size);
    return fnv1aU64(heap_.durableBitmapHash(), h);
}

} // namespace gpm
