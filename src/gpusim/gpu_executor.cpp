#include "gpusim/gpu_executor.hpp"

#include <algorithm>
#include <bit>

#include "pmem/pm_events.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

// ---- ThreadCtx data path ----------------------------------------------

void
ThreadCtx::pmWrite(std::uint64_t addr, const void *src, std::uint64_t size,
                   std::source_location loc)
{
    pmWriteStream(0, addr, src, size, loc);
}

void
ThreadCtx::pmWriteStream(std::uint64_t stream, std::uint64_t addr,
                         const void *src, std::uint64_t size,
                         std::source_location loc)
{
    exec_->pool_->deviceWrite(globalId(), addr, src, size);
    stats_->pm_payload_bytes += size;
    const SiteId site = siteOf(loc);
    warp_->accesses.push_back(WarpAccess{site, exec_->sites_.next(site),
                                         static_cast<std::uint32_t>(size),
                                         addr, stream, lane_});
    exec_->noteStore(exec_->executed_);
}

void
ThreadCtx::pmRead(std::uint64_t addr, void *dst, std::uint64_t size)
{
    exec_->pool_->read(addr, dst, size);
    stats_->pm_read_bytes += size;
}

bool
ThreadCtx::threadfenceSystem()
{
    ++stats_->fences;
    exec_->noteFenceBefore(exec_->executed_);
    const bool persisted = exec_->pool_->persistOwner(globalId());
    exec_->noteFenceAfter(exec_->executed_);
    return persisted;
}

// ---- SiteTable -----------------------------------------------------------

std::uint32_t
SiteTable::probe(SiteId site)
{
    if (live_ * 2 >= slots_.size())
        grow();
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t h = site * 0x9e3779b97f4a7c15ull;
    std::size_t i = (h ^ (h >> 32)) & mask;
    for (;; i = (i + 1) & mask) {
        Slot &s = slots_[i];
        if (s.epoch != epoch_) {
            s.site = site;
            s.epoch = epoch_;
            s.count = 1;
            ++live_;
            last_ = i;
            return 0;
        }
        if (s.site == site) {
            last_ = i;
            return s.count++;
        }
    }
}

void
SiteTable::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    live_ = 0;
    last_ = kNoSlot;
    const std::size_t mask = slots_.size() - 1;
    for (const Slot &s : old) {
        if (s.epoch != epoch_)
            continue;
        std::uint64_t h = s.site * 0x9e3779b97f4a7c15ull;
        std::size_t i = (h ^ (h >> 32)) & mask;
        while (slots_[i].epoch == epoch_)
            i = (i + 1) & mask;
        slots_[i] = s;
        ++live_;
    }
}

// ---- WarpFlushScratch ----------------------------------------------------

std::uint32_t
WarpFlushScratch::groupOf(SiteId site, std::uint32_t occurrence,
                          std::uint64_t stream, std::uint32_t ngroups)
{
    const std::size_t mask = slots.size() - 1;
    std::uint64_t h = site * 0x9e3779b97f4a7c15ull;
    h ^= (std::uint64_t(occurrence) + 1) * 0xff51afd7ed558ccdull;
    h ^= (stream + 1) * 0xc4ceb9fe1a85ec53ull;
    std::size_t i = (h ^ (h >> 32)) & mask;
    for (;;) {
        Slot &s = slots[i];
        if (s.epoch != epoch) {
            s.site = site;
            s.stream = stream;
            s.occurrence = occurrence;
            s.group = ngroups;
            s.epoch = epoch;
            return ngroups;
        }
        if (s.site == site && s.occurrence == occurrence &&
            s.stream == stream)
            return s.group;
        i = (i + 1) & mask;
    }
}

void
WarpFlushScratch::coalesce(std::uint64_t granule, std::uint64_t global_warp,
                           WarpRecorder &warp, LaunchStats &stats,
                           std::vector<LineTxn> &out)
{
    std::vector<WarpAccess> &acc = warp.accesses;
    if (acc.empty())
        return;
    const std::size_t n = acc.size();
    const int shift = std::countr_zero(granule);

    // Keep the load factor under 1/2 so every probe terminates; the
    // group count is bounded by the access count.
    if (slots.size() < n * 2 + 2) {
        std::size_t cap = slots.size();
        while (cap < n * 2 + 2)
            cap *= 2;
        slots.assign(cap, Slot{});
    }
    ++epoch;

    // Pass 1: assign each access its (site, occurrence, stream) group
    // in first-appearance order — the SIMT instruction stream of the
    // warp. The first lane's accesses seed the hash; access j of a
    // later lane reuses the group of the first lane's access j when
    // their keys match. The warp is strided when every lane ran the
    // first lane's stores exactly: group g is then accesses g,
    // g + first, g + 2 * first, ...
    group_of.resize(n);
    std::uint32_t ngroups = 0;
    const auto probe = [&](const WarpAccess &a) {
        const std::uint32_t g =
            groupOf(a.site, a.occurrence, a.stream, ngroups);
        ngroups += g == ngroups;
        return g;
    };
    std::size_t first = 1;
    while (first < n && acc[first].lane == acc[0].lane)
        ++first;
    for (std::size_t i = 0; i < first; ++i)
        group_of[i] = probe(acc[i]);
    bool strided = ngroups == first;
    std::size_t j = first;  // index of acc[i] within its lane
    for (std::size_t i = first; i < n; ++i, ++j) {
        const WarpAccess &a = acc[i];
        if (a.lane != acc[i - 1].lane) {
            strided = strided && j == first;
            j = 0;
        }
        if (j < first) {
            const WarpAccess &p = acc[j];
            if (p.site == a.site && p.occurrence == a.occurrence &&
                p.stream == a.stream) {
                group_of[i] = group_of[j];
                continue;
            }
        }
        strided = false;
        group_of[i] = probe(a);
    }
    strided = strided && j == first;

    // Pass 3 emits one transaction per touched coalescing line of each
    // group, in ascending address order (lane order on real hardware).
    // Lines arrive mostly ascending, so addLines dedups them as they
    // are pushed and emitGroup sorts only a group whose lines arrived
    // out of order.
    bool ordered = true;
    const auto addLines = [&](const WarpAccess &a) {
        const std::uint64_t lo = a.addr >> shift;
        const std::uint64_t hi = (a.addr + a.size - 1) >> shift;
        for (std::uint64_t l = lo; l <= hi; ++l) {
            if (!lines.empty() && l <= lines.back()) {
                if (l == lines.back())
                    continue;
                ordered = false;
            }
            lines.push_back(l);
        }
    };
    const auto emitGroup = [&](const WarpAccess &lead) {
        const std::uint64_t stream =
            lead.stream != 0 ? lead.stream : global_warp;
        if (!ordered) {
            std::sort(lines.begin(), lines.end());
            lines.erase(std::unique(lines.begin(), lines.end()),
                        lines.end());
        }
        for (const std::uint64_t line : lines)
            out.push_back(LineTxn{stream, line << shift});
        stats.pm_line_txns += lines.size();
        stats.pm_line_bytes += lines.size() * granule;
        lines.clear();
        ordered = true;
    };

    // A strided warp needs no scatter: pass 3 walks each group lane by
    // lane.
    if (strided) {
        for (std::size_t g = 0; g < first; ++g) {
            for (std::size_t i = g; i < n; i += first)
                addLines(acc[i]);
            emitGroup(acc[g]);
        }
        acc.clear();
        return;
    }

    // Pass 2: counting scatter so each group's accesses land
    // contiguously, preserving intra-group program order.
    cursor.assign(ngroups, 0);
    for (const std::uint32_t g : group_of)
        ++cursor[g];
    group_start.assign(ngroups + 1, 0);
    for (std::uint32_t g = 0; g < ngroups; ++g)
        group_start[g + 1] = group_start[g] + cursor[g];
    grouped.resize(n);
    std::fill(cursor.begin(), cursor.end(), 0u);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t g = group_of[i];
        grouped[group_start[g] + cursor[g]++] = &acc[i];
    }

    // Pass 3.
    for (std::uint32_t g = 0; g < ngroups; ++g) {
        for (std::uint32_t i = group_start[g]; i < group_start[g + 1]; ++i)
            addLines(*grouped[i]);
        emitGroup(*grouped[group_start[g]]);
    }
    acc.clear();
}

// ---- executor ------------------------------------------------------------

void
GpuExecutor::noteFenceBefore(std::uint64_t executed)
{
    ++fence_count_;
    if (armed_ && armed_->trigger == CrashPoint::Trigger::BeforeFence &&
        fence_count_ == armed_->count)
        throw KernelCrashed{executed};
}

void
GpuExecutor::noteFenceAfter(std::uint64_t executed)
{
    if (armed_ && armed_->trigger == CrashPoint::Trigger::AfterFence &&
        fence_count_ == armed_->count)
        throw KernelCrashed{executed};
}

void
GpuExecutor::noteStore(std::uint64_t executed)
{
    ++store_count_;
    if (armed_ && armed_->trigger == CrashPoint::Trigger::AfterPmStore &&
        store_count_ == armed_->count)
        throw KernelCrashed{executed};
}

void
GpuExecutor::mergeTelemetryShard()
{
    if (telemetry::Session *s = telemetry::Session::current())
        tshard_.mergeInto(s->metrics);
    else
        tshard_.clear();
}

void
GpuExecutor::runBlock(const KernelDesc &kernel, std::uint32_t block,
                      std::uint64_t crash_at)
{
    const std::uint32_t warp_size =
        static_cast<std::uint32_t>(cfg_->warp_size);
    const std::uint32_t warps_per_block =
        (kernel.block_threads + warp_size - 1) / warp_size;
    if (warps_.size() < warps_per_block)
        warps_.resize(warps_per_block);

    block_stats_ = LaunchStats{};

    // Emits even when the block throws KernelCrashed, so crash-armed
    // launches show their partial block on the timeline.
    telemetry::Span bspan("block", kernel.name);
    if (bspan.armed())
        bspan.arg("block", std::uint64_t(block));

    PmEventRecorder *rec = pool_->recorder();
    for (std::size_t p = 0; p < kernel.phases.size(); ++p) {
        if (rec)
            rec->setPhase(static_cast<std::uint32_t>(p));
        for (std::uint32_t t = 0; t < kernel.block_threads; ++t) {
            if (executed_ == crash_at)
                throw KernelCrashed{executed_};
            sites_.beginThread();
            ThreadCtx ctx(*this, block_stats_, warps_[t / warp_size],
                          block, t, kernel.block_threads, kernel.blocks,
                          warp_size);
            kernel.phases[p](ctx);
            ++executed_;
        }
        // Phase boundary: retire every warp's coalesced stores into the
        // NVM model.
        for (std::uint32_t w = 0; w < warps_per_block; ++w) {
            const std::uint64_t global_warp =
                std::uint64_t(block) * warps_per_block + w;
            const std::size_t n_acc = warps_[w].accesses.size();
            txns_.clear();
            {
                // Null category keeps empty warps off the timeline.
                telemetry::Span fspan(n_acc ? "flush" : nullptr,
                                      "warp-flush");
                flush_.coalesce(cfg_->coalesce_bytes, global_warp,
                                warps_[w], block_stats_, txns_);
                if (fspan.armed()) {
                    fspan.arg("warp", global_warp);
                    fspan.arg("accesses", std::uint64_t(n_acc));
                    fspan.arg("line_txns", std::uint64_t(txns_.size()));
                }
            }
            if (n_acc) {
                tshard_.add(telemetry::HotCounter::WarpFlushes, 1);
                tshard_.add(telemetry::HotCounter::FlushedAccesses, n_acc);
                tshard_.add(telemetry::HotCounter::CoalescedLineTxns,
                            txns_.size());
            }
            telemetry::Span cspan(txns_.empty() ? nullptr : "line-commit",
                                  "nvm-commit");
            for (const LineTxn &txn : txns_)
                nvm_->recordWrite(txn.stream, txn.addr,
                                  cfg_->coalesce_bytes);
            if (cspan.armed()) {
                cspan.arg("txns", std::uint64_t(txns_.size()));
                cspan.arg("bytes", std::uint64_t(txns_.size()) *
                                       cfg_->coalesce_bytes);
            }
        }
    }
    tshard_.add(telemetry::HotCounter::BlocksExecuted, 1);
}

LaunchStats
GpuExecutor::launch(const KernelDesc &kernel)
{
    GPM_REQUIRE(kernel.blocks > 0 && kernel.block_threads > 0,
                "kernel '", kernel.name, "' has an empty grid");
    GPM_REQUIRE(!kernel.phases.empty(),
                "kernel '", kernel.name, "' has no phases");
    GPM_REQUIRE(std::has_single_bit(cfg_->coalesce_bytes),
                "coalescing granule ", cfg_->coalesce_bytes,
                " is not a power of two");

    cur_ = LaunchStats{};
    cur_.blocks = kernel.blocks;
    cur_.threads = kernel.totalThreads();
    cur_.phases = kernel.phases.size();

    const NvmTierBytes before = [&] {
        nvm_->closeRuns();
        return nvm_->bytes();
    }();

    armed_ = kernel.crash;
    executed_ = 0;
    fence_count_ = 0;
    store_count_ = 0;
    const std::uint64_t crash_at =
        (armed_ && armed_->trigger == CrashPoint::Trigger::ThreadPhases)
            ? armed_->count
            : ~std::uint64_t(0);

    // Merge (or discard) shard counts even when a crash point unwinds
    // the launch, so a crashed launch's partial work is still counted.
    struct ShardGuard {
        GpuExecutor *e;
        ~ShardGuard() { e->mergeTelemetryShard(); }
    } shard_guard{this};

    // Bracket the persistency event stream. The end marker rides a
    // guard so a crash-point unwind still closes the launch scope.
    PmEventRecorder *rec = pool_->recorder();
    if (rec)
        rec->launchBegin(kernel.name, kernel.blocks,
                         kernel.block_threads,
                         kernel.crash.has_value());
    struct LaunchMarkGuard {
        PmEventRecorder *rec;
        ~LaunchMarkGuard()
        {
            if (rec)
                rec->launchEnd();
        }
    } mark_guard{rec};

    // A previous crashed launch may have left stale phase accesses.
    for (WarpRecorder &w : warps_)
        w.accesses.clear();

    for (std::uint32_t b = 0; b < kernel.blocks; ++b) {
        runBlock(kernel, b, crash_at);
        // Sum per block, in block order: this fixes how the work_ops
        // floating-point total associates, which the modelled time of
        // every pinned figure depends on.
        cur_ += block_stats_;
    }

    armed_.reset();
    nvm_->closeRuns();
    cur_.nvm = nvm_->bytes() - before;
    return cur_;
}

} // namespace gpm
