/**
 * @file
 * Unit + property tests for the SIMT executor: thread identity, phase
 * (barrier) semantics, warp coalescing, divergence handling, fence
 * accounting, crash points, and launch statistics.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "gpusim/gpu_executor.hpp"
#include "gpusim/kernel.hpp"
#include "memsim/nvm_model.hpp"
#include "pmem/pm_pool.hpp"

namespace gpm {
namespace {

struct Rig {
    SimConfig cfg;
    PmPool pool{16_MiB, PersistDomain::McDurable};
    NvmModel nvm{cfg};
    GpuExecutor gpu{cfg, pool, nvm};
};

TEST(GpuExecutor, ThreadIdentity)
{
    Rig rig;
    KernelDesc k;
    k.name = "ids";
    k.blocks = 3;
    k.block_threads = 96;
    std::set<std::uint64_t> gids;
    k.phases.push_back([&](ThreadCtx &ctx) {
        gids.insert(ctx.globalId());
        EXPECT_EQ(ctx.globalId(),
                  std::uint64_t(ctx.blockIdx()) * ctx.blockDim() +
                      ctx.threadIdx());
        EXPECT_EQ(ctx.lane(), ctx.threadIdx() % 32);
        EXPECT_EQ(ctx.warpInBlock(), ctx.threadIdx() / 32);
        EXPECT_EQ(ctx.globalWarp(),
                  std::uint64_t(ctx.blockIdx()) * 3 +
                      ctx.warpInBlock());
        EXPECT_EQ(ctx.gridDim(), 3u);
        EXPECT_EQ(ctx.blockDim(), 96u);
    });
    const LaunchStats s = rig.gpu.launch(k);
    EXPECT_EQ(gids.size(), 288u);
    EXPECT_EQ(s.threads, 288u);
    EXPECT_EQ(s.blocks, 3u);
}

TEST(GpuExecutor, PhasesActAsBlockBarriers)
{
    Rig rig;
    // Phase 0 writes per-thread values; phase 1 reads a *different*
    // thread's value — only correct if the barrier semantics hold.
    std::vector<std::uint32_t> shared(128, 0);
    bool ok = true;
    KernelDesc k;
    k.name = "barrier";
    k.blocks = 1;
    k.block_threads = 128;
    k.phases.push_back([&](ThreadCtx &ctx) {
        shared[ctx.threadIdx()] = ctx.threadIdx() + 1;
    });
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint32_t peer = 127 - ctx.threadIdx();
        ok = ok && shared[peer] == peer + 1;
    });
    rig.gpu.launch(k);
    EXPECT_TRUE(ok);
}

TEST(GpuExecutor, WarpLaneStoresCoalesceToOneLine)
{
    Rig rig;
    KernelDesc k;
    k.name = "coalesce";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint32_t v = ctx.lane();
        ctx.pmStore(std::uint64_t(ctx.lane()) * 4, v);
    });
    const LaunchStats s = rig.gpu.launch(k);
    EXPECT_EQ(s.pm_line_txns, 1u);        // 32 x 4 B -> one 128 B txn
    EXPECT_EQ(s.pm_line_bytes, 128u);
    EXPECT_EQ(s.pm_payload_bytes, 128u);
}

TEST(GpuExecutor, ScatteredStoresDoNotCoalesce)
{
    Rig rig;
    KernelDesc k;
    k.name = "scattered";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint32_t v = 1;
        ctx.pmStore(std::uint64_t(ctx.lane()) * 4096, v);
    });
    const LaunchStats s = rig.gpu.launch(k);
    EXPECT_EQ(s.pm_line_txns, 32u);
}

TEST(GpuExecutor, LoopIterationsCoalescePerOccurrence)
{
    Rig rig;
    KernelDesc k;
    k.name = "loop";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        for (std::uint32_t i = 0; i < 4; ++i) {
            const std::uint32_t v = i;
            // Iteration i of all lanes shares a 128 B line.
            ctx.pmStore((std::uint64_t(i) * 32 + ctx.lane()) * 4, v);
        }
    });
    const LaunchStats s = rig.gpu.launch(k);
    EXPECT_EQ(s.pm_line_txns, 4u);
}

TEST(GpuExecutor, DivergentThreadsDoNotMergeAcrossSites)
{
    Rig rig;
    KernelDesc k;
    k.name = "divergent";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint32_t v = 1;
        if (ctx.lane() % 2 == 0)
            ctx.pmStore(std::uint64_t(ctx.lane()) * 4, v);
        else
            ctx.pmStore(4096 + std::uint64_t(ctx.lane()) * 4, v);
    });
    const LaunchStats s = rig.gpu.launch(k);
    // Two separate program points -> two coalesced transactions.
    EXPECT_EQ(s.pm_line_txns, 2u);
}

TEST(GpuExecutor, FenceCountsAndPersists)
{
    Rig rig;
    KernelDesc k;
    k.name = "fence";
    k.blocks = 2;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint64_t v = ctx.globalId();
        ctx.pmStore(ctx.globalId() * 8, v);
        EXPECT_TRUE(ctx.threadfenceSystem());
    });
    const LaunchStats s = rig.gpu.launch(k);
    EXPECT_EQ(s.fences, 64u);
    EXPECT_EQ(rig.pool.pendingExtents(), 0u);
    EXPECT_EQ(rig.pool.loadDurable<std::uint64_t>(63 * 8), 63u);
}

TEST(GpuExecutor, WorkAndHbmAccumulate)
{
    Rig rig;
    KernelDesc k;
    k.name = "work";
    k.blocks = 1;
    k.block_threads = 64;
    k.phases.push_back([&](ThreadCtx &ctx) {
        ctx.work(2.5);
        ctx.hbmTraffic(100);
    });
    const LaunchStats s = rig.gpu.launch(k);
    EXPECT_DOUBLE_EQ(s.work_ops, 160.0);
    EXPECT_EQ(s.hbm_bytes, 6400u);
}

TEST(GpuExecutor, RejectsEmptyKernels)
{
    Rig rig;
    KernelDesc k;
    k.name = "empty";
    EXPECT_THROW(rig.gpu.launch(k), FatalError);
    k.phases.push_back([](ThreadCtx &) {});
    k.blocks = 0;
    EXPECT_THROW(rig.gpu.launch(k), FatalError);
}

class CrashPointSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CrashPointSweep, ExecutesExactlyNThreadPhases)
{
    Rig rig;
    const std::uint64_t crash_at = GetParam() * 37;
    std::uint64_t executed = 0;
    KernelDesc k;
    k.name = "crash";
    k.blocks = 4;
    k.block_threads = 64;
    k.phases.push_back([&](ThreadCtx &) { ++executed; });
    k.phases.push_back([&](ThreadCtx &) { ++executed; });
    k.crash = CrashPoint{crash_at};
    try {
        rig.gpu.launch(k);
        FAIL() << "crash point did not fire";
    } catch (const KernelCrashed &c) {
        EXPECT_EQ(c.executed_thread_phases, crash_at);
        EXPECT_EQ(executed, crash_at);
    }
}

INSTANTIATE_TEST_SUITE_P(Points, CrashPointSweep,
                         ::testing::Range(0, 13));

TEST(GpuExecutor, StreamOverrideUnifiesCrossWarpAppends)
{
    // Two warps appending 8 B records to one shared tail region (the
    // conventional-log pattern): per-warp stream identity sees two
    // short, random-tier runs; the explicit stream override lets the
    // media merge them into one sequential run.
    auto run = [&](bool with_override) {
        Rig rig;
        KernelDesc k;
        k.name = "appends";
        k.blocks = 1;
        k.block_threads = 64;  // two warps cover 512 B back-to-back
        k.phases.push_back([with_override](ThreadCtx &ctx) {
            const std::uint64_t addr = ctx.globalId() * 8;
            const std::uint64_t rec = ctx.globalId();
            if (with_override)
                ctx.pmWriteStream(1ull << 50, addr, &rec, 8);
            else
                ctx.pmWrite(addr, &rec, 8);
        });
        const LaunchStats s = rig.gpu.launch(k);
        return s.nvm;
    };
    const NvmTierBytes merged = run(true);
    const NvmTierBytes split = run(false);
    EXPECT_EQ(merged.seq_aligned, 512u);  // one 512 B aligned run
    EXPECT_EQ(merged.random, 0u);
    EXPECT_EQ(split.random, 512u);        // two sub-2-line runs
    EXPECT_EQ(split.seq_aligned, 0u);
}

TEST(GpuExecutor, NvmTierDeltaIsPerLaunch)
{
    Rig rig;
    KernelDesc k;
    k.name = "delta";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint32_t v = 0;
        for (std::uint32_t i = 0; i < 16; ++i)
            ctx.pmStore((std::uint64_t(i) * 32 + ctx.lane()) * 4, v);
    });
    const LaunchStats s1 = rig.gpu.launch(k);
    const LaunchStats s2 = rig.gpu.launch(k);
    // Each launch writes one aligned 2 KiB run.
    EXPECT_EQ(s1.nvm.total(), 2048u);
    EXPECT_EQ(s2.nvm.total(), 2048u);
}

/**
 * The coalescing rule written out plainly: accesses group by (site,
 * occurrence, stream) in first-appearance order, and each group
 * emits one transaction per distinct touched line, ascending.
 */
std::vector<LineTxn>
referenceCoalesce(const std::vector<WarpAccess> &acc, std::uint64_t granule,
                  std::uint64_t global_warp, LaunchStats &stats)
{
    std::map<std::tuple<SiteId, std::uint32_t, std::uint64_t>, std::size_t>
        group;
    std::vector<std::set<std::uint64_t>> lines;
    std::vector<std::uint64_t> streams;
    for (const WarpAccess &a : acc) {
        const auto [it, fresh] = group.emplace(
            std::tuple{a.site, a.occurrence, a.stream}, lines.size());
        if (fresh) {
            lines.emplace_back();
            streams.push_back(a.stream != 0 ? a.stream : global_warp);
        }
        for (std::uint64_t l = a.addr / granule;
             l <= (a.addr + a.size - 1) / granule; ++l)
            lines[it->second].insert(l);
    }
    std::vector<LineTxn> out;
    for (std::size_t g = 0; g < lines.size(); ++g) {
        for (const std::uint64_t l : lines[g]) {
            out.push_back(LineTxn{streams[g], l * granule});
            ++stats.pm_line_txns;
            stats.pm_line_bytes += granule;
        }
    }
    return out;
}

/** One store of a random warp program. */
struct ProgStore {
    SiteId site;
    std::uint64_t addr;    ///< lane 0's address
    std::uint64_t stride;  ///< added per lane
    std::uint32_t size;
    std::uint64_t stream;
};

/**
 * A random warp: every lane runs one shared program whose sites repeat
 * (so occurrences go past 0). In a divergent warp a lane may skip a
 * store, add its own, or swap two neighbours, and some lanes store
 * nothing at all; in an early-exit warp each lane runs a prefix of the
 * program, as lanes leaving a loop at different trip counts do. Stores
 * may be unaligned and span lines, and some carry a pmWriteStream
 * stream.
 */
std::vector<WarpAccess>
randomWarp(Rng &rng)
{
    std::vector<ProgStore> prog(rng.between(1, 12));
    for (ProgStore &p : prog) {
        p.site = 1 + rng.below(5);
        p.addr = rng.below(1u << 16);
        p.stride = rng.chance(0.7) ? 4 * rng.between(1, 4)
                                   : rng.below(1024);
        p.size = static_cast<std::uint32_t>(
            rng.chance(0.8) ? 4u << rng.below(3) : rng.between(1, 300));
        p.stream = rng.chance(0.8) ? 0 : 1 + rng.below(3);
    }
    enum Shape { Convergent, Divergent, EarlyExit };
    const auto shape = static_cast<Shape>(rng.below(3));
    const double diverge = shape == Divergent ? 0.2 : 0.0;
    std::vector<WarpAccess> acc;
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
        if (rng.chance(diverge))
            continue;  // this lane stores nothing
        std::vector<ProgStore> mine;
        if (shape == EarlyExit) {
            mine.assign(prog.begin(),
                        prog.begin() + rng.between(1, prog.size()));
        } else {
            for (const ProgStore &p : prog) {
                if (rng.chance(diverge))
                    continue;  // skipped store
                mine.push_back(p);
                if (rng.chance(diverge)) {  // an extra store of its own
                    ProgStore extra = p;
                    extra.site = 1 + rng.below(7);
                    extra.addr = rng.below(1u << 16);
                    mine.push_back(extra);
                }
            }
            if (mine.size() > 1 && rng.chance(diverge))
                std::swap(mine[0], mine[1 + rng.below(mine.size() - 1)]);
        }
        std::map<SiteId, std::uint32_t> occurrence;
        for (const ProgStore &p : mine)
            acc.push_back(WarpAccess{p.site, occurrence[p.site]++, p.size,
                                     p.addr + lane * p.stride, p.stream,
                                     lane});
    }
    return acc;
}

TEST(GpuExecutor, CoalescerMatchesBruteForceOnRandomWarps)
{
    // One scratch across every warp, as the executor keeps it.
    WarpFlushScratch flush;
    Rng rng(2024);
    std::uint64_t divergent = 0, repeated = 0, spanning = 0, streamed = 0;
    for (int w = 0; w < 4000; ++w) {
        SCOPED_TRACE(::testing::Message() << "warp " << w);
        const std::uint64_t granule = std::uint64_t(64) << rng.below(3);
        WarpRecorder rec;
        rec.accesses = randomWarp(rng);
        if (rec.accesses.empty())
            continue;
        for (const WarpAccess &a : rec.accesses) {
            repeated += a.occurrence > 0;
            spanning += a.addr / granule != (a.addr + a.size - 1) / granule;
            streamed += a.stream != 0;
        }
        divergent += rec.accesses.size() % 32 != 0;

        LaunchStats want, got;
        const std::vector<LineTxn> expect =
            referenceCoalesce(rec.accesses, granule, 1000 + w, want);
        std::vector<LineTxn> out;
        flush.coalesce(granule, 1000 + w, rec, got, out);
        ASSERT_EQ(out.size(), expect.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_EQ(out[i].stream, expect[i].stream) << "txn " << i;
            ASSERT_EQ(out[i].addr, expect[i].addr) << "txn " << i;
        }
        EXPECT_EQ(got.pm_line_txns, want.pm_line_txns);
        EXPECT_EQ(got.pm_line_bytes, want.pm_line_bytes);
        EXPECT_TRUE(rec.accesses.empty());
    }
    // The generator reached every shape it is meant to.
    EXPECT_GT(divergent, 1000u);
    EXPECT_GT(repeated, 1000u);
    EXPECT_GT(spanning, 1000u);
    EXPECT_GT(streamed, 1000u);
}

} // namespace
} // namespace gpm
