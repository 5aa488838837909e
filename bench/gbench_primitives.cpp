/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own primitives
 * (host wall time, not simulated time): PmPool store/persist, the
 * warp coalescer, HCL striped inserts and the Optane classifier.
 * These guard the simulator against performance regressions — the
 * figure benches run millions of these operations.
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "gpm/gpm_checkpoint.hpp"
#include "gpm/gpm_log.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "harness/experiments.hpp"
#include "memsim/media_backend.hpp"
#include "pmheap/gpm_map.hpp"

namespace gpm {
namespace {

void
BM_PmPoolDeviceWritePersist(benchmark::State &state)
{
    SimConfig cfg;
    PmPool pool(16_MiB, PersistDomain::McDurable);
    std::uint64_t v = 42, addr = 0;
    for (auto _ : state) {
        pool.deviceWrite(7, addr % 8_MiB, &v, 8);
        pool.persistOwner(7);
        addr += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmPoolDeviceWritePersist);

void
BM_PmPoolDeviceWritePersistRandom(benchmark::State &state)
{
    // gpKVS's store pattern: 16 B pairs at random addresses over a
    // 32 MiB footprint, each fenced, so most stores miss the host
    // caches. The addresses are drawn up front.
    constexpr std::uint64_t kFootprint = 32_MiB;
    PmPool pool(kFootprint, PersistDomain::McDurable);
    Rng rng(3);
    std::vector<std::uint64_t> addrs(1 << 20);
    for (std::uint64_t &a : addrs)
        a = rng.below(kFootprint / 16) * 16;
    const std::uint64_t pair[2] = {42, 43};
    std::size_t i = 0;
    for (auto _ : state) {
        pool.deviceWrite(7, addrs[i], pair, sizeof pair);
        pool.persistOwner(7);
        i = (i + 1) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmPoolDeviceWritePersistRandom);

void
BM_NvmClassifierSequential(benchmark::State &state)
{
    SimConfig cfg;
    NvmModel nvm(cfg);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        nvm.recordWrite(1, addr, 128);
        addr += 128;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NvmClassifierSequential);

void
BM_NvmModelSingleStream(benchmark::State &state)
{
    // One warp appending run-sized bursts — the dominant recordWrite
    // pattern. Exercises the last-stream cache: after the first write
    // every iteration must resolve the stream without a table probe.
    SimConfig cfg;
    NvmModel nvm(cfg);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        nvm.recordWrite(3, addr, 64);
        addr += 64;
        if ((addr & ((1u << 20) - 1)) == 0)
            nvm.closeRuns();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NvmModelSingleStream);

void
BM_NvmModelInterleaved(benchmark::State &state)
{
    // The multi-DIMM recordWrite path, measured end to end (record +
    // closeRuns) so the interleaved backend's deferred per-DIMM drains
    // are priced in, not hidden. 16 Ki warps append 64 B records into
    // private granule-sized slabs (the per-warp log-stripe pattern HCL
    // produces), round-robin across warps — the worst case for the
    // last-stream cache, so every record resolves through the stream
    // table. Slabs stripe across the DIMM set, so each DIMM's private
    // table holds 1/N of the streams: at one DIMM the table is one
    // multi-MiB cache-busting flat table (bit-identical to the legacy
    // model), at 4-8 it shards into cache-resident pieces.
    // Arg = DIMM count.
    SimConfig cfg;
    cfg.media.kind = MediaKind::Interleaved;
    cfg.media.dimms = static_cast<int>(state.range(0));
    const std::unique_ptr<MediaBackend> nvm = makeMediaBackend(cfg);
    constexpr std::uint64_t kStreams = 16384;
    constexpr std::uint64_t kSlab = 4096;  ///< = interleave granule
    std::vector<std::uint64_t> off(kStreams, 0);
    std::uint64_t i = 0;
    for (auto _ : state) {
        const std::uint64_t s = i & (kStreams - 1);
        nvm->recordWrite(s, s * kSlab + off[s], 64);
        // Wrap inside the slab: the rewrite merges into the open run,
        // so the stream stays pinned to its DIMM.
        off[s] = (off[s] + 64) & (kSlab - 1);
        if ((++i & ((1u << 22) - 1)) == 0)
            nvm->closeRuns();
    }
    nvm->closeRuns();
    benchmark::DoNotOptimize(nvm->bytes().total());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NvmModelInterleaved)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
BM_KernelLaunchSmall(benchmark::State &state)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 16_MiB);
    gpmPersistBegin(m);
    KernelDesc k;
    k.name = "noop";
    k.blocks = 4;
    k.block_threads = 128;
    k.phases.push_back([](ThreadCtx &ctx) { ctx.work(1); });
    for (auto _ : state)
        m.runKernel(k);
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_KernelLaunchSmall);

void
BM_GpmCheckpoint4MiB(benchmark::State &state)
{
    // libGPM's checkpoint copy: 16 B lane stores, one fence per thread,
    // then the flip. The rate is checkpointed bytes per host second, so
    // it compares across changes to the store width.
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 32_MiB);
    gpmPersistBegin(m);
    GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", 4_MiB, 1, 1);
    std::vector<std::uint8_t> data(4_MiB, 7);
    cp.registerData(0, data.data(), data.size());
    for (auto _ : state)
        cp.checkpoint(0);
    state.SetBytesProcessed(state.iterations() * 4_MiB);
}
BENCHMARK(BM_GpmCheckpoint4MiB)->Unit(benchmark::kMillisecond);

void
BM_SiteTableManySites(benchmark::State &state)
{
    // One warp issuing stores from 16 distinct program sites, 8 loop
    // occurrences each — the pattern that made the executor's old
    // per-thread site lookup (a linear scan of every site seen so
    // far) quadratic in sites-per-thread. The open-addressed
    // SiteTable keeps each lookup O(1).
    SimConfig cfg;
    PmPool pool(16_MiB, PersistDomain::McDurable);
    NvmModel nvm(cfg);
    GpuExecutor gpu(cfg, pool, nvm);
    KernelDesc k;
    k.name = "many_sites";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([](ThreadCtx &ctx) {
        const std::uint64_t base = ctx.globalId() * 8192;
        const std::uint64_t v = 1;
        for (std::uint64_t i = 0; i < 8; ++i) {
            // Macro-unrolled so every store is a distinct call site.
#define GPM_BM_SITE(n) ctx.pmWrite(base + (n) * 512 + i * 32, &v, 8)
            GPM_BM_SITE(0);
            GPM_BM_SITE(1);
            GPM_BM_SITE(2);
            GPM_BM_SITE(3);
            GPM_BM_SITE(4);
            GPM_BM_SITE(5);
            GPM_BM_SITE(6);
            GPM_BM_SITE(7);
            GPM_BM_SITE(8);
            GPM_BM_SITE(9);
            GPM_BM_SITE(10);
            GPM_BM_SITE(11);
            GPM_BM_SITE(12);
            GPM_BM_SITE(13);
            GPM_BM_SITE(14);
            GPM_BM_SITE(15);
#undef GPM_BM_SITE
        }
    });
    for (auto _ : state)
        gpu.launch(k);
    state.SetItemsProcessed(state.iterations() * 32 * 128);
}
BENCHMARK(BM_SiteTableManySites);

void
BM_KvsMakeBatch(benchmark::State &state)
{
    // Steady-state batch assembly: after batch 0 is cached, makeBatch
    // must rewrite its reused buffer without touching the allocator
    // (the churn the serving engine's hot loop cannot afford).
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpKvsParams p;
    p.batch_ops = static_cast<std::uint32_t>(state.range(0));
    p.get_ratio = 0.5;
    GpKvs kvs(m, p);
    std::uint32_t batch = 1;
    for (auto _ : state) {
        const auto &ops = kvs.makeBatch(batch);
        benchmark::DoNotOptimize(ops.data());
        batch = batch == 1u << 20 ? 1 : batch + 1;
    }
    state.SetItemsProcessed(state.iterations() * p.batch_ops);
}
BENCHMARK(BM_KvsMakeBatch)->Arg(256)->Arg(4096)->Arg(32768);

void
BM_HeapAllocFree(benchmark::State &state)
{
    // Steady-state allocator churn: one redo transaction allocating a
    // batch of mixed-class slots, one transaction freeing them. Pins
    // the cost of the txBegin record write + bitmap delta publication
    // that every GpmMap batch pays.
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 16_MiB);
    gpmPersistBegin(m);
    GpmHeapParams p;
    p.name = "bmheap";
    p.slots_per_class = 64;
    GpmHeap heap(m, p);
    heap.setup(true);
    const std::uint32_t lens[4] = {24, 100, 700, 3000};
    std::uint64_t batch = 1;
    std::vector<std::uint64_t> handles;
    handles.reserve(32);
    for (auto _ : state) {
        handles.clear();
        for (unsigned i = 0; i < 32; ++i)
            handles.push_back(heap.alloc(lens[i % 4]));
        heap.txBegin(GpmHeap::TxMode::Commit, batch++, handles, {});
        heap.txCommit();
        heap.txBegin(GpmHeap::TxMode::Commit, batch++, {}, handles);
        heap.txCommit();
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_HeapAllocFree);

void
BM_MapPut(benchmark::State &state)
{
    // Overwrite-heavy map batches: each iteration re-puts the same 16
    // keys, so every op is alloc + stage + publish + free-old — the
    // serving engine's worst-case per-op persistence cost.
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 16_MiB);
    gpmPersistBegin(m);
    GpmMapParams p;
    p.name = "bmmap";
    p.heap.name = "bmmap";
    p.heap.slots_per_class = 64;
    p.heap.max_tx_blob = 24 * 16;
    GpmMap map(m, p);
    map.setup(true);
    std::vector<MapOp> ops;
    for (std::uint64_t k = 1; k <= 16; ++k)
        ops.push_back({MapOp::Verb::Put, k,
                       static_cast<std::uint32_t>(24 * (1 + k % 4)), k});
    for (auto _ : state) {
        const auto res = map.runBatch(ops);
        benchmark::DoNotOptimize(res.data());
    }
    state.SetItemsProcessed(state.iterations() * ops.size());
}
BENCHMARK(BM_MapPut);

void
BM_HclInsert(benchmark::State &state)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 256_MiB);
    gpmPersistBegin(m);
    GpmLog log = GpmLog::createHcl(m, "bmlog", 24, 4096, 8, 256);
    struct E {
        std::uint64_t a, b, c;
    };
    KernelDesc k;
    k.name = "hcl_insert";
    k.blocks = 8;
    k.block_threads = 256;
    std::uint32_t round = 0;
    k.phases.push_back([&log, &round](ThreadCtx &ctx) {
        const E e{ctx.globalId(), round, 1};
        log.insert(ctx, &e, sizeof(e));
    });
    for (auto _ : state) {
        if (round >= 4094) {
            state.PauseTiming();
            log.clearAll();
            round = 0;
            state.ResumeTiming();
        }
        m.runKernel(k);
        ++round;
    }
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_HclInsert);

} // namespace
} // namespace gpm

BENCHMARK_MAIN();
