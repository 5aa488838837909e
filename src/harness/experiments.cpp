#include "harness/experiments.hpp"

#include <cstdlib>

#include "harness/sweep.hpp"
#include "memsim/media_backend.hpp"
#include "workloads/iterative.hpp"

namespace gpm::bench {

namespace {

constexpr BenchKey kBenchKeys[] = {
    {"kvs", Bench::Kvs},        {"kvs95", Bench::Kvs95},
    {"dbi", Bench::DbInsert},   {"dbu", Bench::DbUpdate},
    {"dnn", Bench::Dnn},        {"cfd", Bench::Cfd},
    {"blk", Bench::Blk},        {"hs", Bench::Hotspot},
    {"bfs", Bench::Bfs},        {"srad", Bench::Srad},
    {"ps", Bench::PrefixSum},
};

constexpr PlatformKey kPlatformKeys[] = {
    {"gpm", PlatformKind::Gpm},
    {"ndp", PlatformKind::GpmNdp},
    {"eadr", PlatformKind::GpmEadr},
    {"capfs", PlatformKind::CapFs},
    {"capmm", PlatformKind::CapMm},
    {"capeadr", PlatformKind::CapEadr},
    {"gpufs", PlatformKind::Gpufs},
};

} // namespace

std::span<const BenchKey>
benchKeys()
{
    return kBenchKeys;
}

std::span<const PlatformKey>
platformKeys()
{
    return kPlatformKeys;
}

std::optional<Bench>
benchFromKey(std::string_view key)
{
    for (const BenchKey &n : kBenchKeys) {
        if (key == n.key)
            return n.bench;
    }
    return std::nullopt;
}

std::optional<PlatformKind>
platformFromKey(std::string_view key)
{
    for (const PlatformKey &n : kPlatformKeys) {
        if (key == n.key)
            return n.kind;
    }
    return std::nullopt;
}

const char *
benchKey(Bench b)
{
    for (const BenchKey &n : kBenchKeys) {
        if (n.bench == b)
            return n.key;
    }
    return "?";
}

const char *
platformKey(PlatformKind kind)
{
    for (const PlatformKey &n : kPlatformKeys) {
        if (n.kind == kind)
            return n.key;
    }
    return "?";
}

std::string
benchName(Bench b)
{
    switch (b) {
      case Bench::Kvs: return "gpKVS";
      case Bench::Kvs95: return "gpKVS (95:5)";
      case Bench::DbInsert: return "gpDB (I)";
      case Bench::DbUpdate: return "gpDB (U)";
      case Bench::Dnn: return "DNN";
      case Bench::Cfd: return "CFD";
      case Bench::Blk: return "BLK";
      case Bench::Hotspot: return "HS";
      case Bench::Bfs: return "BFS";
      case Bench::Srad: return "SRAD";
      case Bench::PrefixSum: return "PS";
    }
    return "?";
}

std::string
benchClass(Bench b)
{
    switch (b) {
      case Bench::Kvs:
      case Bench::Kvs95:
      case Bench::DbInsert:
      case Bench::DbUpdate:
        return "Transactional";
      case Bench::Dnn:
      case Bench::Cfd:
      case Bench::Blk:
      case Bench::Hotspot:
        return "Checkpointing";
      default:
        return "Native";
    }
}

GpKvsParams
kvsParams()
{
    GpKvsParams p;
    p.n_sets = 1u << 18;   // 32 MiB store
    p.batch_ops = 16384;
    p.batches = 5;
    return p;
}

GpKvsParams
kvs95Params()
{
    GpKvsParams p = kvsParams();
    p.get_ratio = 0.95;
    return p;
}

GpDbParams
dbParams()
{
    GpDbParams p;
    p.initial_rows = 1u << 18;  // ~15 MiB table
    p.insert_rows = 16384;
    p.update_rows = 8192;
    p.insert_batches = 4;
    p.update_batches = 4;
    return p;
}

IterativeParams
iterSchedule()
{
    IterativeParams p;
    p.iterations = 20;
    p.checkpoint_every = 5;
    return p;
}

DnnParams
dnnParams()
{
    return DnnParams{};
}

CfdParams
cfdParams()
{
    return CfdParams{};
}

BlkParams
blkParams()
{
    return BlkParams{};
}

HotspotParams
hotspotParams()
{
    return HotspotParams{};
}

BfsParams
bfsParams()
{
    BfsParams p;
    p.grid_w = 48;
    p.grid_h = 512;   // pure lattice: hop diameter ~558, matching a
    p.shortcuts = 0;  // road network's thousands of BFS iterations
    return p;
}

SradParams
sradParams()
{
    SradParams p;
    p.width = 192;
    p.height = 96;
    p.iterations = 6;
    return p;
}

PsParams
psParams()
{
    PsParams p;
    p.blocks = 128;
    p.block_threads = 256;
    p.elems_per_thread = 16;
    return p;
}

CpuKvsParams
cpuKvsParams()
{
    CpuKvsParams p;
    p.n_sets = 1u << 17;
    p.batch_ops = 16384;
    p.batches = 5;
    return p;
}

std::size_t
pmCapacity()
{
    return 192_MiB;
}

SimConfig
benchConfig()
{
    SimConfig cfg;
    applyMediaConfig(cfg, mediaFromEnv(cfg.media));
    return cfg;
}

WorkloadResult
runBench(Bench b, PlatformKind kind, const SimConfig &cfg,
         std::uint64_t seed)
{
    Machine m(cfg, kind, pmCapacity(), seed);
    switch (b) {
      case Bench::Kvs: {
        GpKvs w(m, kvsParams());
        return w.run();
      }
      case Bench::Kvs95: {
        GpKvs w(m, kvs95Params());
        return w.run();
      }
      case Bench::DbInsert: {
        GpDb w(m, dbParams());
        return w.run(GpDb::TxnKind::Insert);
      }
      case Bench::DbUpdate: {
        GpDb w(m, dbParams());
        return w.run(GpDb::TxnKind::Update);
      }
      case Bench::Dnn: {
        DnnApp a(dnnParams());
        return a.run(m, iterSchedule());
      }
      case Bench::Cfd: {
        CfdApp a(cfdParams());
        return a.run(m, iterSchedule());
      }
      case Bench::Blk: {
        BlackScholesApp a(blkParams());
        return a.run(m, iterSchedule());
      }
      case Bench::Hotspot: {
        HotspotApp a(hotspotParams());
        return a.run(m, iterSchedule());
      }
      case Bench::Bfs: {
        GpBfs w(m, bfsParams());
        return w.run();
      }
      case Bench::Srad: {
        GpSrad w(m, sradParams());
        return w.run();
      }
      case Bench::PrefixSum: {
        GpPrefixSum w(m, psParams());
        return w.run();
      }
    }
    panic("unknown bench");
}

std::vector<WorkloadResult>
runBenchCells(const std::vector<BenchCell> &cells, const SimConfig &cfg,
              int jobs)
{
    SweepOptions opt;
    opt.workers = jobs;
    return sweep(
        cells,
        [&](SweepLane &lane, const BenchCell &cell) {
            lane.count("bench.cells");
            return runBench(cell.b, cell.kind, cfg, cell.seed);
        },
        opt);
}

WorkloadResult
runBenchWithCrash(Bench b, const SimConfig &cfg, std::uint64_t seed)
{
    Machine m(cfg, PlatformKind::Gpm, pmCapacity(), seed);
    switch (b) {
      case Bench::Kvs: {
        GpKvs w(m, kvsParams());
        // Worst case: crash just before the batch commits (paper's
        // Table 5 methodology).
        return w.runWithCrash(/*crash_batch=*/1, /*frac=*/0.98, 0.0);
      }
      case Bench::Kvs95: {
        GpKvs w(m, kvs95Params());
        return w.runWithCrash(1, 0.98, 0.0);
      }
      case Bench::DbInsert: {
        GpDb w(m, dbParams());
        return w.runWithCrash(GpDb::TxnKind::Insert, 1, 0.98, 0.0);
      }
      case Bench::DbUpdate: {
        GpDb w(m, dbParams());
        return w.runWithCrash(GpDb::TxnKind::Update, 1, 0.98, 0.0);
      }
      case Bench::Dnn: {
        DnnApp a(dnnParams());
        return a.runWithCrashRestore(m, iterSchedule(), 14, false, 0.0);
      }
      case Bench::Cfd: {
        CfdApp a(cfdParams());
        return a.runWithCrashRestore(m, iterSchedule(), 14, false, 0.0);
      }
      case Bench::Blk: {
        BlackScholesApp a(blkParams());
        return a.runWithCrashRestore(m, iterSchedule(), 14, false, 0.0);
      }
      case Bench::Hotspot: {
        HotspotApp a(hotspotParams());
        return a.runWithCrashRestore(m, iterSchedule(), 14, false, 0.0);
      }
      default:
        // Native workloads embed recovery in the app itself and have
        // no separate recovery kernel (Table 5 skips them).
        return WorkloadResult{};
    }
}

} // namespace gpm::bench
