/**
 * @file
 * Named experiment configurations shared by the benchmark binaries.
 *
 * Each GPMbench workload gets one canonical parameter set (Table 1,
 * scaled as documented in DESIGN.md), and runBench() executes any
 * (workload, platform) cell of Figures 9/10/12 and Tables 4/5 —
 * benches differ only in which cells they print and how.
 */
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cpubaseline/cpu_apps.hpp"
#include "cpubaseline/cpu_kvs.hpp"
#include "memsim/sim_config.hpp"
#include "platform/platform_kind.hpp"
#include "workloads/bfs.hpp"
#include "workloads/blackscholes.hpp"
#include "workloads/cfd.hpp"
#include "workloads/db.hpp"
#include "workloads/dnn.hpp"
#include "workloads/hotspot.hpp"
#include "workloads/kvs.hpp"
#include "workloads/prefix_sum.hpp"
#include "workloads/srad.hpp"

namespace gpm::bench {

/** The evaluation's workload axis (Fig 9's x-axis, split gpKVS/gpDB). */
enum class Bench {
    Kvs,     ///< gpKVS, 100 % SETs
    Kvs95,   ///< gpKVS, 95:5 GET:SET
    DbInsert,
    DbUpdate,
    Dnn,
    Cfd,
    Blk,
    Hotspot,
    Bfs,
    Srad,
    PrefixSum,
};

constexpr Bench kAllBenches[] = {
    Bench::Kvs,  Bench::Kvs95,   Bench::DbInsert, Bench::DbUpdate,
    Bench::Dnn,  Bench::Cfd,     Bench::Blk,      Bench::Hotspot,
    Bench::Bfs,  Bench::Srad,    Bench::PrefixSum,
};

/** Paper-style label ("gpKVS (95:5)", "gpDB (I)", ...). */
std::string benchName(Bench b);

/** Workload class (Fig 9's cluster labels). */
std::string benchClass(Bench b);

// ---- CLI keys (shared by gpmbench and gpmtrace) -------------------------

/** One workload's short command-line key. */
struct BenchKey {
    const char *key;
    Bench bench;
};

/** One platform's short command-line key. */
struct PlatformKey {
    const char *key;
    PlatformKind kind;
};

/** Every workload key, in the canonical listing order. */
std::span<const BenchKey> benchKeys();

/** Every platform key, in the canonical listing order. */
std::span<const PlatformKey> platformKeys();

/** Workload for CLI key @p key ("kvs", "dbi", ...), if any. */
std::optional<Bench> benchFromKey(std::string_view key);

/** Platform for CLI key @p key ("gpm", "capfs", ...), if any. */
std::optional<PlatformKind> platformFromKey(std::string_view key);

/** The CLI key naming @p b (inverse of benchFromKey). */
const char *benchKey(Bench b);

/** The CLI key naming @p kind (inverse of platformFromKey). */
const char *platformKey(PlatformKind kind);

/**
 * The time Figures 9/10 compare for this workload: total operation
 * time, except for the checkpointing class, whose bars measure the
 * checkpoint operation itself ("Checkpointing speeds up on GPM by
 * 11-18x" — the 19-122 % total-time numbers are quoted separately).
 */
inline SimNs
comparableNs(Bench b, const WorkloadResult &r)
{
    return benchClass(b) == "Checkpointing" && r.persist_ns > 0
        ? r.persist_ns
        : r.op_ns;
}

// ---- canonical parameter sets (scaled Table 1) --------------------------

GpKvsParams kvsParams();
GpKvsParams kvs95Params();
GpDbParams dbParams();
IterativeParams iterSchedule();
DnnParams dnnParams();
CfdParams cfdParams();
BlkParams blkParams();
HotspotParams hotspotParams();
BfsParams bfsParams();
SradParams sradParams();
PsParams psParams();
CpuKvsParams cpuKvsParams();

/** PM pool size for the canonical runs. */
std::size_t pmCapacity();

/**
 * Canonical SimConfig for bench drivers: testbed defaults with the
 * media backend taken from the GPM_MEDIA environment variable (unset
 * or invalid -> the paper's Optane model).
 */
SimConfig benchConfig();

/**
 * Execute one (workload, platform) cell with the canonical params.
 * Unsupported combinations (GPUfs x fine-grain) come back with
 * supported == false.
 */
WorkloadResult runBench(Bench b, PlatformKind kind, const SimConfig &cfg,
                        std::uint64_t seed = 1);

/** One cell of a figure grid. */
struct BenchCell {
    Bench b = Bench::Kvs;
    PlatformKind kind = PlatformKind::Gpm;
    std::uint64_t seed = 1;
};

/**
 * Sweep a figure's (workload, platform) cells across @p jobs host
 * workers (0 = one per hardware thread). Every cell constructs its
 * own Machine, so cells are independent; results land in cell order
 * and every modelled number is bit-identical at any @p jobs — only
 * host wall-clock changes. The canonical fig9/fig10 grid loops and
 * gpmbench's matrix command all funnel through here.
 */
std::vector<WorkloadResult> runBenchCells(
    const std::vector<BenchCell> &cells, const SimConfig &cfg,
    int jobs);

/**
 * Crash-and-recover run for Table 5 (transactional + checkpointing
 * workloads; native ones recover in-place and are skipped, as in the
 * paper). recovery_ns and op_ns fill the restoration-latency ratio.
 */
WorkloadResult runBenchWithCrash(Bench b, const SimConfig &cfg,
                                 std::uint64_t seed = 1);

} // namespace gpm::bench
