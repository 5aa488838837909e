/**
 * @file
 * Simulated machine configuration.
 *
 * Mirrors Table 3 of the paper (4x Xeon Gold 6242, NVIDIA Titan RTX,
 * 8x128 GB Optane NVDIMM, PCIe 3.0 x16) plus the cost constants the
 * evaluation section reports from the authors' own microbenchmarks:
 *
 *  - Optane write tiers: 12.5 / 3.13 / 0.72 GB/s for 256 B-aligned
 *    sequential / unaligned sequential / random accesses (section 6.1).
 *  - PCIe 3.0 usable bandwidth ~13 GB/s (Fig 12's "Max PCIe BW" line).
 *  - CPU flush-thread scaling plateau of 1.47x (Fig 3a).
 *  - GPU persist scaling plateau ~4x at 1-2 K threads (Fig 3b), which
 *    calibrates the PCIe non-posted concurrency bound.
 *
 * Every bench and test takes a SimConfig so experiments are explicit
 * about the machine they model; defaults reproduce the paper's testbed.
 */
#pragma once

#include <cstddef>

#include "common/units.hpp"

namespace gpm {

/**
 * Where the persistence domain boundary sits for device (GPU) writes.
 *
 * This single knob is the paper's core systems insight: a system-scope
 * fence gives persistence if and only if everything the fence waits on
 * is inside the persistence domain.
 */
enum class PersistDomain {
    /**
     * DDIO enabled (server default): GPU writes land in the CPU's
     * volatile LLC; a system-scope fence completes there, so completion
     * does NOT imply durability. This is the broken-for-persistence
     * configuration GPM-NDP runs in.
     */
    LlcVolatile,
    /**
     * DDIO disabled for the GPU (gpm_persist_begin): writes bypass the
     * LLC and a system-scope fence completes only at the ADR-protected
     * memory-controller WPQ, which is durable. This is GPM.
     */
    McDurable,
    /**
     * eADR (future hardware): the LLC itself is drained on power
     * failure, so it is inside the persistence domain. Fences complete
     * at the LLC and writes are durable on arrival. GPM-eADR/CAP-eADR.
     */
    LlcDurable,
};

/** True when a system-scope fence completion implies durability. */
constexpr bool
fenceIsPersist(PersistDomain d)
{
    return d != PersistDomain::LlcVolatile;
}

/**
 * Which media model sits behind the PM address space.
 *
 * The paper's testbed is one logical Optane region; ROADMAP's
 * multi-backend item generalizes it into pluggable media. Selection
 * is functional-state-free: every backend observes the same
 * transaction stream and only classifies/prices it differently, so
 * recovery guarantees (torture signatures) are media-invariant.
 */
enum class MediaKind {
    Nvm,         ///< single-DIMM Optane three-tier model (the paper)
    Interleaved, ///< addresses striped across N DIMMs, per-DIMM tiers
    Cxl,         ///< CXL memory expander: interleaved PM behind a port
    Hybrid,      ///< DRAM front cache over NVM with writeback migration
};

/** Parameters of the selected media backend (see docs/memsim.md). */
struct MediaConfig {
    MediaKind kind = MediaKind::Nvm;

    // ---- interleaved multi-DIMM --------------------------------------
    /** DIMMs in the interleave set (power of two, 1..64). */
    int dimms = 4;
    /** Stripe granule: consecutive granules land on consecutive DIMMs
     *  (power of two, >= xpline_bytes). */
    std::size_t interleave_bytes = 4096;

    // ---- CXL memory expander -----------------------------------------
    /** Media channels interleaved inside the expander device. */
    int cxl_dev_dimms = 4;
    /** Device port bandwidth: caps the aggregate media rate, so
     *  aligned-sequential bursts become port-bound while random
     *  traffic stays media-bound. */
    GBps cxl_port_gbps = 26.0;
    /** Far-memory hop added to every read's idle latency. */
    SimNs cxl_read_extra_ns = 180;

    // ---- hybrid DRAM-cache-over-NVM ----------------------------------
    /** Capacity of the battery-backed DRAM front tier. */
    std::size_t dram_cache_bytes = std::size_t(4) << 20;

    bool operator==(const MediaConfig &) const = default;
};

/** Simulated machine parameters (defaults model the paper's testbed). */
struct SimConfig {
    // ---- GPU (NVIDIA Titan RTX class) ---------------------------------
    int num_sms = 72;              ///< streaming multiprocessors
    int warp_size = 32;            ///< threads per warp
    int max_resident_threads = 65536;  ///< concurrency ceiling on device
    std::size_t coalesce_bytes = 128;  ///< HW coalescing granularity
    double gpu_ops_per_ns = 1000.0;    ///< aggregate abstract ALU work rate
    GBps hbm_gbps = 250.0;         ///< device-memory bandwidth (Fig 12 text)
    SimNs kernel_launch_ns = 5000; ///< per-launch driver/runtime overhead

    // ---- CPU (Xeon Gold 6242 class) ------------------------------------
    int cpu_max_threads = 64;      ///< 4 sockets x 16 cores
    double cpu_ops_per_ns = 1.0;   ///< abstract work rate per CPU thread
                                   ///< (memory-bound kernels, all
                                   ///< sockets aggregated)
    SimNs cpu_fork_join_ns = 10000;  ///< parallel-region fork/join cost
    SimNs cpu_flush_line_ns = 25;  ///< CLFLUSHOPT issue cost per line
    SimNs cpu_pm_drain_ns = 300;   ///< SFENCE waiting on a PM-bound line
    GBps dram_gbps = 80.0;         ///< host DRAM bandwidth
    std::size_t cache_line = 64;   ///< CPU cache-line (flush) granularity
    /**
     * Single-thread flush+drain persist rate. Deliberately below the
     * media's sequential tiers: CAP's data arrives from the GPU into
     * the LLC, so non-temporal stores are not available (section 3)
     * and every line pays CLFLUSHOPT round trips.
     */
    GBps cpu_flush_gbps = 1.8;
    double cpu_flush_plateau = 1.47;  ///< Fig 3(a): multi-thread ceiling
    SimNs cpu_sfence_ns = 100;     ///< drain (SFENCE) latency

    // ---- PCIe 3.0 x16 ----------------------------------------------------
    GBps pcie_gbps = 13.0;         ///< achievable bandwidth (Fig 12)
    SimNs pcie_persist_op_ns = 1000;  ///< small write + system-fence RTT
    int pcie_concurrency = 1024;   ///< in-flight non-posted ops (Fig 3b)
    SimNs dma_init_ns = 10000;     ///< cudaMemcpy/DMA engine setup cost

    // ---- PM media backend (docs/memsim.md) ------------------------------
    /**
     * Which media model prices the PM transaction stream, and its
     * parameters. Functional durability lives in PmPool, so changing
     * the backend never changes recovery outcomes — only tier
     * classification and media timing. Overridable per process via the
     * GPM_MEDIA environment variable (mediaFromEnv) and per tool via
     * --media flags.
     */
    MediaConfig media;

    // ---- Optane DCPMM ---------------------------------------------------
    GBps nvm_seq_aligned_gbps = 12.5;   ///< 256 B-aligned sequential writes
    GBps nvm_seq_unaligned_gbps = 3.13; ///< sequential, unaligned
    GBps nvm_random_gbps = 0.72;        ///< random writes
    GBps nvm_read_gbps = 6.6;           ///< read bandwidth
    SimNs nvm_read_latency_ns = 300;    ///< idle read latency
    std::size_t xpline_bytes = 256;     ///< internal write-combining grain
    /**
     * Random-tier bandwidth relief for massively concurrent writers.
     * The testbed interleaves 8 DIMMs (Table 3), so thousands of GPU
     * threads writing random lines spread across media channels and
     * sustain more than the single-stream 0.72 GB/s (Fig 12 measures
     * ~1.5 GB/s for gpKVS). Applied only to device-issued traffic.
     */
    double nvm_gpu_random_boost = 1.6;

    /**
     * Bytes of a write burst the ADR-protected write-pending queues
     * absorb at full speed before the media tiering bites (~64
     * entries x 64 B per controller across 8 DIMMs). Small
     * per-iteration bursts — BFS's per-level cost updates — ride
     * entirely in the WPQ; megabyte-scale traffic does not notice.
     */
    std::uint64_t wpq_absorb_bytes = 32 * 1024;

    // ---- Fences (where a system-scope fence completes) -------------------
    SimNs fence_mc_ns = 500;       ///< completes at memory controller (GPM)
    SimNs fence_llc_ns = 200;      ///< completes at LLC (DDIO on / eADR)

    // ---- conventional (lock-based) logging ---------------------------------
    /**
     * Serialized cost of one conventional-log insert while holding
     * the partition lock: a PM atomic acquire, the ordered entry and
     * tail persists, and the release — several PCIe round trips.
     */
    SimNs conv_log_lock_ns = 4000;

    // ---- OS / filesystem (CAP-fs via ext4-DAX) ----------------------------
    SimNs syscall_ns = 4000;       ///< write()/lseek() entry cost
    SimNs fsync_ns = 60000;        ///< fsync latency (journal commit)
    double fs_journal_factor = 2.0;  ///< metadata/journal write expansion
    std::size_t fs_block_bytes = 4096;  ///< filesystem block granularity
    GBps fs_write_gbps = 1.8;      ///< kernel copy+flush path to DAX file

    // ---- GPUfs comparator -------------------------------------------------
    SimNs gpufs_call_ns = 40000;   ///< per GPU->CPU RPC (gwrite etc.)
    std::size_t gpufs_max_file_bytes = std::size_t(2) << 30;
                                   ///< paper: >2 GB files fail on GPUfs

    /**
     * CPU flush-thread scaling factor (Fig 3a).
     *
     * Saturating curve fitted through the paper's measured points
     * (1 thread = 1.00x ... 64 threads = 1.46x): s(t) = P*t / (t + P - 1)
     * with plateau P, so s(1) == 1 exactly and s(inf) == P.
     */
    double
    cpuFlushScaling(int threads) const
    {
        if (threads < 1)
            threads = 1;
        const double p = cpu_flush_plateau;
        const double t = static_cast<double>(threads);
        return p * t / (t + (p - 1.0));
    }

    /** Aggregate CPU persist bandwidth with @p threads flushing. */
    GBps
    cpuPersistGbps(int threads) const
    {
        return cpu_flush_gbps * cpuFlushScaling(threads);
    }

    /**
     * Projection preset: GPM over CXL-attached PM (section 3.3's
     * future-work direction). CXL 2.0 x16 offers more bandwidth and a
     * lower-latency coherent fabric than PCIe 3.0, and the device can
     * keep more persist operations in flight; the media itself is
     * unchanged. The paper argues GPM's design principles carry over
     * — the cxl projection bench quantifies how much of GPM's
     * advantage is interconnect-bound.
     */
    static SimConfig
    cxlAttachedPm()
    {
        SimConfig cfg;
        cfg.pcie_gbps = 50.0;          // CXL 2.0 x16 usable
        cfg.pcie_persist_op_ns = 400;  // coherent-fabric round trip
        cfg.pcie_concurrency = 4096;
        cfg.fence_mc_ns = 250;         // global persistent flush path
        cfg.dma_init_ns = 4000;        // lighter-weight transfers
        return cfg;
    }
};

} // namespace gpm
