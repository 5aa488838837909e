/**
 * @file
 * The simulated heterogeneous machine: GPU + CPU + PM + interconnect,
 * configured as one of the paper's persistence platforms.
 *
 * Machine is the single owner of functional state (PmPool), the device
 * models (NvmModel, PcieLink, host models), the GPU executor, and the
 * simulated clock. Everything an experiment measures — operation time,
 * persisted payload (for Table 4's write amplification), PCIe write
 * traffic (Fig 12) — is accounted here.
 *
 * Timing composition for a kernel launch:
 *
 *     t = launch_overhead
 *       + max(compute, HBM traffic)            // core-side
 *         overlapped-with
 *         max(PCIe streaming, NVM media time)  // PM write path
 *       + fence serialization                  // wave-limited persists
 *
 * The fence term uses the PCIe non-posted concurrency bound and the
 * latency of wherever the system-scope fence completes (memory
 * controller under GPM, LLC under DDIO/eADR) — this is what separates
 * GPM, GPM-NDP and GPM-eADR in Figures 9 and 10.
 */
#pragma once

#include <cstdint>
#include <memory>

#include "gpusim/gpu_executor.hpp"
#include "memsim/host_models.hpp"
#include "memsim/media_backend.hpp"
#include "memsim/pcie_link.hpp"
#include "memsim/sim_config.hpp"
#include "platform/platform_kind.hpp"
#include "pmem/pm_pool.hpp"

namespace gpm {

/** Who calls a file-API platform's write: one thread, or a whole
 *  threadblock (or the host, copying a device buffer in bulk). */
enum class WriteGrain {
    Thread,
    Block,
};

/** A complete simulated system under one persistence platform. */
class Machine
{
  public:
    /**
     * @param cfg          Machine parameters (copied; owned here).
     * @param kind         Persistence platform to model.
     * @param pm_capacity  Size of the PM pool in bytes.
     * @param seed         Seed for crash-eviction randomness.
     */
    Machine(const SimConfig &cfg, PlatformKind kind,
            std::size_t pm_capacity, std::uint64_t seed = 1);

    /** Records whole-run observed totals (NVM tier bytes, PCIe
     *  traffic, final clock) into the telemetry session, if any. */
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    PlatformKind kind() const { return kind_; }
    const SimConfig &config() const { return cfg_; }
    PmPool &pool() { return pool_; }
    /** The media model cfg.media selected (docs/memsim.md). */
    MediaBackend &nvm() { return *media_; }
    GpuExecutor &gpu() { return gpu_; }
    const PcieLink &pcie() const { return pcie_; }

    // ---- simulated clock ---------------------------------------------------
    SimNs now() const { return now_; }
    void advance(SimNs ns) { now_ += ns; }

    // ---- figure counters ----------------------------------------------------

    /** Device-to-host PCIe write traffic so far (Fig 12 numerator). */
    std::uint64_t pcieWriteBytes() const { return pcie_write_bytes_; }

    /** Bytes persisted with intent so far (Table 4 WA accounting). */
    std::uint64_t persistPayloadBytes() const { return persist_payload_; }

    // ---- DDIO control (libGPM's gpm_persist_begin/end substrate) -----------

    /**
     * Disable DDIO for the GPU. Only meaningful on the plain GPM
     * platform; eADR platforms are always durable at the LLC and the
     * others deliberately leave DDIO on.
     */
    void ddioOff();

    /** Re-enable DDIO (gpm_persist_end). */
    void ddioOn();

    // ---- GPU execution -----------------------------------------------------

    /**
     * Execute @p kernel functionally and charge its simulated time.
     *
     * @throws KernelCrashed on an armed crash point; the clock is not
     *         advanced for a crashed launch (the measurement flows of
     *         Table 5 only time clean operation and clean recovery).
     */
    LaunchStats runKernel(const KernelDesc &kernel);

    // ---- host-side operations ------------------------------------------------

    /** CPU computation of @p ops abstract operations on @p threads. */
    void cpuCompute(double ops, int threads);

    /** DMA a device buffer to host DRAM (CAP step 1). */
    void dmaDeviceToHost(std::uint64_t bytes);

    /**
     * Host-side persist of a device buffer on this platform's path:
     * CAP-fs DMAs it to DRAM and write()+fsync()s it into a DAX file
     * at @p pm_addr in one syscall; CAP-mm and CAP-eADR DMA it, CPU-store
     * it into PM and flush+drain with @p threads CPU threads (no
     * flushes under eADR); GPUfs gwrite()s it in one RPC per MiB.
     * Functionally durable on return.
     *
     * Every byte is charged. With @p written, the host copies only
     * those records; PM must already hold the rest of @p src (see
     * PmPool::cpuWritePersist).
     *
     * @throws FatalError on a platform whose kernels persist on their
     *         own (GPM, GPM-NDP, GPM-eADR, CPU-only), or on GPUfs for a
     *         file supports() rejects.
     */
    void capPersist(std::uint64_t pm_addr, const void *src,
                    std::uint64_t bytes, int threads,
                    const WrittenRecords *written = nullptr);

    /**
     * CAP persist of a dirty-chunk set: the kernel reports the records
     * it wrote, and only the fixed-size chunks of a device structure
     * that hold one are DMA-ed out and persisted (one DMA + one fs
     * write or flush pass for the gathered set). This is the
     * chunked-transfer moderation of section 3.2 — and still the
     * source of Table 4's write amplification, since a chunk is
     * dirtied by a single byte. Each chunk is charged in full; the
     * host copies only its records, so PM must already hold the rest
     * of every such chunk.
     *
     * @param region_base  PM address of the structure's start.
     * @param host_base    Device-volatile copy of the structure.
     * @param bytes        Size of the structure; a last chunk that
     *                     runs past it moves only the bytes inside.
     * @param written      Records the kernel wrote, offsets from the
     *                     structure's start: ascending, disjoint, each
     *                     inside one chunk of the structure.
     * @param chunk_bytes  Chunk granularity.
     * @param threads      CPU flush threads (ignored on CAP-fs, which
     *                     writes and fsyncs the set in one call).
     */
    void capPersistChunks(std::uint64_t region_base,
                          const void *host_base, std::uint64_t bytes,
                          const WrittenRecords &written,
                          std::uint64_t chunk_bytes, int threads);

    /**
     * CPU store + flush of CPU-generated data (CPU-only baselines and
     * the CPU half of GPM-NDP). No DMA is charged. With @p written, as
     * for capPersist, only those records are copied.
     */
    void cpuWritePersist(std::uint64_t pm_addr, const void *src,
                         std::uint64_t size, int threads,
                         const WrittenRecords *written = nullptr);

    /**
     * Flush an address range already stored to PM (GPM-NDP's
     * after-kernel durability pass; CLFLUSHOPT by address).
     */
    void cpuPersistRange(std::uint64_t pm_addr, std::uint64_t size,
                         int threads);

    /**
     * Flush *everything* currently pending to PM with @p threads CPU
     * threads sweeping scattered cache lines (the GPM-NDP durability
     * pass: the CPU does not know which lines the kernel updated
     * beyond a conservative line list of @p bytes total).
     */
    void cpuPersistScattered(std::uint64_t bytes, int threads);

    /** Read @p bytes from PM into the host (restores, CPU reads). */
    void cpuPmRead(std::uint64_t bytes, int threads);

    // ---- GPUfs comparator ----------------------------------------------------

    /**
     * True when this platform can persist a workload whose writers
     * have grain @p grain into files of up to @p file_bytes. Only GPUfs
     * ever says no (section 6.1, Fig 9's "*"): its gwrite() is a
     * per-threadblock call, so per-thread writers deadlock, and its
     * files stop at SimConfig::gpufs_max_file_bytes (2 GB).
     */
    bool
    supports(WriteGrain grain, std::uint64_t file_bytes = 0) const
    {
        return kind_ != PlatformKind::Gpufs ||
               (grain == WriteGrain::Block &&
                file_bytes <= cfg_.gpufs_max_file_bytes);
    }

  private:
    /**
     * The host store-and-persist sequence every host path shares:
     * store [pm_addr, pm_addr+size) as CPU owner @p owner (only the
     * @p written records, when given), persist the range, record it as
     * one media run of @p txn_bytes-sized transactions, and count it
     * as persisted payload. Time is the caller's to charge.
     */
    void hostStorePersist(OwnerId owner, std::uint64_t pm_addr,
                          const void *src, std::uint64_t size,
                          std::uint64_t txn_bytes,
                          const WrittenRecords *written);
    void capMmPersist(std::uint64_t pm_addr, const void *src,
                      std::uint64_t size, int threads,
                      const WrittenRecords *written);
    void capFsPersist(std::uint64_t pm_addr, const void *src,
                      std::uint64_t size, const WrittenRecords *written);
    void gpufsWrite(std::uint64_t pm_addr, const void *src,
                    std::uint64_t size, const WrittenRecords *written);

    SimNs fenceLatency() const;
    double effectiveGpuRate(std::uint64_t threads) const;

    SimConfig cfg_;
    PlatformKind kind_;
    PmPool pool_;
    std::unique_ptr<MediaBackend> media_;
    GpuExecutor gpu_;
    PcieLink pcie_;
    CpuPersistModel cpu_persist_;
    FsModel fs_;

    SimNs now_ = 0;
    std::uint64_t pcie_write_bytes_ = 0;
    std::uint64_t persist_payload_ = 0;
    std::uint64_t next_cpu_owner_ = 0;
};

} // namespace gpm
