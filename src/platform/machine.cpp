#include "platform/machine.hpp"

#include <algorithm>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace gpm {

namespace {

/** Records capPersistChunks warms ahead of the one it copies. */
constexpr std::size_t kRecordsAhead = 4;

/**
 * Fold one launch's stats into the session counters. The per-launch
 * NVM tier deltas sum (over clean launches) to the model's observed
 * totals — the accounting identity test_telemetry checks.
 */
void
recordLaunchMetrics(telemetry::Session &s, const LaunchStats &st,
                    SimNs now)
{
    telemetry::Registry &r = s.metrics;
    r.add("sim.launches", 1);
    r.add("sim.blocks", st.blocks);
    r.add("sim.threads", st.threads);
    r.add("sim.hbm_bytes", st.hbm_bytes);
    r.add("sim.pm_payload_bytes", st.pm_payload_bytes);
    r.add("sim.pm_line_txns", st.pm_line_txns);
    r.add("sim.pm_line_bytes", st.pm_line_bytes);
    r.add("sim.pm_read_bytes", st.pm_read_bytes);
    r.add("sim.fences", st.fences);
    r.add("nvm.launch_seq_aligned_bytes", st.nvm.seq_aligned);
    r.add("nvm.launch_seq_unaligned_bytes", st.nvm.seq_unaligned);
    r.add("nvm.launch_random_bytes", st.nvm.random);
    r.gaugeAdd("sim.work_ops", st.work_ops);
    r.gaugeSet("sim.clock_ns", now);
}

} // namespace

Machine::Machine(const SimConfig &cfg, PlatformKind kind,
                 std::size_t pm_capacity, std::uint64_t seed)
    : cfg_(cfg), kind_(kind),
      pool_(pm_capacity, initialDomain(kind), seed),
      media_(makeMediaBackend(cfg_)), gpu_(cfg_, pool_, *media_),
      pcie_(cfg_), cpu_persist_(cfg_), fs_(cfg_)
{
}

void
Machine::ddioOff()
{
    // Writing the perfctrlsts_0 I/O register; only the GPM platform
    // actually moves the persistence boundary to the memory controller.
    if (kind_ == PlatformKind::Gpm)
        pool_.setDomain(PersistDomain::McDurable);
    advance(cfg_.syscall_ns);
}

void
Machine::ddioOn()
{
    if (kind_ == PlatformKind::Gpm)
        pool_.setDomain(PersistDomain::LlcVolatile);
    advance(cfg_.syscall_ns);
}

SimNs
Machine::fenceLatency() const
{
    return pool_.domain() == PersistDomain::McDurable ? cfg_.fence_mc_ns
                                                      : cfg_.fence_llc_ns;
}

double
Machine::effectiveGpuRate(std::uint64_t threads) const
{
    // Linear ramp up to full occupancy of the SIMD lanes.
    const double lanes = static_cast<double>(cfg_.num_sms) * 64.0;
    const double util =
        std::min(1.0, static_cast<double>(threads) / lanes);
    return cfg_.gpu_ops_per_ns * std::max(util, 1.0 / lanes);
}

Machine::~Machine()
{
    // Whole-run observed totals. Recorded at teardown so the identity
    // "sum of per-launch tier deltas == model totals" can be checked
    // from a snapshot alone (clean runs only; a crashed launch's
    // partial traffic reaches the model but not the launch counters).
    if (telemetry::Session *s = telemetry::Session::current()) {
        media_->closeRuns();
        const NvmTierBytes &b = media_->bytes();
        telemetry::Registry &r = s->metrics;
        r.add("nvm.observed_seq_aligned_bytes", b.seq_aligned);
        r.add("nvm.observed_seq_unaligned_bytes", b.seq_unaligned);
        r.add("nvm.observed_random_bytes", b.random);
        r.add("nvm.observed_write_txns", media_->writeTxns());
        r.add("nvm.observed_read_bytes", media_->readBytes());
        r.add("nvm.observed_read_ops", media_->readOps());
        // Backend-specific totals (per-DIMM tiers, DRAM cache hit /
        // miss / migration bytes) — empty for the default NvmModel, so
        // legacy snapshots are unchanged.
        std::vector<MediaCounter> media_counters;
        media_->appendCounters(media_counters);
        for (const MediaCounter &c : media_counters)
            r.add("media." + c.name, c.value);
        r.add("machine.pcie_write_bytes", pcie_write_bytes_);
        r.add("machine.persist_payload_bytes", persist_payload_);
        const PmPoolStats &ps = pool_.stats();
        r.add("pool.crashes", ps.crashes);
        r.add("pool.extents_drained", ps.extents_drained);
        r.add("pool.extents_merged", ps.extents_merged);
        r.add("pool.crash_sub_extents", ps.crash_sub_extents);
        r.add("pool.crash_survivors", ps.crash_survivors);
        r.gaugeAdd("machine.final_clock_ns", now_);
        r.add("machine.instances", 1);
    }
}

LaunchStats
Machine::runKernel(const KernelDesc &kernel)
{
    telemetry::Span span("launch", kernel.name);
    const LaunchStats stats = gpu_.launch(kernel);  // may throw

    const SimNs compute_ns =
        stats.work_ops / effectiveGpuRate(stats.threads);
    const SimNs hbm_ns = transferNs(stats.hbm_bytes, cfg_.hbm_gbps);
    const SimNs core_ns = std::max(compute_ns, hbm_ns);

    const SimNs pcie_ns =
        pcie_.bulkTime(stats.pm_line_bytes) +
        pcie_.bulkTime(stats.pm_read_bytes);
    // Under eADR the LLC is durable on arrival: the media absorbs
    // store bursts off the critical path and evicts well-batched full
    // lines in the background, so the random/unaligned-tier penalties
    // vanish from kernel latency (the big Fig 10 uplift for
    // fence-heavy workloads).
    // The WPQ absorbs the head of each kernel's write burst at full
    // speed (see SimConfig::wpq_absorb_bytes); charge it against the
    // slowest (random) tier first.
    NvmTierBytes charged = stats.nvm;
    charged.random -=
        std::min<std::uint64_t>(charged.random, cfg_.wpq_absorb_bytes);
    const SimNs nvm_write_ns = pool_.domain() == PersistDomain::LlcDurable
        ? transferNs(charged.total(), cfg_.nvm_seq_aligned_gbps)
        : media_->writeTime(charged, cfg_.nvm_gpu_random_boost);
    const SimNs nvm_ns = nvm_write_ns + media_->readTime(stats.pm_read_bytes);
    const SimNs mem_ns = std::max(pcie_ns, nvm_ns);

    const std::uint64_t issuing = std::min<std::uint64_t>(
        stats.threads,
        static_cast<std::uint64_t>(cfg_.max_resident_threads));
    const SimNs fence_ns = pcie_.persistOpsTime(stats.fences, issuing,
                                                fenceLatency());

    const SimNs launch_ns =
        kernel.no_launch_overhead ? 0.0 : cfg_.kernel_launch_ns;
    advance(launch_ns + std::max(core_ns, mem_ns) + fence_ns);

    pcie_write_bytes_ += stats.pm_line_bytes;
    if (fenceIsPersist(pool_.domain()))
        persist_payload_ += stats.pm_payload_bytes;
    if (telemetry::Session *s = telemetry::Session::current()) {
        span.arg("blocks", stats.blocks);
        span.arg("threads", stats.threads);
        span.arg("pm_payload_bytes", stats.pm_payload_bytes);
        span.arg("pm_line_txns", stats.pm_line_txns);
        span.arg("fences", stats.fences);
        span.arg("sim_ns", launch_ns + std::max(core_ns, mem_ns) +
                               fence_ns);
        recordLaunchMetrics(*s, stats, now_);
    }
    return stats;
}

void
Machine::cpuCompute(double ops, int threads)
{
    GPM_REQUIRE(threads >= 1, "cpuCompute needs >= 1 thread");
    const int t = std::min(threads, cfg_.cpu_max_threads);
    advance(ops / (cfg_.cpu_ops_per_ns * static_cast<double>(t)));
}

void
Machine::dmaDeviceToHost(std::uint64_t bytes)
{
    advance(pcie_.dmaTime(bytes));
    pcie_write_bytes_ += bytes;
}

void
Machine::hostStorePersist(OwnerId owner, std::uint64_t pm_addr,
                          const void *src, std::uint64_t size,
                          std::uint64_t txn_bytes,
                          const WrittenRecords *written)
{
    pool_.cpuWritePersist(owner, pm_addr, src, size, written);
    media_->recordRun(pm_addr, size,
                      std::max<std::uint64_t>(1, size / txn_bytes));
    persist_payload_ += size;
}

void
Machine::cpuWritePersist(std::uint64_t pm_addr, const void *src,
                         std::uint64_t size, int threads,
                         const WrittenRecords *written)
{
    // Each flushing thread sweeps a contiguous chunk in line-sized
    // transactions; the flush path, not the media, is usually the
    // bottleneck (Fig 3a), so charge the slower of the two.
    media_->closeRuns();
    const NvmTierBytes before = media_->bytes();
    hostStorePersist(next_cpu_owner_++, pm_addr, src, size,
                     cfg_.cache_line, written);
    // Under eADR no flushes are needed (CAP-eADR, section 6.1); the
    // store stream still drains through the media.
    const SimNs flush_ns = pool_.domain() == PersistDomain::LlcDurable
        ? cfg_.cpu_sfence_ns
        : cpu_persist_.persistTime(size, threads);
    const SimNs media_ns = media_->writeTime(media_->bytes() - before);
    advance(cpu_persist_.copyTime(size) + std::max(flush_ns, media_ns));
}

void
Machine::cpuPersistRange(std::uint64_t pm_addr, std::uint64_t size,
                         int threads)
{
    pool_.persistRange(pm_addr, size);
    media_->recordRun(pm_addr, size,
                   std::max<std::uint64_t>(1, size / cfg_.cache_line));
    advance(cpu_persist_.persistTime(size, threads));
    persist_payload_ += size;
}

void
Machine::cpuPersistScattered(std::uint64_t bytes, int threads)
{
    pool_.persistAll();
    if (bytes == 0)
        return;
    media_->recordScattered(bytes,
                         std::max<std::uint64_t>(1,
                                                 bytes / cfg_.cache_line));
    const SimNs flush_ns = pool_.domain() == PersistDomain::LlcDurable
        ? cfg_.cpu_sfence_ns
        : cpu_persist_.persistTime(bytes, threads);
    const SimNs media_ns = media_->writeTime(NvmTierBytes{0, 0, bytes});
    advance(std::max(flush_ns, media_ns));
    persist_payload_ += bytes;
}

void
Machine::cpuPmRead(std::uint64_t bytes, int threads)
{
    const int t = std::max(1, std::min(threads, cfg_.cpu_max_threads));
    media_->recordRead(bytes);
    // A few reader threads pipeline Optane's read latency away.
    advance(media_->readTime(bytes) / std::min(4, t) ); // bounded overlap
}

void
Machine::capPersist(std::uint64_t pm_addr, const void *src,
                    std::uint64_t bytes, int threads,
                    const WrittenRecords *written)
{
    switch (kind_) {
      case PlatformKind::CapFs:
        capFsPersist(pm_addr, src, bytes, written);
        return;
      case PlatformKind::CapMm:
      case PlatformKind::CapEadr:
        capMmPersist(pm_addr, src, bytes, threads, written);
        return;
      case PlatformKind::Gpufs:
        GPM_REQUIRE(supports(WriteGrain::Block, bytes),
                    "GPUfs cannot hold files of ", bytes, " bytes");
        gpufsWrite(pm_addr, src, bytes, written);
        return;
      default:
        fatal("capPersist on ", platformName(kind_),
              ", whose kernels persist on their own");
    }
}

void
Machine::capMmPersist(std::uint64_t pm_addr, const void *src,
                      std::uint64_t size, int threads,
                      const WrittenRecords *written)
{
    telemetry::Span span("cap", "persist");
    dmaDeviceToHost(size);
    cpuWritePersist(pm_addr, src, size, threads, written);
}

void
Machine::capFsPersist(std::uint64_t pm_addr, const void *src,
                      std::uint64_t size, const WrittenRecords *written)
{
    telemetry::Span span("cap", "persist");
    dmaDeviceToHost(size);
    // fsync makes it durable.
    hostStorePersist(next_cpu_owner_++, pm_addr, src, size,
                     cfg_.fs_block_bytes, written);
    advance(fs_.writeFsyncTime(size, 1));
}

void
Machine::capPersistChunks(std::uint64_t region_base,
                          const void *host_base, std::uint64_t bytes,
                          const WrittenRecords &written,
                          std::uint64_t chunk_bytes, int threads)
{
    GPM_REQUIRE(kind_ == PlatformKind::CapFs ||
                    kind_ == PlatformKind::CapMm ||
                    kind_ == PlatformKind::CapEadr,
                "capPersistChunks on ", platformName(kind_));
    if (written.offsets.empty())
        return;
    telemetry::Span span("cap", "persist");
    const std::span<const std::uint64_t> offs = written.offsets;
    const std::uint64_t rb = written.bytes;
    std::uint64_t end = 0;  // past the previous record
    for (const std::uint64_t off : offs) {
        const std::uint64_t chunk_end = std::min(
            off / chunk_bytes * chunk_bytes + chunk_bytes, bytes);
        GPM_REQUIRE(rb > 0 && off >= end && off < chunk_end &&
                        rb <= chunk_end - off,
                    "written record [", off, ", +", rb,
                    ") out of order, or not inside one ", chunk_bytes,
                    " B chunk of a ", bytes, " B structure");
        end = off + rb;
    }

    // Every chunk holding a record is moved and persisted in full
    // (Table 4's amplification); the host copies only the records.
    const OwnerId owner = next_cpu_owner_++;
    media_->closeRuns();
    const NvmTierBytes before = media_->bytes();
    std::uint64_t total = 0;
    const auto *host = static_cast<const std::uint8_t *>(host_base);
    std::vector<std::uint64_t> in_chunk;  // rebased to the chunk start
    for (std::size_t i = 0; i < offs.size();) {
        const std::uint64_t c_off = offs[i] / chunk_bytes * chunk_bytes;
        const std::uint64_t c_size = std::min(chunk_bytes, bytes - c_off);
        in_chunk.clear();
        for (; i < offs.size() && offs[i] < c_off + c_size; ++i) {
            in_chunk.push_back(offs[i] - c_off);
            // Scattered records miss the host caches: warm a few
            // records ahead (host-only, DESIGN.md decision #10).
            if (i + kRecordsAhead < offs.size()) {
                const std::uint64_t ahead = offs[i + kRecordsAhead];
                pool_.prefetch(region_base + ahead, rb);
                prefetchHostLines(host + ahead, rb);
            }
        }
        const WrittenRecords records{in_chunk, rb};
        hostStorePersist(owner, region_base + c_off, host + c_off, c_size,
                         cfg_.cache_line, &records);
        total += c_size;
    }
    dmaDeviceToHost(total);
    const SimNs media_ns = media_->writeTime(media_->bytes() - before);
    if (kind_ == PlatformKind::CapFs) {
        advance(fs_.writeFsyncTime(total, 1));
    } else {
        const SimNs flush_ns =
            pool_.domain() == PersistDomain::LlcDurable
                ? cfg_.cpu_sfence_ns
                : cpu_persist_.persistTime(total, threads);
        advance(cpu_persist_.copyTime(total) +
                std::max(flush_ns, media_ns));
    }
}

void
Machine::gpufsWrite(std::uint64_t pm_addr, const void *src,
                    std::uint64_t size, const WrittenRecords *written)
{
    const std::uint64_t calls =
        std::max<std::uint64_t>(1, ceilDiv(size, 1_MiB));
    // The host OS persists.
    hostStorePersist(next_cpu_owner_++, pm_addr, src, size,
                     cfg_.fs_block_bytes, written);
    pcie_write_bytes_ += size;
    advance(static_cast<double>(calls) * cfg_.gpufs_call_ns +
            pcie_.bulkTime(size) +
            fs_.writeFsyncTime(size, calls));
}

} // namespace gpm
