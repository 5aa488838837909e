/**
 * @file
 * Pluggable PM media backends.
 *
 * The paper models one logical Optane region (nvm_model.hpp); real
 * GPM deployments interleave across many DIMMs, sit behind a CXL
 * expander, or front the NVM with a DRAM cache. MediaBackend is the
 * interface every model implements and Machine/GpuExecutor drive:
 * a write-transaction classifier plus a bytes -> simulated-time
 * converter. Selection rides in SimConfig::media (see docs/memsim.md
 * for the backend matrix).
 *
 * The contract that keeps the crash matrix meaningful: backends are
 * *functional-state-free*. They observe the transaction stream the
 * executor and host paths emit and only classify/price it, so the
 * durable image, recovery outcomes and torture signatures are
 * bit-identical on every medium — the media axis changes modelled
 * time and tier accounting, never results.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "memsim/sim_config.hpp"

namespace gpm {

/** Byte totals per Optane access tier. */
struct NvmTierBytes {
    std::uint64_t seq_aligned = 0;   ///< 256 B-aligned sequential bytes
    std::uint64_t seq_unaligned = 0; ///< sequential but unaligned bytes
    std::uint64_t random = 0;        ///< isolated / random bytes

    std::uint64_t
    total() const
    {
        return seq_aligned + seq_unaligned + random;
    }

    NvmTierBytes
    operator-(const NvmTierBytes &o) const
    {
        return {seq_aligned - o.seq_aligned,
                seq_unaligned - o.seq_unaligned, random - o.random};
    }

    NvmTierBytes &
    operator+=(const NvmTierBytes &o)
    {
        seq_aligned += o.seq_aligned;
        seq_unaligned += o.seq_unaligned;
        random += o.random;
        return *this;
    }

    /** Per-tier equality (the determinism suite's comparison). */
    bool operator==(const NvmTierBytes &o) const = default;
};

/** One backend-specific observed total (telemetry fold). */
struct MediaCounter {
    std::string name;     ///< registry-relative, e.g. "dimm0.random_bytes"
    std::uint64_t value;
};

/**
 * Interface of a PM media model: classifies the write-transaction
 * stream into Optane-style tiers and converts classified bytes into
 * simulated media time.
 */
class MediaBackend
{
  public:
    MediaBackend() = default;
    virtual ~MediaBackend() = default;
    MediaBackend(const MediaBackend &) = delete;
    MediaBackend &operator=(const MediaBackend &) = delete;

    /** Which model this is (mirrors SimConfig::media.kind). */
    virtual MediaKind kind() const = 0;

    /**
     * Record one write transaction.
     *
     * @param stream  Identity of the writer (warp id, CPU thread id...).
     *                Transactions only merge into runs within a stream.
     * @param addr    PM byte address of the transaction.
     * @param size    Transaction size in bytes (must be non-zero).
     */
    virtual void recordWrite(std::uint64_t stream, std::uint64_t addr,
                             std::uint64_t size) = 0;

    /**
     * Record an already-formed run of @p txns transactions covering
     * [addr, addr+size) contiguously — the bulk path used by CPU flush
     * loops and DMA-style writers, classified immediately without
     * going through the per-stream open-run machinery.
     */
    virtual void recordRun(std::uint64_t addr, std::uint64_t size,
                           std::uint64_t txns) = 0;

    /** Record scattered line-granular writes (CPU flush of sparse
     *  lines): all bytes land on the random tier. */
    virtual void recordScattered(std::uint64_t bytes,
                                 std::uint64_t txns) = 0;

    /** Record a read of @p bytes from PM. */
    virtual void recordRead(std::uint64_t bytes) = 0;

    /**
     * Close all open runs and classify their bytes.
     *
     * Call at an execution boundary (kernel end, persist batch end);
     * classified byte counters are only complete after this.
     */
    virtual void closeRuns() = 0;

    /** Classified write bytes so far (closeRuns() first for totals). */
    virtual const NvmTierBytes &bytes() const = 0;

    /** Total write transactions recorded. */
    virtual std::uint64_t writeTxns() const = 0;

    /** Total read bytes recorded. */
    virtual std::uint64_t readBytes() const = 0;

    /** Total read operations recorded. */
    virtual std::uint64_t readOps() const = 0;

    /**
     * Media time to absorb the classified writes in @p b.
     *
     * @param random_boost  Concurrency relief for the random tier
     *                      (>= 1; see SimConfig::nvm_gpu_random_boost).
     */
    SimNs
    writeTime(const NvmTierBytes &b, double random_boost = 1.0) const
    {
        return writeTimeImpl(b, random_boost);
    }

    /** Media time for all writes recorded so far. */
    SimNs
    writeTime() const
    {
        return writeTimeImpl(bytes(), 1.0);
    }

    /** Media time for @p bytes of reads. */
    virtual SimNs readTime(std::uint64_t bytes) const = 0;

    /** Forget all recorded traffic and open runs. */
    virtual void reset() = 0;

    /** Backend-specific observed totals (per-DIMM tier bytes, DRAM
     *  cache hit/miss/migration counters...), appended for the
     *  telemetry fold under the "media." prefix. */
    virtual void
    appendCounters(std::vector<MediaCounter> &out) const
    {
        (void)out;
    }

  protected:
    virtual SimNs writeTimeImpl(const NvmTierBytes &b,
                                double random_boost) const = 0;
};

// ---- selection (CLI keys, environment, factory) -------------------------

/**
 * Parse a media-backend key: "nvm", "interleaved[:dimms]" (power of
 * two in [1, 64], default 4), "cxl", or "hybrid[:cache_mib]" (in
 * [1, 4096], default 4). Returns std::nullopt for anything else —
 * callers print mediaUsage() in their error.
 */
std::optional<MediaConfig> parseMediaConfig(std::string_view key);

/** Canonical key for @p m (inverse of parseMediaConfig). */
std::string mediaKey(const MediaConfig &m);

/** The accepted keys, for unknown-backend errors and --help text. */
const char *mediaUsage();

/**
 * Install @p m into @p cfg. Selecting the CXL expander also overlays
 * the SimConfig::cxlAttachedPm() interconnect projection (the
 * expander sits on a CXL fabric, not PCIe 3.0), so one knob moves
 * both the media model and the link it hangs off.
 */
void applyMediaConfig(SimConfig &cfg, const MediaConfig &m);

/**
 * Media selection from the GPM_MEDIA environment variable; unset or
 * unparsable input degrades to @p fallback so a stray environment
 * never breaks a bench run (the sweepJobsFromEnv convention).
 */
MediaConfig mediaFromEnv(const MediaConfig &fallback = MediaConfig{});

/** Construct the backend cfg.media selects. @p cfg must outlive it. */
std::unique_ptr<MediaBackend> makeMediaBackend(const SimConfig &cfg);

} // namespace gpm
