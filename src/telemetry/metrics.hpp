/**
 * @file
 * Thread-safe metrics registry for the simulator.
 *
 * Three metric kinds, matching how the sim stack actually produces
 * numbers:
 *
 *  - counters: monotonically increasing uint64 totals (bytes, txns,
 *    launches). Atomic adds; interning a name returns a stable
 *    CounterId so hot sites resolve the name once.
 *  - gauges: last-written double values plus a real-valued accumulate
 *    path (work_ops, the simulated clock).
 *  - histograms: log2-binned distributions with count/sum/min/max
 *    (span wall-times, per-launch sizes).
 *
 * Hot-path discipline: the instrumented inner loops (warp flushes,
 * block execution on pool workers) never touch the registry directly —
 * they add into a per-worker HotShard (a plain array, lock-free by
 * construction) that the executor merges at launch boundaries, the
 * same place LaunchStats already aggregates. Everything else (launch
 * boundaries, crash events, checkpoint epochs) is cold enough for the
 * registry's mutex.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace gpm::telemetry {

class JsonWriter;

/** Log2-binned distribution with count/sum/min/max. */
struct HistogramData {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    /** bins[0] covers v < 1; bins[b] covers [2^(b-1), 2^b). */
    std::array<std::uint64_t, 64> bins{};

    void observe(double v);

    /** Bin index of @p v (see bins). */
    static unsigned binOf(double v);

    double
    mean() const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }

    /**
     * Estimate the @p q quantile (q in [0, 1]) from the log2 bins.
     *
     * The rank-selected bin is linearly interpolated across its span
     * [2^(b-1), 2^b) by the rank's position among the bin's samples,
     * then clamped to the observed [min, max] so single-bin and
     * tail-bin estimates never leave the data range. Exact for
     * distributions with one sample per bin; within a factor of 2
     * (one bin width) otherwise — the usual log2-histogram contract.
     * Returns 0 for an empty histogram.
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p99() const { return quantile(0.99); }
    double p999() const { return quantile(0.999); }

    bool operator==(const HistogramData &o) const = default;
};

/** A point-in-time copy of a Registry's contents. */
struct MetricsSnapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> histograms;

    /** Counter value, 0 when absent. */
    std::uint64_t counter(std::string_view name) const;

    /** Gauge value, 0.0 when absent. */
    double gauge(std::string_view name) const;

    /**
     * Emit the snapshot as one JSON object value:
     * {"counters": {...}, "gauges": {...}, "histograms": {...}}.
     */
    void writeJson(JsonWriter &w) const;

    /**
     * Emit only the three members (no surrounding object), so tools
     * can splice envelope fields ("schema", "tool", ...) into the
     * same top-level object. @p w must be inside an open object.
     */
    void writeFields(JsonWriter &w) const;
};

/** Thread-safe named-metric store. */
class Registry
{
  public:
    using CounterId = std::uint32_t;

    /** Hard cap on distinct counters; the id -> slot array is fixed so
     *  add() by id is lock-free against concurrent interning. */
    static constexpr std::size_t kMaxCounters = 1024;

    /** Intern @p name, returning its stable id (idempotent). */
    CounterId counterId(std::string_view name);

    /** Add @p n to the counter @p id (lock-free). */
    void
    add(CounterId id, std::uint64_t n)
    {
        slots_[id].fetch_add(n, std::memory_order_relaxed);
    }

    /** Add @p n to the counter named @p name (interns on first use). */
    void
    add(std::string_view name, std::uint64_t n = 1)
    {
        add(counterId(name), n);
    }

    /** Current value of counter @p name (0 when never interned). */
    std::uint64_t counter(std::string_view name) const;

    /** Set gauge @p name to @p v. */
    void gaugeSet(std::string_view name, double v);

    /** Accumulate @p v into gauge @p name (real-valued counter). */
    void gaugeAdd(std::string_view name, double v);

    /** Record @p v into histogram @p name. */
    void observe(std::string_view name, double v);

    /** Copy out everything recorded so far. */
    MetricsSnapshot snapshot() const;

  private:
    mutable std::mutex m_;
    std::map<std::string, CounterId, std::less<>> ids_;
    std::array<std::atomic<std::uint64_t>, kMaxCounters> slots_{};
    std::map<std::string, double, std::less<>> gauges_;
    std::map<std::string, HistogramData, std::less<>> hists_;
};

/**
 * The fixed set of hot-path counters the executor keeps in its shard.
 * An enum rather than interned names so a shard is a plain array add
 * with no lookup at all on the block-execution path.
 */
enum class HotCounter : unsigned {
    BlocksExecuted,    ///< blocks run
    WarpFlushes,       ///< phase-boundary warp flushes with accesses
    FlushedAccesses,   ///< raw PM stores retired through coalescing
    CoalescedLineTxns, ///< 128 B line transactions produced
    kCount,
};

/** Registry name of @p c (the "exec." counter family). */
const char *hotCounterName(HotCounter c);

/**
 * Shard of the hot counters: a plain uint64 array owned by one
 * GpuExecutor, merged into the registry at launch boundaries. Adds are
 * completely lock-free (not even an atomic — an executor runs on one
 * thread at a time).
 */
class HotShard
{
  public:
    void
    add(HotCounter c, std::uint64_t n)
    {
#ifndef GPM_TELEMETRY_DISABLED
        v_[static_cast<unsigned>(c)] += n;
#else
        (void)c;
        (void)n;
#endif
    }

    /** Fold this shard into @p r and zero it. */
    void mergeInto(Registry &r);

    /** Discard pending values (launch ended with no session installed). */
    void clear() { v_.fill(0); }

    std::uint64_t
    value(HotCounter c) const
    {
        return v_[static_cast<unsigned>(c)];
    }

  private:
    std::array<std::uint64_t, static_cast<unsigned>(HotCounter::kCount)> v_{};
};

} // namespace gpm::telemetry
