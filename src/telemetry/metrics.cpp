#include "telemetry/metrics.hpp"

#include <cmath>

#include "common/status.hpp"
#include "telemetry/json.hpp"

namespace gpm::telemetry {

unsigned
HistogramData::binOf(double v)
{
    if (!(v >= 1.0))  // negatives, NaN and sub-unity all land in bin 0
        return 0;
    int exp = 0;
    std::frexp(v, &exp);  // v = m * 2^exp with m in [0.5, 1)
    // v in [2^(exp-1), 2^exp)  ->  bin exp, clamped to the array.
    if (exp < 1)
        return 0;
    if (exp > 63)
        return 63;
    return static_cast<unsigned>(exp);
}

void
HistogramData::observe(double v)
{
    if (count == 0) {
        min = max = v;
    } else {
        if (v < min)
            min = v;
        if (v > max)
            max = v;
    }
    ++count;
    sum += v;
    ++bins[binOf(v)];
}

double
HistogramData::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    // NaN fails both ordered comparisons, so clamp via the negated
    // form — otherwise it flows into the rank cast as garbage.
    if (!(q >= 0.0))
        q = 0.0;
    else if (q > 1.0)
        q = 1.0;
    // Rank of the selected sample, 1-based: ceil(q * count), at least 1.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    if (rank < 1)
        rank = 1;
    if (rank > count)
        rank = count;
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < bins.size(); ++b) {
        if (bins[b] == 0)
            continue;
        if (seen + bins[b] < rank) {
            seen += bins[b];
            continue;
        }
        // Rank lands in bin b: interpolate across the bin's value span
        // by the rank's position among this bin's samples.
        const double lo = b == 0 ? 0.0 : std::ldexp(1.0, int(b) - 1);
        const double hi = b == 0 ? 1.0 : std::ldexp(1.0, int(b));
        const double frac =
            static_cast<double>(rank - seen) / static_cast<double>(bins[b]);
        double v = lo + (hi - lo) * frac;
        if (v < min)
            v = min;
        if (v > max)
            v = max;
        return v;
    }
    return max;  // unreachable when bins/count are consistent
}

std::uint64_t
MetricsSnapshot::counter(std::string_view name) const
{
    const auto it = counters.find(std::string(name));
    return it == counters.end() ? 0 : it->second;
}

double
MetricsSnapshot::gauge(std::string_view name) const
{
    const auto it = gauges.find(std::string(name));
    return it == gauges.end() ? 0.0 : it->second;
}

void
MetricsSnapshot::writeJson(JsonWriter &w) const
{
    w.beginObject();
    writeFields(w);
    w.endObject();
}

void
MetricsSnapshot::writeFields(JsonWriter &w) const
{
    w.key("counters");
    w.beginObject();
    for (const auto &[name, v] : counters)
        w.field(name, v);
    w.endObject();
    w.key("gauges");
    w.beginObject();
    for (const auto &[name, v] : gauges)
        w.field(name, v);
    w.endObject();
    w.key("histograms");
    w.beginObject();
    for (const auto &[name, h] : histograms) {
        w.key(name);
        w.beginObject();
        w.field("count", h.count);
        w.field("sum", h.sum);
        w.field("min", h.min);
        w.field("max", h.max);
        w.field("mean", h.mean());
        w.field("p50", h.p50());
        w.field("p99", h.p99());
        w.field("p999", h.p999());
        // Only the populated prefix of the log2 bins; trailing zeros
        // carry no information and bloat every metrics.json.
        unsigned last = 0;
        for (unsigned b = 0; b < h.bins.size(); ++b)
            if (h.bins[b])
                last = b;
        w.key("log2_bins");
        w.beginArray();
        for (unsigned b = 0; b <= last && h.count; ++b)
            w.value(h.bins[b]);
        w.endArray();
        w.endObject();
    }
    w.endObject();
}

Registry::CounterId
Registry::counterId(std::string_view name)
{
    std::lock_guard<std::mutex> lock(m_);
    const auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    GPM_REQUIRE(ids_.size() < kMaxCounters,
                "telemetry registry counter limit (", kMaxCounters,
                ") exceeded interning '", std::string(name), "'");
    const CounterId id = static_cast<CounterId>(ids_.size());
    ids_.emplace(std::string(name), id);
    return id;
}

std::uint64_t
Registry::counter(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(m_);
    const auto it = ids_.find(name);
    if (it == ids_.end())
        return 0;
    return slots_[it->second].load(std::memory_order_relaxed);
}

void
Registry::gaugeSet(std::string_view name, double v)
{
    std::lock_guard<std::mutex> lock(m_);
    gauges_[std::string(name)] = v;
}

void
Registry::gaugeAdd(std::string_view name, double v)
{
    std::lock_guard<std::mutex> lock(m_);
    gauges_[std::string(name)] += v;
}

void
Registry::observe(std::string_view name, double v)
{
    std::lock_guard<std::mutex> lock(m_);
    hists_[std::string(name)].observe(v);
}

MetricsSnapshot
Registry::snapshot() const
{
    MetricsSnapshot s;
    std::lock_guard<std::mutex> lock(m_);
    for (const auto &[name, id] : ids_)
        s.counters[name] = slots_[id].load(std::memory_order_relaxed);
    s.gauges.insert(gauges_.begin(), gauges_.end());
    s.histograms.insert(hists_.begin(), hists_.end());
    return s;
}

const char *
hotCounterName(HotCounter c)
{
    switch (c) {
      case HotCounter::BlocksExecuted: return "exec.blocks_executed";
      case HotCounter::WarpFlushes: return "exec.warp_flushes";
      case HotCounter::FlushedAccesses: return "exec.flushed_accesses";
      case HotCounter::CoalescedLineTxns:
        return "exec.coalesced_line_txns";
      case HotCounter::kCount: break;
    }
    return "?";
}

void
HotShard::mergeInto(Registry &r)
{
    for (unsigned i = 0; i < v_.size(); ++i) {
        if (v_[i]) {
            r.add(hotCounterName(static_cast<HotCounter>(i)), v_[i]);
            v_[i] = 0;
        }
    }
}

} // namespace gpm::telemetry
