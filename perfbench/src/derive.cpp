#include "derive.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>

#include "common/hash.hpp"

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
fastestPassSeconds(const std::vector<std::vector<double>> &seg_s)
{
    double sum = 0.0;
    for (const std::vector<double> &v : seg_s)
        if (!v.empty())
            sum += *std::min_element(v.begin(), v.end());
    return sum;
}

TailPick
tailPercentile(std::vector<double> v, double q)
{
    TailPick t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    std::size_t k = 0;
    if (n >= 11) {
        const double rank = std::ceil(q * static_cast<double>(n));
        k = std::min(static_cast<std::size_t>(std::max(rank, 1.0)) - 1,
                     n - 11);
    } else {
        k = (n - 1) / 2;
    }
    t.value = v[k];
    t.level = static_cast<double>(k + 1) / static_cast<double>(n);
    t.beyond = n - 1 - k;
    return t;
}

double
tailLevel(std::uint64_t n, double q)
{
    if (n < 11)
        return 0.5;
    return std::min(q, 1.0 - 10.0 / static_cast<double>(n));
}

double
errFactor(const std::vector<SpeedupRow> &rows)
{
    if (rows.empty())
        throw std::invalid_argument("errFactor: no rows");
    double log_sum = 0.0;
    for (const SpeedupRow &r : rows) {
        if (!(r.ours > 0.0) || !(r.paper > 0.0))
            throw std::invalid_argument("errFactor: non-positive speedup in " +
                                        r.row);
        log_sum += std::abs(std::log(r.ours / r.paper));
    }
    return std::exp(log_sum / static_cast<double>(rows.size()));
}

double
paperFig9Speedup(const std::string &row_key)
{
    // GPM over CAP-fs as the paper's Fig 9 reports it (EXPERIMENTS.md
    // table). "7-8x" reads as 7.5; "~8x" as 8.
    static const std::map<std::string, double> kPaper = {
        {"kvs", 7.5}, {"kvs95", 8.0}, {"dbi", 7.0},  {"dbu", 5.0},
        {"dnn", 16.0}, {"cfd", 8.0},  {"blk", 17.0}, {"hs", 18.0},
        {"bfs", 85.0}, {"srad", 8.0}, {"ps", 5.0},
    };
    const auto it = kPaper.find(row_key);
    if (it == kPaper.end())
        throw std::invalid_argument("no paper Fig 9 value for row " + row_key);
    return it->second;
}

double
Tally::ratio() const
{
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
}

std::uint64_t
serveFailures(const gpm::ServeReport &r, std::uint64_t requests)
{
    std::uint64_t bad = r.oracle_failures;
    if (r.ops_acked < requests)
        bad += requests - r.ops_acked;
    if (!r.durable_ok)
        ++bad;
    return std::min(bad, requests);
}

namespace {

std::uint64_t
foldDouble(double v, std::uint64_t h)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return gpm::fnv1aU64(bits, h);
}

} // namespace

std::uint64_t
fingerprint(const gpm::WorkloadResult &r, std::uint64_t h)
{
    h = gpm::fnv1aU64(r.supported, h);
    h = foldDouble(r.op_ns, h);
    h = foldDouble(r.persist_ns, h);
    h = foldDouble(r.recovery_ns, h);
    h = gpm::fnv1aU64(r.persisted_payload, h);
    h = gpm::fnv1aU64(r.pcie_write_bytes, h);
    h = foldDouble(r.ops_done, h);
    return gpm::fnv1aU64(r.verified, h);
}

std::vector<SpanRec>
spansOf(const std::vector<gpm::telemetry::TraceEvent> &ev)
{
    std::vector<SpanRec> out;
    out.reserve(ev.size());
    for (const gpm::telemetry::TraceEvent &e : ev)
        if (e.ph == 'X')
            out.push_back({e.ts_us, e.dur_us, e.tid, e.cat, e.name});
    return out;
}

namespace {

bool
encloses(const SpanRec &outer, const SpanRec &inner)
{
    return inner.ts_us >= outer.ts_us && inner.end() <= outer.end();
}

} // namespace

SpanTree::SpanTree(std::vector<SpanRec> spans) : spans_(std::move(spans))
{
    // Start order, outermost first on ties, so every parent precedes
    // its children.
    std::stable_sort(spans_.begin(), spans_.end(),
                     [](const SpanRec &a, const SpanRec &b) {
                         if (a.ts_us != b.ts_us)
                             return a.ts_us < b.ts_us;
                         return a.dur_us > b.dur_us;
                     });
    const std::size_t n = spans_.size();
    parent_.assign(n, -1);
    children_.assign(n, {});

    std::map<std::uint32_t, std::vector<std::size_t>> stacks;
    std::vector<std::size_t> launches;
    std::vector<std::size_t> orphans;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<std::size_t> &st = stacks[spans_[i].tid];
        while (!st.empty() && !encloses(spans_[st.back()], spans_[i]))
            st.pop_back();
        if (!st.empty())
            parent_[i] = static_cast<int>(st.back());
        else
            orphans.push_back(i);
        st.push_back(i);
        if (spans_[i].cat == "launch")
            launches.push_back(i);
    }

    // A block that starts a thread's stack inside another thread's
    // launch ran on an executor lane for that launch.
    for (const std::size_t i : orphans) {
        if (spans_[i].cat != "block")
            continue;
        auto it = std::upper_bound(
            launches.begin(), launches.end(), spans_[i].ts_us,
            [&](double ts, std::size_t l) { return ts < spans_[l].ts_us; });
        while (it != launches.begin()) {
            --it;
            const SpanRec &l = spans_[*it];
            if (l.tid != spans_[i].tid && encloses(l, spans_[i])) {
                parent_[i] = static_cast<int>(*it);
                break;
            }
            if (spans_[i].ts_us - l.ts_us > 1e7)  // launches last < 10 s
                break;
        }
    }

    for (std::size_t i = 0; i < n; ++i)
        if (parent_[i] >= 0)
            children_[static_cast<std::size_t>(parent_[i])].push_back(i);
}

void
SpanTree::collectCover(std::size_t i, const Pred &p,
                       std::vector<std::pair<double, double>> &out) const
{
    for (const std::size_t c : children_[i]) {
        if (!p || p(spans_[c]))
            out.emplace_back(spans_[c].ts_us, spans_[c].end());
        else
            collectCover(c, p, out);
    }
}

double
SpanTree::uncoveredUs(std::size_t i, const Pred &p) const
{
    const SpanRec &s = spans_[i];
    std::vector<std::pair<double, double>> cover;
    collectCover(i, p, cover);
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double lo = s.ts_us;  // everything before lo is already counted
    for (const auto &[a, b] : cover) {
        const double from = std::max(a, lo);
        const double to = std::min(b, s.end());
        if (to > from) {
            covered += to - from;
            lo = to;
        }
    }
    return std::max(0.0, s.dur_us - covered);
}

bool
SpanTree::hasAncestor(std::size_t i, const Pred &p) const
{
    for (int a = parent_[i]; a >= 0; a = parent_[static_cast<std::size_t>(a)])
        if (p(spans_[static_cast<std::size_t>(a)]))
            return true;
    return false;
}

std::vector<std::size_t>
SpanTree::select(const Pred &p) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (p(spans_[i]))
            out.push_back(i);
    return out;
}

SpanTree::Pred
isSpan(std::string cat, std::string name)
{
    return [cat = std::move(cat), name = std::move(name)](const SpanRec &s) {
        return s.cat == cat && (name.empty() || s.name == name);
    };
}

} // namespace perfbench
