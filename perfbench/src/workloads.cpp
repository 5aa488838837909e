#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "common/hash.hpp"
#include "crashtest/torture_runner.hpp"
#include "harness/experiments.hpp"
#include "service/serve_engine.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

namespace {

namespace tel = gpm::telemetry;
using gpm::bench::Bench;
using gpm::PlatformKind;
using Clock = std::chrono::steady_clock;

/** Where a traced run writes its span file, under the checkout root. */
constexpr const char *kOutDir = ".bench_out";

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** What the per-layer derivation needs from the workload itself. */
struct LayerInputs {
    int lanes = 1;  ///< executor lanes per launch
    int jobs = 1;   ///< sweep workers
    double ddio_trap = 0.0;  ///< torture scenarios per pass, by class
    double not_fired = 0.0;
    const gpm::ServeReport *serve = nullptr;
};

/** One workload: set-up, timed passes, and its output checks. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build what the next pass needs; each call is one set-up sample. */
    virtual void prepare() = 0;

    /** Drop what the last prepare() built, so the next one starts clean. */
    virtual void release() {}

    /**
     * One small untimed unit after the first prepare(), so first-use
     * costs (allocator growth, executor lanes) land
     * neither in a set-up sample nor in the first pass.
     */
    virtual void warmUp() {}

    /** One timed pass; returns the units it completed. */
    virtual std::uint64_t runPass() = 0;

    /** Checks and modelled outputs once the timed passes are done. */
    virtual void finish() = 0;

    virtual LayerInputs layerInputs() const = 0;

    Tally tally;
    bool ok = true;

    /** Host seconds of each segment of the last pass, in pass order. */
    std::vector<double> segment_s;

  protected:
    /**
     * Run @p f as one segment of a pass (one cell, one sweep or one
     * serving run), timed and marked with a benchmark span.
     */
    template <typename F>
    auto
    segment(const std::string &name, F &&f)
    {
        const tel::Span span("bench", name);
        const Clock::time_point t0 = Clock::now();
        auto r = f();
        segment_s.push_back(secondsSince(t0));
        return r;
    }

    void
    check(bool cond, const std::string &what)
    {
        if (!cond) {
            ok = false;
            std::printf("CHECK FAILED: %s\n", what.c_str());
        }
    }

    /** Every pass of one seed must simulate identically. */
    void
    checkRepeat(std::uint64_t fp, const char *what)
    {
        if (!first_fp_) {
            first_fp_ = fp;
            return;
        }
        check(*first_fp_ == fp,
              std::string(what) + " differs between passes of one seed");
    }

  private:
    std::optional<std::uint64_t> first_fp_;
};

// ---- fig-grid and gpm-wide ------------------------------------------------

constexpr PlatformKind kFigPlatforms[] = {
    PlatformKind::CapFs, PlatformKind::CapMm, PlatformKind::Gpm,
    PlatformKind::Gpufs};

/** The canonical config at @p lanes executor lanes, chosen the way
 *  every bench driver chooses it: through GPM_EXEC_WORKERS. */
gpm::SimConfig
configAtLanes(int lanes)
{
    setenv("GPM_EXEC_WORKERS", std::to_string(lanes).c_str(), 1);
    return gpm::bench::benchConfig();
}

/** Fingerprint of the GPM cells of @p cells/@p results, in row order. */
std::uint64_t
gpmColumnFingerprint(const std::vector<gpm::bench::BenchCell> &cells,
                     const std::vector<gpm::WorkloadResult> &results)
{
    std::uint64_t h = gpm::kFnvOffset;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (cells[i].kind == PlatformKind::Gpm)
            h = fingerprint(results[i], h);
    return h;
}

class CellGrid : public Workload
{
  public:
    /** @p all_platforms: the Fig 9 matrix; otherwise its GPM column. */
    CellGrid(std::uint64_t seed, int lanes, bool all_platforms)
        : seed_(seed), lanes_(lanes), all_platforms_(all_platforms)
    {
    }

    void
    prepare() override
    {
        cfg_ = configAtLanes(lanes_);
        cells_.clear();
        for (const Bench b : gpm::bench::kAllBenches)
            for (const PlatformKind k : kFigPlatforms)
                if (all_platforms_ || k == PlatformKind::Gpm)
                    cells_.push_back({b, k, seed_});
    }

    void
    warmUp() override
    {
        gpm::bench::runBench(Bench::Srad, PlatformKind::Gpm, cfg_, seed_);
    }

    std::uint64_t
    runPass() override
    {
        std::vector<gpm::WorkloadResult> results;
        results.reserve(cells_.size());
        std::uint64_t bad = 0;
        for (const gpm::bench::BenchCell &c : cells_) {
            const std::string name = std::string("cell/") +
                                     gpm::bench::benchKey(c.b) + "/" +
                                     gpm::bench::platformKey(c.kind);
            results.push_back(segment(name, [&] {
                return gpm::bench::runBench(c.b, c.kind, cfg_, c.seed);
            }));
            // An unsupported cell (GPUfs x fine-grain) is expected and
            // still verified; only a failed output check counts.
            if (!results.back().verified) {
                ++bad;
                check(false, name + " did not verify");
            }
        }
        tally.add(cells_.size(), bad);
        std::uint64_t fp = gpm::kFnvOffset;
        for (const gpm::WorkloadResult &r : results)
            fp = fingerprint(r, fp);
        checkRepeat(fp, "cell fingerprint");
        if (results_.empty())
            results_ = std::move(results);
        return cells_.size();
    }

    void
    finish() override
    {
        std::uint64_t fp = gpm::kFnvOffset;
        for (const gpm::WorkloadResult &r : results_)
            fp = fingerprint(r, fp);
        const std::uint64_t gpm_fp = gpmColumnFingerprint(cells_, results_);
        std::printf("fingerprint cells: %s\n", hex(fp).c_str());
        std::printf("fingerprint gpm-column: %s\n", hex(gpm_fp).c_str());
        if (all_platforms_)
            reportFig9();
        else
            checkAgainstOneLane(gpm_fp);
    }

    LayerInputs
    layerInputs() const override
    {
        LayerInputs in;
        in.lanes = lanes_;
        return in;
    }

  private:
    const gpm::WorkloadResult &
    result(Bench b, PlatformKind k) const
    {
        for (std::size_t i = 0; i < cells_.size(); ++i)
            if (cells_[i].b == b && cells_[i].kind == k)
                return results_[i];
        throw std::logic_error("cell not in grid");
    }

    void
    reportFig9()
    {
        std::vector<SpeedupRow> rows;
        std::printf("fig9 GPM over CAP-fs (modelled comparableNs; paper "
                    "values are in-sample: the model was calibrated on "
                    "them)\n");
        std::printf("  %-6s %9s %9s %11s\n", "row", "ours", "paper",
                    "ours/paper");
        for (const Bench b : gpm::bench::kAllBenches) {
            const gpm::WorkloadResult &capfs = result(b, PlatformKind::CapFs);
            const gpm::WorkloadResult &g = result(b, PlatformKind::Gpm);
            const double gpm_ns = gpm::bench::comparableNs(b, g);
            check(capfs.supported && g.supported && gpm_ns > 0.0,
                  std::string("fig9 row ") + gpm::bench::benchKey(b) +
                      " has no GPM/CAP-fs pair");
            if (!(gpm_ns > 0.0))
                continue;
            const std::string key = gpm::bench::benchKey(b);
            SpeedupRow r{key, gpm::bench::comparableNs(b, capfs) / gpm_ns,
                         paperFig9Speedup(key)};
            std::printf("  %-6s %8.2fx %8.2fx %11.3f\n", key.c_str(), r.ours,
                        r.paper, r.ours / r.paper);
            rows.push_back(r);
        }
        if (!rows.empty())
            std::printf("fig9_err_factor: %.6f factor (in-sample, geomean "
                        "over %zu rows)\n",
                        errFactor(rows), rows.size());
    }

    /** gpm-wide's modelled output must equal the sequential engine's. */
    void
    checkAgainstOneLane(std::uint64_t wide_fp)
    {
        const gpm::SimConfig one = configAtLanes(1);
        std::vector<gpm::WorkloadResult> ref;
        for (const gpm::bench::BenchCell &c : cells_)
            ref.push_back(gpm::bench::runBench(c.b, c.kind, one, c.seed));
        const std::uint64_t ref_fp = gpmColumnFingerprint(cells_, ref);
        std::printf("fingerprint gpm-column at 1 lane: %s\n",
                    hex(ref_fp).c_str());
        check(ref_fp == wide_fp, "gpm-wide fingerprint " + hex(wide_fp) +
                                     " != 1-lane GPM column " + hex(ref_fp));
    }

    std::uint64_t seed_;
    int lanes_;
    bool all_platforms_;
    gpm::SimConfig cfg_;
    std::vector<gpm::bench::BenchCell> cells_;
    std::vector<gpm::WorkloadResult> results_;  ///< the first pass
};

// ---- torture ---------------------------------------------------------------

class Torture : public Workload
{
  public:
    explicit Torture(std::uint64_t seed) : seed_(seed) {}

    void
    prepare() override
    {
        sweeps_.clear();
        // Five eviction seeds per benchmark seed; seed 1 keeps the
        // pinned default axis {1..5}.
        std::vector<std::uint64_t> seeds;
        for (std::uint64_t k = 0; k < 5; ++k)
            seeds.push_back(seed_ * 5 - 4 + k);
        const std::pair<const char *, std::vector<std::string>> axes[] = {
            {"default", {}}, {"serve", {"serve"}}, {"pmheap", {"pmheap"}}};
        for (const auto &[label, workloads] : axes) {
            gpm::TortureConfig cfg;
            cfg.workloads = workloads;
            cfg.seeds = seeds;
            cfg.jobs = kJobs;
            cfg.applyDefaults();
            Sweep sw{label, {}, gpm::TortureRunner::enumerate(cfg).size(),
                     0};
            // Invariant and domain are the outermost axes of the
            // enumeration, so one run per (invariant, domain), in order
            // and concatenated, is the whole sweep in its canonical
            // order. At one worker it runs the scenarios in the order one
            // run would; the shorter segments give the fastest-segment
            // rule more chances at a quiet host.
            for (const std::string &inv : cfg.workloads)
                for (const gpm::PersistDomain d : cfg.domains) {
                    gpm::TortureConfig part = cfg;
                    part.workloads = {inv};
                    part.domains = {d};
                    sw.parts.push_back(std::move(part));
                }
            sweeps_.push_back(std::move(sw));
        }
    }

    void
    warmUp() override
    {
        // A two-scenario sweep pays the sweep engine's first-use costs.
        gpm::TortureConfig warm = sweeps_.front().parts.front();
        warm.domains.resize(1);
        warm.specs.resize(1);
        warm.seeds.resize(1);
        gpm::TortureRunner::run(warm);
    }

    std::uint64_t
    runPass() override
    {
        std::uint64_t units = 0;
        std::uint64_t fp = gpm::kFnvOffset;
        ddio_ = not_fired_ = 0;
        for (Sweep &s : sweeps_) {
            gpm::TortureReport rep;
            for (const gpm::TortureConfig &part : s.parts) {
                const gpm::TortureReport r = segment(
                    std::string("sweep/") + s.label + "/" +
                        part.workloads.front() + "/" +
                        gpm::persistDomainName(part.domains.front()),
                    [&] { return gpm::TortureRunner::run(part); });
                rep.results.insert(rep.results.end(), r.results.begin(),
                                   r.results.end());
            }
            check(rep.results.size() == s.scenarios,
                  std::string("torture ") + s.label + " swept " +
                      std::to_string(rep.results.size()) + " of " +
                      std::to_string(s.scenarios) + " scenarios");
            const std::size_t bad = rep.violations();
            check(bad == 0, std::string("torture ") + s.label + ": " +
                                std::to_string(bad) + " violations");
            tally.add(rep.results.size(), bad);
            units += rep.results.size();
            s.signature = rep.signature();
            fp = gpm::fnv1aU64(s.signature, fp);
            const auto counts = rep.classCounts();
            ddio_ += counts[static_cast<int>(gpm::OutcomeClass::DdioTrap)];
            not_fired_ += counts[static_cast<int>(gpm::OutcomeClass::NotFired)];
        }
        checkRepeat(fp, "torture signatures");
        return units;
    }

    void
    finish() override
    {
        // Seed 1 reproduces the tier-1 golden pins; the pins are owned
        // there, so a mismatch is reported here, not failed.
        const char *pins[] = {"9ee61627f2412d97", "51e4385dd62be355",
                              "4e1bb7cc16af2cc3"};
        for (std::size_t i = 0; i < sweeps_.size(); ++i) {
            const std::string sig = hex(sweeps_[i].signature);
            std::printf("torture %-7s signature: %s", sweeps_[i].label,
                        sig.c_str());
            if (seed_ == 1)
                std::printf("  (pin %s: %s)", pins[i],
                            sig == pins[i] ? "match" : "MISMATCH");
            std::printf("\n");
        }
    }

    LayerInputs
    layerInputs() const override
    {
        LayerInputs in;
        in.jobs = kJobs;
        in.ddio_trap = static_cast<double>(ddio_);
        in.not_fired = static_cast<double>(not_fired_);
        return in;
    }

  private:
    /**
     * One sweep worker. The scenarios copy whole pool images, so they
     * are bound by memory bandwidth; two workers share it with each
     * other and with the host's other tenants, and their combined rate
     * swung 1.6-2.6x the one-worker rate between runs on a 4-core VM.
     */
    static constexpr int kJobs = 1;

    struct Sweep {
        const char *label;
        std::vector<gpm::TortureConfig> parts;  ///< per (invariant, domain)
        std::size_t scenarios;  ///< as enumerated at set-up
        std::uint64_t signature;
    };

    std::uint64_t seed_;
    std::vector<Sweep> sweeps_;
    std::uint64_t ddio_ = 0;
    std::uint64_t not_fired_ = 0;
};

// ---- serve -----------------------------------------------------------------

class Serve : public Workload
{
  public:
    explicit Serve(std::uint64_t seed)
    {
        cfg_.shards = 2;
        cfg_.n_sets = 1u << 12;
        cfg_.clients = 512;
        cfg_.requests = kRequests;
        cfg_.batch_max = 256;
        cfg_.batch_deadline_ns = 20000;
        cfg_.queue_depth = 1024;
        cfg_.think_ns = 2000;
        cfg_.get_ratio = 0.50;
        cfg_.del_ratio = 0.05;
        cfg_.dist = gpm::KeyDistKind::Zipfian;
        cfg_.key_space = 1u << 16;
        cfg_.value_bytes_min = 16;
        cfg_.value_bytes_max = 4096;
        cfg_.seed = seed;
        cfg_.jobs = 1;
        cfg_.exec_workers = 1;
    }

    void
    prepare() override
    {
        engine_ = std::make_unique<gpm::ServiceEngine>(cfg_);
    }

    void
    release() override
    {
        engine_.reset();
    }

    std::uint64_t
    runPass() override
    {
        const gpm::ServeReport rep = segment("serve-run", [&] {
            gpm::ServeReport r = engine_->run();
            engine_.reset();
            return r;
        });
        const std::uint64_t bad = serveFailures(rep, kRequests);
        check(bad == 0, std::to_string(rep.oracle_failures) +
                            " oracle failures, " +
                            std::to_string(rep.ops_acked) + " of " +
                            std::to_string(kRequests) + " requests acked");
        tally.add(kRequests, bad);
        checkRepeat(gpm::fnv1aU64(rep.ack_signature, rep.signature()),
                    "serve signatures");
        if (!first_)
            first_ = rep;
        return rep.ops_acked;
    }

    void
    finish() override
    {
        if (!first_)
            return;
        const gpm::ServeReport &r = *first_;
        const double level = tailLevel(r.latency.count, 0.99);
        std::printf("serve signature: %s  ack_signature: %s\n",
                    hex(r.signature()).c_str(), hex(r.ack_signature).c_str());
        std::printf("serve_vmops: %.6f Mops (virtual)\n", r.throughput_mops);
        std::printf("serve_p50_us: %.3f us (virtual, %" PRIu64 " samples)\n",
                    r.latency.p50() / 1e3, r.latency.count);
        std::printf("serve_p99_us: %.3f us (virtual, p%.2f, %.0f samples "
                    "beyond)\n",
                    r.latency.quantile(level) / 1e3, level * 100.0,
                    std::floor(static_cast<double>(r.latency.count) *
                               (1.0 - level)));
    }

    LayerInputs
    layerInputs() const override
    {
        LayerInputs in;
        in.serve = first_ ? &*first_ : nullptr;
        return in;
    }

  private:
    static constexpr std::uint64_t kRequests = 16384;

    gpm::ServeConfig cfg_;
    std::unique_ptr<gpm::ServiceEngine> engine_;
    std::optional<gpm::ServeReport> first_;
};

std::unique_ptr<Workload>
makeWorkload(const Options &opt)
{
    if (opt.workload == "fig-grid")
        return std::make_unique<CellGrid>(opt.seed, 1, true);
    if (opt.workload == "torture")
        return std::make_unique<Torture>(opt.seed);
    if (opt.workload == "serve")
        return std::make_unique<Serve>(opt.seed);
    if (opt.workload == "gpm-wide")
        return std::make_unique<CellGrid>(opt.seed, 4, false);
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

// ---- per-layer derivation ------------------------------------------------

/** Sum of span durations (or of @p f over spans) in milliseconds. */
double
sumMs(const SpanTree &t, const SpanTree::Pred &p,
      const std::function<double(std::size_t)> &f = {})
{
    double us = 0.0;
    for (const std::size_t i : t.select(p))
        us += f ? f(i) : t.at(i).dur_us;
    return us / 1e3;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.substr(0, prefix.size()) == prefix;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

const char *const kInvariants[] = {"kvs",        "db-insert", "db-update",
                                   "prefix-sum", "srad",      "serve",
                                   "pmheap"};

/**
 * Every per-layer metric, from one traced session covering @p passes
 * passes. Spans are host time; counts and times are per pass.
 */
std::vector<Metric>
layerMetrics(const tel::Session &s, const std::vector<tel::TraceEvent> &events,
             const LayerInputs &in, int passes, double overhead_frac)
{
    const SpanTree t(spansOf(events));
    const tel::MetricsSnapshot m = s.metrics.snapshot();
    const double per = 1.0 / passes;
    std::vector<Metric> out;
    const auto add = [&](std::string name, double v, const char *unit) {
        out.push_back({std::move(name), v, unit});
    };
    const auto counter = [&](const char *name) {
        return static_cast<double>(m.counter(name)) * per;
    };

    const SpanTree::Pred launch = isSpan("launch");
    const SpanTree::Pred cell = [](const SpanRec &r) {
        return r.cat == "bench" && startsWith(r.name, "cell/");
    };
    const SpanTree::Pred body = [](const SpanRec &r) {
        return r.cat == "block" && r.name != "replay";
    };
    const auto self = [&](std::size_t i) { return t.selfUs(i); };

    // harness
    for (const gpm::bench::BenchKey &k : gpm::bench::benchKeys()) {
        const std::string prefix = std::string("cell/") + k.key + "/";
        add(std::string("harness.cell_ms.") + k.key,
            sumMs(t,
                  [&](const SpanRec &r) {
                      return r.cat == "bench" && startsWith(r.name, prefix);
                  }) *
                per,
            "ms");
    }
    add("harness.outside_launch_ms",
        sumMs(t, cell, [&](std::size_t i) { return t.uncoveredUs(i, launch); }) *
            per,
        "ms");
    const double sweep_ms = sumMs(t, [](const SpanRec &r) {
        return r.cat == "bench" && startsWith(r.name, "sweep/");
    });
    const double scenario_ms = sumMs(t, isSpan("scenario"));
    add("harness.sweep_busy_frac", ratio(scenario_ms, in.jobs * sweep_ms),
        "frac");
    add("harness.sweep_idle_ms",
        std::max(0.0, in.jobs * sweep_ms - scenario_ms) * per, "ms");

    // gpusim / platform
    const std::vector<std::size_t> launches = t.select(launch);
    std::vector<double> launch_us;
    double launch_total_us = 0.0;
    for (const std::size_t i : launches) {
        launch_us.push_back(t.at(i).dur_us);
        launch_total_us += t.at(i).dur_us;
    }
    add("gpusim.launches", static_cast<double>(launches.size()) * per,
        "count");
    add("gpusim.launch_overhead_ms", sumMs(t, launch, self) * per, "ms");
    add("gpusim.launch_us_p50", tailPercentile(launch_us, 0.50).value, "us");
    add("gpusim.launch_us_p99", tailPercentile(launch_us, 0.99).value, "us");
    add("gpusim.thread_body_ms", sumMs(t, body, self) * per, "ms");
    add("gpusim.coalesce_ms", sumMs(t, isSpan("flush")) * per, "ms");
    add("gpusim.coalesce_ratio",
        ratio(static_cast<double>(m.counter("exec.flushed_accesses")),
              static_cast<double>(m.counter("exec.coalesced_line_txns"))),
        "ratio");
    add("gpusim.host_ns_per_thread",
        ratio(launch_total_us * 1e3,
              static_cast<double>(m.counter("sim.threads"))),
        "ns");

    // gpusim block engine
    add("gpusim.replay_ms", sumMs(t, isSpan("block", "replay"), self) * per,
        "ms");
    add("gpusim.blocks_replayed", counter("exec.blocks_replayed"), "count");
    add("gpusim.lane_busy_frac",
        ratio(sumMs(t, body), in.lanes * launch_total_us / 1e3), "frac");

    // memsim
    add("memsim.line_commit_ms", sumMs(t, isSpan("line-commit")) * per, "ms");
    add("memsim.write_txns", counter("nvm.observed_write_txns"), "count");
    const double rnd =
        static_cast<double>(m.counter("nvm.observed_random_bytes"));
    add("memsim.random_frac",
        ratio(rnd,
              rnd +
                  static_cast<double>(
                      m.counter("nvm.observed_seq_aligned_bytes") +
                      m.counter("nvm.observed_seq_unaligned_bytes"))),
        "frac");

    // pmem
    add("pmem.crash_ms", sumMs(t, isSpan("crash")) * per, "ms");
    add("pmem.crash_sub_extents", counter("pool.crash_sub_extents"), "count");
    add("pmem.extents_drained", counter("pool.extents_drained"), "count");
    add("pmem.extents_merged", counter("pool.extents_merged"), "count");

    // gpm (libGPM)
    add("gpm.checkpoint_ms", sumMs(t, isSpan("checkpoint")) * per, "ms");
    add("gpm.checkpoint_bytes", counter("checkpoint.bytes"), "bytes");
    add("gpm.hcl_appends", counter("log.hcl_appends"), "count");
    add("gpm.conv_appends", counter("log.conv_appends"), "count");

    // workloads: outermost recovery spans (recoveries nest)
    const SpanTree::Pred recovery = isSpan("recovery");
    std::size_t recoveries = 0;
    double recovery_us = 0.0;
    for (const std::size_t i : t.select(recovery))
        if (!t.hasAncestor(i, recovery)) {
            ++recoveries;
            recovery_us += t.at(i).dur_us;
        }
    add("workloads.recovery_ms", recovery_us / 1e3 * per, "ms");
    add("workloads.recovery_invocations",
        static_cast<double>(recoveries) * per, "count");

    // crashtest: scenario spans are named "<invariant>/<domain>/..."
    for (const char *inv : kInvariants) {
        const std::string prefix = std::string(inv) + "/";
        std::vector<double> ms;
        for (const std::size_t i : t.select(isSpan("scenario")))
            if (startsWith(t.at(i).name, prefix))
                ms.push_back(t.at(i).dur_us / 1e3);
        add(std::string("crashtest.scenario_ms.") + inv, median(ms), "ms");
    }
    add("crashtest.ddio_trap", in.ddio_trap, "count");
    add("crashtest.not_fired", in.not_fired, "count");

    // pmheap
    add("pmheap.tx_ms",
        sumMs(t,
              [](const SpanRec &r) {
                  return r.cat == "pmheap" &&
                         (r.name == "tx_begin" || r.name == "tx_commit");
              }) *
            per,
        "ms");
    add("pmheap.map_batch_ms", sumMs(t, isSpan("pmheap", "map_batch")) * per,
        "ms");
    add("pmheap.tx_commits", counter("pmheap.tx_commit"), "count");
    add("pmheap.allocs", counter("pmheap.alloc"), "count");

    // service
    const gpm::ServeReport *sr = in.serve;
    add("service.loop_ms",
        sumMs(t, isSpan("serve", "service_run"),
              [&](std::size_t i) { return t.uncoveredUs(i, launch); }) *
            per,
        "ms");
    add("service.batches", sr ? static_cast<double>(sr->batches) : 0.0,
        "count");
    add("service.mean_batch_ops", sr ? sr->batch_size.mean() : 0.0, "ops");
    add("service.deferred_conflicts",
        sr ? static_cast<double>(sr->deferred_conflicts) : 0.0, "count");
    add("service.deadline_close_frac",
        sr ? ratio(static_cast<double>(sr->deadline_closes),
                   static_cast<double>(sr->batches))
           : 0.0,
        "frac");
    add("service.blocked_admissions",
        sr ? static_cast<double>(sr->blocked_admissions) : 0.0, "count");

    // telemetry
    add("telemetry.overhead_frac", overhead_frac, "frac");
    return out;
}

/**
 * Write the traced passes' spans once, at the end of the run, as a
 * Chrome trace (Perfetto loads it). Block, warp-flush and line-commit
 * spans number in the hundreds of thousands per pass; their totals are
 * in the per-layer metrics, and gpmtrace shows them for one cell, so
 * the file keeps launches and everything coarser.
 */
void
writeSpanFile(const std::vector<tel::TraceEvent> &events, const Options &opt)
{
    std::filesystem::create_directories(kOutDir);
    const std::string path =
        std::string(kOutDir) + "/" + opt.workload + ".trace.json";
    std::ofstream os(path);
    tel::JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    std::size_t kept = 0;
    for (const tel::TraceEvent &ev : events) {
        const std::string_view cat = ev.cat;
        if (cat == "block" || cat == "flush" || cat == "line-commit")
            continue;
        ++kept;
        w.beginObject();
        w.field("name", ev.name);
        w.field("cat", cat);
        w.field("ph", std::string_view(&ev.ph, 1));
        w.field("ts", ev.ts_us);
        if (ev.ph == 'X')
            w.field("dur", ev.dur_us);
        w.field("pid", std::uint64_t(1));
        w.field("tid", std::uint64_t(ev.tid));
        if (!ev.args.empty()) {
            w.key("args");
            w.rawValue(ev.args);
        }
        w.endObject();
    }
    w.endArray();
    w.field("displayTimeUnit", std::string_view("ms"));
    w.endObject();
    os << "\n";
    if (!os)
        throw std::runtime_error("cannot write span file " + path);
    std::printf("span file: %s (%zu of %zu events)\n", path.c_str(), kept,
                events.size());
}

/** Least host time one set-up sample covers; see setupSample(). */
constexpr double kSetupSampleS = 2e-3;

/**
 * One set-up sample: the fastest of back-to-back set-ups that together
 * take at least kSetupSampleS (at least two), by the same rule as the
 * fastest segment: an interrupt or a preemption only ever adds time.
 * Releases are not timed.
 */
double
setupSample(Workload &w)
{
    double total = 0.0;
    double fastest = 0.0;
    int reps = 0;
    do {
        w.release();
        const Clock::time_point t0 = Clock::now();
        w.prepare();
        const double dt = secondsSince(t0);
        fastest = reps == 0 ? dt : std::min(fastest, dt);
        total += dt;
        ++reps;
    } while (total < kSetupSampleS || reps < 2);
    return fastest;
}

/**
 * Untimed: one set-up and the warm-up unit. Then timed passes for
 * --seconds, each after one set-up sample. Samples spread over the run
 * see the same phases of a shared host as the passes do; their median
 * is setup_s. Other tenants only ever add time, so each segment's
 * fastest pass is the closest reading of the program's own cost.
 */
void
timedRun(Workload &w, const Options &opt, Outcome &out)
{
    w.prepare();
    w.warmUp();
    std::vector<double> setup_s;
    std::vector<double> pass_s;
    std::vector<std::vector<double>> seg_s;  ///< [segment][pass]
    std::uint64_t units = 0;
    const Clock::time_point start = Clock::now();
    do {
        setup_s.push_back(setupSample(w));
        w.segment_s.clear();
        const Clock::time_point t0 = Clock::now();
        units = w.runPass();
        pass_s.push_back(secondsSince(t0));
        if (seg_s.empty())
            seg_s.resize(w.segment_s.size());
        if (w.segment_s.size() != seg_s.size())
            throw std::logic_error("a pass changed its segment count");
        for (std::size_t j = 0; j < seg_s.size(); ++j)
            seg_s[j].push_back(w.segment_s[j]);
        std::printf("pass %zu: %" PRIu64 " units in %.4f s, peak rss "
                    "%.1f MiB\n",
                    pass_s.size(), units, pass_s.back(), peakRssMiB());
    } while (secondsSince(start) + pass_s.back() <= opt.seconds);

    w.finish();
    const double rate = static_cast<double>(units) / fastestPassSeconds(seg_s);
    const double fastest = *std::min_element(pass_s.begin(), pass_s.end());
    std::printf("host_units_per_s: %.6g 1/s (%" PRIu64 " units per pass, "
                "%zu segments, %zu passes; fastest whole pass %.4f s = "
                "%.6g 1/s, median pass %.4f s)\n",
                rate, units, seg_s.size(), pass_s.size(), fastest,
                static_cast<double>(units) / fastest, median(pass_s));
    const double setup = median(setup_s);
    std::printf("setup_s: %.6g s (median of %zu samples)\n", setup,
                setup_s.size());
    std::printf("peak_rss_mib: %.2f MiB\n", peakRssMiB());
    out.metrics = {
        {"host_units_per_s", rate, "1/s"},
        {"setup_s", setup, "s"},
        {"peak_rss_mib", peakRssMiB(), "MiB"},
    };
}

/**
 * Traced: passes alternate between untraced and traced (session
 * installed), so drift in the host's speed hits both alike; the ratio
 * of the two totals is the tracing overhead. Set-up runs untraced.
 */
void
tracedRun(Workload &w, const Options &opt, Outcome &out)
{
    tel::ScopedSession session;
    const auto pass = [&](bool traced) {
        tel::Session::install(nullptr);
        w.release();
        w.prepare();
        w.segment_s.clear();
        if (traced)
            tel::Session::install(&*session);
        const Clock::time_point t0 = Clock::now();
        w.runPass();
        const double dt = secondsSince(t0);
        tel::Session::install(nullptr);
        return dt;
    };

    // The first pass grows the heap to its plateau; it only sizes the
    // run. A traced pass costs more; keep the run inside --seconds.
    const double warm = pass(false);
    const int passes =
        std::clamp(static_cast<int>(opt.seconds * 0.3 / warm), 1, 4);
    double untraced = 0.0;
    double traced = 0.0;
    for (int i = 0; i < passes; ++i) {
        untraced += pass(false);
        traced += pass(true);
    }
    const std::vector<tel::TraceEvent> events = session->trace.collect();
    out.metrics = layerMetrics(*session, events, w.layerInputs(), passes,
                               traced / untraced - 1.0);
    writeSpanFile(events, opt);
    w.finish();
    std::printf("traced passes: %d (untraced %.3f s, traced %.3f s)\n",
                passes, untraced, traced);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> kNames = {"fig-grid", "torture",
                                                    "serve", "gpm-wide"};
    return kNames;
}

Outcome
runWorkload(const Options &opt)
{
    // The media backend is part of what is measured: pin the default.
    unsetenv("GPM_MEDIA");
    const std::unique_ptr<Workload> w = makeWorkload(opt);
    Outcome out;
    if (opt.trace)
        tracedRun(*w, opt, out);
    else
        timedRun(*w, opt, out);
    out.tally = w->tally;
    out.correct = w->ok && w->tally.failed == 0;
    std::printf("fail_ratio: %.6g ratio (%" PRIu64 " of %" PRIu64
                " units failed)\n",
                out.tally.ratio(), out.tally.failed, out.tally.attempted);
    return out;
}

} // namespace perfbench
