/**
 * @file
 * The benchmark's own derivations, kept apart from the drivers so the
 * unit tests can feed them synthetic inputs: order statistics and the
 * tail-percentile rule, the Fig 9 accuracy factor against the paper,
 * failure accounting, result fingerprints, and self time over a span
 * tree rebuilt from a telemetry trace.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "service/serve_engine.hpp"
#include "telemetry/trace.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

// ---- order statistics ----------------------------------------------------

/** Median of @p v (mean of the middle pair for even sizes); 0 if empty. */
double median(std::vector<double> v);

/**
 * Host time of one pass: the sum over a pass's segments of each
 * segment's fastest time across passes (@p seg_s[j] holds segment j's
 * time in every pass). Contention from other tenants of a shared host
 * only ever adds time, so a segment's fastest pass is the closest
 * reading of the program's own cost.
 */
double fastestPassSeconds(const std::vector<std::vector<double>> &seg_s);

/** A tail percentile read from a sample, with what lies beyond it. */
struct TailPick {
    double value = 0.0;
    double level = 0.0;      ///< the percentile actually reported, in [0, 1]
    std::size_t beyond = 0;  ///< samples strictly after it in sorted order
};

/**
 * The @p q percentile of @p v by nearest rank, lowered where needed so
 * that at least ten samples lie beyond it: the reported tail is never
 * set by fewer than ten observations. With fewer than eleven samples
 * no percentile qualifies, and the median is reported.
 */
TailPick tailPercentile(std::vector<double> v, double q);

/**
 * The highest percentile level not above @p q that keeps ten samples
 * beyond it in a population of @p n (the same rule, for histograms).
 */
double tailLevel(std::uint64_t n, double q);

// ---- accuracy against the paper ----------------------------------------

/** One Fig 9 row: our modelled GPM-over-CAP-fs speedup and the paper's. */
struct SpeedupRow {
    std::string row;
    double ours = 0.0;
    double paper = 0.0;
};

/**
 * Geometric mean over rows of max(ours/paper, paper/ours): the factor
 * by which a modelled speedup typically misses the paper's, 1.0 when
 * every row is exact. Over- and under-prediction count alike.
 */
double errFactor(const std::vector<SpeedupRow> &rows);

/**
 * The paper's Fig 9 GPM-over-CAP-fs speedups, one per row key of
 * gpm::bench::benchKeys() order, with quoted ranges taken at their
 * midpoint. These are the figures the model was calibrated on, so an
 * error computed against them is in-sample.
 */
double paperFig9Speedup(const std::string &row_key);

// ---- failure accounting -------------------------------------------------

/** Attempted and failed units of one run. */
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(std::uint64_t n, std::uint64_t bad)
    {
        attempted += n;
        failed += bad;
    }

    /** failed / attempted, 0 when nothing was attempted. */
    double ratio() const;
};

/**
 * Failed requests of one serving run of @p requests: responses that
 * contradicted the oracle, requests never acknowledged, and (after a
 * crash) a durable store that lost an acknowledged write.
 */
std::uint64_t serveFailures(const gpm::ServeReport &r,
                            std::uint64_t requests);

// ---- fingerprints -------------------------------------------------------

/** FNV-1a over every field of @p r, continuing from @p h. */
std::uint64_t fingerprint(const gpm::WorkloadResult &r, std::uint64_t h);

// ---- span trees -----------------------------------------------------------

/** One complete span, as read back from a trace. */
struct SpanRec {
    double ts_us = 0.0;
    double dur_us = 0.0;
    std::uint32_t tid = 0;
    std::string cat;
    std::string name;

    double end() const { return ts_us + dur_us; }
};

/** Copy the complete ('X') events out of a trace. */
std::vector<SpanRec> spansOf(const std::vector<gpm::telemetry::TraceEvent> &ev);

/**
 * Spans arranged by causality. On one thread a span's parent is the
 * innermost span that encloses it. A `block` span that starts a
 * thread's stack inside a `launch` on another thread (a block on an
 * executor lane) is parented to that launch.
 */
class SpanTree
{
  public:
    using Pred = std::function<bool(const SpanRec &)>;

    explicit SpanTree(std::vector<SpanRec> spans);

    std::size_t size() const { return spans_.size(); }
    const SpanRec &at(std::size_t i) const { return spans_[i]; }
    int parent(std::size_t i) const { return parent_[i]; }

    /**
     * Duration of span @p i minus the part of its interval covered by
     * its nearest descendants matching @p p (a matching span hides its
     * own subtree). With the default predicate those are its children,
     * and the result is its self time.
     */
    double uncoveredUs(std::size_t i, const Pred &p = {}) const;

    /** Self time of span @p i: its duration minus its children's cover. */
    double selfUs(std::size_t i) const { return uncoveredUs(i); }

    /** True when some proper ancestor of @p i matches @p p. */
    bool hasAncestor(std::size_t i, const Pred &p) const;

    /** Indices of every span matching @p p, in start order. */
    std::vector<std::size_t> select(const Pred &p) const;

  private:
    void collectCover(std::size_t i, const Pred &p,
                      std::vector<std::pair<double, double>> &out) const;

    std::vector<SpanRec> spans_;
    std::vector<int> parent_;
    std::vector<std::vector<std::size_t>> children_;
};

/** Predicate matching spans of category @p cat (and name @p name if set). */
SpanTree::Pred isSpan(std::string cat, std::string name = {});

} // namespace perfbench
