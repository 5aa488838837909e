/**
 * @file
 * The crash-matrix torture runner: sweep every registered workload's
 * recovery invariant across crash points x eviction seeds x persist
 * domains, classify each scenario, and report a scenario x outcome
 * table plus a determinism signature.
 *
 * Classification policy (what counts as a violation):
 *
 *  - An exception anywhere in the scenario is a violation: recovery
 *    must never panic, whatever the durable state looks like.
 *  - A strict-invariant failure in a fence-persisting domain
 *    (mc-durable, llc-durable) is a violation: the recovery
 *    protocols are designed to be correct there.
 *  - A strict failure under llc-volatile is the *expected* DDIO trap
 *    (section 6.1): fences order writes but persist nothing, so data
 *    loss is the correct model outcome. Recorded, not a violation.
 *  - Pool-counter inconsistencies are violations: a scenario must
 *    crash exactly once; zero line survival must leave zero
 *    survivors; under eADR nothing is ever pending, so the 128 B
 *    tearing loop must never run.
 *
 * The report's signature() folds every scenario's outcome (including
 * recovered-state hashes) into one FNV-1a value: two sweeps of the
 * same config must produce identical signatures, byte for byte.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "crashtest/crash_scheduler.hpp"
#include "crashtest/recovery_invariant.hpp"

namespace gpm {

/** One cell of the matrix. */
struct TortureScenario {
    std::string workload;
    PersistDomain domain = PersistDomain::McDurable;
    CrashSpec spec;
    std::uint64_t seed = 1;
    double survive_prob = 0.0;

    /** Media backend (copied from TortureConfig). Not an axis and not
     *  folded into key()/signature(): media models are timing-only, so
     *  every backend yields bit-identical functional outcomes. */
    MediaConfig media{};
};

/** How a scenario is classified. */
enum class OutcomeClass : std::uint8_t {
    StrictOk,   ///< recovered state passed the strict invariant
    DdioTrap,   ///< strict failed under llc-volatile (expected loss)
    NotFired,   ///< crash point beyond the kernel; commit state OK
    Violation,  ///< recovery bug: see TortureResult::detail
};

const char *outcomeClassName(OutcomeClass c);

/** One swept scenario with its outcome and classification. */
struct TortureResult {
    TortureScenario scenario;
    TortureOutcome outcome;
    OutcomeClass cls = OutcomeClass::Violation;
    std::string detail;  ///< why a violation is a violation

    /**
     * Scenario key, e.g. "kvs/mc-durable/frac:0.50/s3/p0.50".
     * Memoized: built once per result (the span label and signature()
     * both read it), cached for every later use.
     */
    const std::string &key() const;

  private:
    mutable std::string key_;  ///< lazily built from scenario
};

/** What to sweep. Empty vectors mean "the default axis". */
struct TortureConfig {
    std::vector<std::string> workloads;   ///< default: all registered
    std::vector<PersistDomain> domains;   ///< default: all three
    std::vector<CrashSpec> specs;         ///< default: CrashGrid grid
    std::vector<std::uint64_t> seeds;     ///< default: {1..5}
    std::vector<double> survive_probs;    ///< default: {0.0, 0.5}

    /**
     * Sweep workers (0 = one per hardware thread). Every scenario
     * constructs a private Machine + PmPool and results land in
     * canonical slots, so the report — order, counts, signature — is
     * bit-identical at any worker count (see DESIGN.md "Sweep
     * engine"); only host wall-clock changes.
     */
    int jobs = 1;

    /**
     * Media backend (SimConfig::media) applied to every scenario's
     * Machine. Not an axis and never part of the signature: PmPool
     * owns functional durability, media models only price the traffic,
     * so a signature pinned under the default NVM backend must
     * reproduce under every other backend (CI sweeps all four and
     * diffs the signatures).
     */
    MediaConfig media{};

    /** Fill every empty axis with its default. */
    void applyDefaults();

    std::size_t scenarioCount() const;
};

/** The sweep's results. */
struct TortureReport {
    std::vector<TortureResult> results;

    std::size_t violations() const;

    /** All four class counts in one pass over the results. */
    std::array<std::size_t, 4> classCounts() const;

    /** One class's count (classCounts() when you need several). */
    std::size_t countOf(OutcomeClass c) const;

    /** Order-sensitive FNV-1a over every scenario outcome. */
    std::uint64_t signature() const;

    /** Full scenario x outcome table. */
    Table table() const;

    /** Per workload x domain classification counts. */
    Table summary() const;
};

/**
 * Apply the classification policy from the file header to @p r
 * (reads r.scenario + r.outcome, writes r.cls + r.detail). Exposed so
 * gpmcheck's witness replay classifies single scenarios with exactly
 * the torture matrix's policy.
 */
void classifyScenario(TortureResult &r);

/** Deterministically sweeps a TortureConfig. */
class TortureRunner
{
  public:
    /**
     * Flatten the five config axes into the canonical scenario order
     * (workload, domain, spec, seed, survive_prob — outermost first).
     * run() sweeps exactly this vector; report.results[i] is the
     * outcome of enumerate(cfg)[i].
     */
    static std::vector<TortureScenario> enumerate(
        const TortureConfig &cfg);

    /** Build one adapter per workload name (its crash reference
     *  included), then sweep enumerate(cfg) with every scenario and
     *  worker sharing those adapters read-only. */
    static TortureReport run(const TortureConfig &cfg);
};

} // namespace gpm
