/**
 * @file
 * gpmcheck grid driver: run every workload x persist-domain cell
 * under an attached PmEventRecorder, analyze each captured trace, and
 * (optionally) feed finding witnesses back to the torture machinery
 * to confirm them dynamically.
 *
 * A cell runs the workload's descriptor-armed crash entry point with
 * a crash point that never fires: the full clean execution streams
 * through the recorder, the pool still crashes once at the end (so
 * the trace carries a Crash event and the epoch model knows what was
 * pending), and recovery runs as it would after a real failure. The
 * analyzer then proves or refutes the persistency-ordering rules
 * over that single trace — no crash-point enumeration needed.
 *
 * Witness confirmation closes the loop: a finding's CrashSpec is
 * materialized exactly like a torture scenario (same classification
 * policy via classifyScenario), swept over a handful of seeds, and
 * marked Confirmed when any seed produces a VIOLATION — or, in the
 * llc-volatile domain, the DdioTrap class that domain maps
 * violations to.
 *
 * Cells are swept with the harness engine; results land in canonical
 * slots, so reports and signatures are bit-identical at any --jobs.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/table.hpp"
#include "crashtest/recovery_invariant.hpp"

namespace gpm {

/** One grid cell: a workload under one persist domain. */
struct CheckScenario {
    std::string workload;
    PersistDomain domain = PersistDomain::McDurable;

    /** "workload/domain" row key. */
    std::string key() const;
};

struct CheckConfig {
    std::vector<std::string> workloads;   ///< default: all registered
    std::vector<PersistDomain> domains;   ///< default: all three
    int jobs = 1;                         ///< sweep workers (0 = auto)

    std::uint64_t seed = 1;               ///< trace-capture seed
    bool confirm_witnesses = false;       ///< replay witnesses
    Severity confirm_floor = Severity::Warn;  ///< replay at/above

    /** Invariant factory; defaults to the torture registry
     *  (makeInvariant). The persistency-bug corpus plugs its own
     *  registry in here. */
    std::function<std::unique_ptr<RecoveryInvariant>(
        const std::string &)> factory;

    void applyDefaults();
};

/** One analyzed cell. */
struct CheckCell {
    CheckScenario scenario;
    AnalysisReport report;
    std::string error;  ///< nonempty: the cell threw

    /** Confirmation seeds witness replay sweeps, by survive prob. */
    static std::vector<std::uint64_t> witnessSeeds(double survive);
};

/** The whole grid's analysis. */
struct CheckReport {
    std::vector<CheckCell> cells;

    /** Findings at or above @p floor, across all cells. */
    std::size_t findingsAtLeast(Severity floor) const;

    /** Confirmed-witness count across all cells. */
    std::size_t confirmed() const;

    /** FNV over every cell's stream hash + findings hash: the
     *  determinism fingerprint (bit-identical at any --jobs). */
    std::uint64_t signature() const;

    /** Per-finding rows at or above @p floor. */
    Table table(Severity floor) const;

    /** Per-cell rollup: events, stores, epochs, findings by class. */
    Table summary() const;
};

/** Run the grid described by @p cfg. */
CheckReport runCheck(const CheckConfig &cfg);

/**
 * Replay one finding's witness against the torture classification
 * policy. Returns Confirmed / NotReproduced; `finding` must carry a
 * witness spec. Exposed for the corpus tests.
 */
WitnessStatus confirmWitness(
    const Finding &finding, const CheckScenario &scenario,
    const std::function<std::unique_ptr<RecoveryInvariant>(
        const std::string &)> &factory);

} // namespace gpm
