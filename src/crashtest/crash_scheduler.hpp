/**
 * @file
 * Deterministic crash-point enumeration for the torture matrix.
 *
 * A CrashSpec is an *abstract* crash point: either a fraction of the
 * doomed kernel's thread phases, or an exact persist-boundary event
 * (the Nth system-scope fence, just before or just after it persists;
 * or the Nth PM store). Fractions probe bulk mid-kernel state;
 * boundary events pin the crash to the exact instants the recovery
 * protocols care about — between an HCL chunk store and its fence,
 * between a log-tail bump and the fence that seals it, between a
 * checkpoint copy and its flip.
 *
 * Specs are workload-agnostic; materialize() resolves one against a
 * concrete kernel's thread-phase total. The scheduler enumerates a
 * grid of specs and parses the CLI grammar:
 *
 *     frac:<f>            crash after f * total thread phases
 *     before-fence:<n>    just before the nth fence persists
 *     after-fence:<n>     just after the nth fence persisted
 *     after-store:<n>     just after the nth PM store landed
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/kernel.hpp"

namespace gpm {

/** One abstract crash point of the matrix. */
struct CrashSpec {
    enum class Kind : std::uint8_t {
        Fraction,     ///< after frac * total thread phases
        BeforeFence,  ///< just before the nth system fence persists
        AfterFence,   ///< just after the nth system fence persisted
        AfterStore,   ///< just after the nth PM store landed
    };

    Kind kind = Kind::Fraction;
    double fraction = 0.5;    ///< Fraction only
    std::uint64_t count = 1;  ///< event ordinal (1-based), events only

    /** Stable label, identical to the parse grammar. */
    std::string label() const;

    /**
     * Resolve against a kernel whose full run executes
     * @p total_thread_phases thread phases. Event specs are already
     * concrete; fractions become afterThreadPhases(frac * total).
     */
    CrashPoint materialize(std::uint64_t total_thread_phases) const;
};

/** The crash-point grid swept by the matrix. */
struct CrashGrid {
    std::vector<double> fractions;             ///< frac:<f> points
    std::vector<std::uint64_t> fence_counts;   ///< before+after each
    std::vector<std::uint64_t> store_counts;   ///< after-store:<n>

    /**
     * Default grid: early/mid/late fractions plus the first fences
     * (both sides — the just-before/just-after persist boundaries)
     * and an early store. 8 specs.
     */
    static CrashGrid defaults();

    /**
     * Scale grid for 10k+ scenario sweeps (gpmtorture --scale): every
     * 5% thread-phase fraction, the first three fences (both sides)
     * and five store ordinals. 30 specs; with the default workload,
     * domain, seed and survival axes widened to 12 seeds this yields
     * 10800 scenarios.
     */
    static CrashGrid fine();
};

/** Enumerates and parses crash specs. */
class CrashScheduler
{
  public:
    /** All specs of @p grid, in deterministic order. */
    static std::vector<CrashSpec> enumerate(const CrashGrid &grid);

    /** Parse one grammar token; throws FatalError on bad syntax. */
    static CrashSpec parse(const std::string &token);

    /** Parse a comma-separated list of grammar tokens. */
    static std::vector<CrashSpec> parseList(const std::string &tokens);
};

} // namespace gpm
