/**
 * @file
 * Crash-scenario grid for the CrashReference tests (test_kvs, test_db,
 * test_native): every persist domain of the torture matrix, torn
 * (survive 0.5) and clean (survive 0) crashes, a crash point that
 * never fires, and two eviction seeds. It yields durable images that
 * equal a reference image and images that do not (the llc-volatile
 * DDIO trap, torn lines), so a state hash that skipped hashing the
 * unequal ones fails the tests.
 */
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gpusim/kernel.hpp"
#include "platform/platform_kind.hpp"

namespace gpm {

/** One crash scenario: how to build the Machine, where to crash. */
struct CrashGridCell {
    PlatformKind kind = PlatformKind::Gpm;
    bool open_persist_window = true;  ///< false: llc-volatile
    double survive_prob = 0.0;
    CrashPoint point;
    std::uint64_t seed = 1;
    std::string label;
};

/** The grid over a doomed kernel of @p phases thread phases. */
inline std::vector<CrashGridCell>
crashHashGrid(std::uint64_t phases)
{
    struct Domain {
        const char *name;
        PlatformKind kind;
        bool window;
    };
    const Domain domains[] = {{"llc-volatile", PlatformKind::Gpm, false},
                              {"mc-durable", PlatformKind::Gpm, true},
                              {"llc-durable", PlatformKind::GpmEadr, true}};
    const std::uint64_t points[] = {
        phases / 4, phases * 3 / 4,
        std::numeric_limits<std::uint64_t>::max()};
    std::vector<CrashGridCell> grid;
    for (const Domain &d : domains)
        for (const std::uint64_t at : points)
            for (const double survive : {0.0, 0.5})
                for (const std::uint64_t seed : {1, 2})
                    grid.push_back(
                        {d.kind, d.window, survive,
                         CrashPoint::afterThreadPhases(at), seed,
                         std::string(d.name) + "/at" +
                             std::to_string(at) + "/p" +
                             std::to_string(survive) + "/s" +
                             std::to_string(seed)});
    return grid;
}

} // namespace gpm
