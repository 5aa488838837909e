/**
 * @file
 * BFS workload (Table 1: GPU breadth-first search over the USA road
 * network, natively persisting the per-node cost and the search
 * frontier each iteration).
 *
 * The graph is a synthetic road-network analog: a long 2D grid lattice
 * (high diameter, like a road network) with a sprinkling of shortcut
 * edges, held read-only in device memory as CSR — the paper keeps the
 * input graph in HBM for exactly this reason. What persists to PM is
 * the cost array (scattered 4 B writes: the random-address PM traffic
 * Fig 12 shows for BFS) and the frontier queue plus its level, which
 * together let a crashed traversal *resume* instead of restarting.
 *
 * Levels are idempotent: a level marks unvisited neighbours of the
 * persisted frontier with level+1 and then recomputes the next
 * frontier as "every neighbour with cost level+1", marked now or by
 * an earlier partial run of the level, which is every node with cost
 * level+1. So re-running a partially executed level after a crash
 * converges to the same state.
 *
 * Under GPM the traversal runs as a persistent kernel (one launch,
 * on-device looping); CAP pays a launch + DMA + persist round trip
 * per level — the gap behind the paper's 85x.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gpusim/kernel.hpp"
#include "workloads/workload.hpp"

namespace gpm {

/** Graph/traversal sizing. */
struct BfsParams {
    std::uint32_t grid_w = 64;    ///< lattice width
    std::uint32_t grid_h = 512;   ///< lattice height (sets diameter)
    std::uint32_t shortcuts = 256;  ///< extra random edges
    std::uint32_t source = 0;
    std::uint64_t seed = 23;
    int cap_threads = 16;

    std::uint32_t
    nodes() const
    {
        return grid_w * grid_h;
    }
};

/** CSR graph (read-only, device-resident). */
struct CsrGraph {
    std::vector<std::uint32_t> row_off;
    std::vector<std::uint32_t> col;

    std::uint32_t nodes() const
    {
        return static_cast<std::uint32_t>(row_off.size() - 1);
    }
};

/** Build the synthetic road-network graph (lattice + shortcuts). */
CsrGraph makeRoadGraph(const BfsParams &p);

/** Host BFS over @p g from @p source (shared reference). */
std::vector<std::uint32_t> bfsReference(const CsrGraph &g,
                                        std::uint32_t source);

/** The BFS app. */
class GpBfs
{
  public:
    static constexpr std::uint32_t kInf = 0xffffffffu;

    GpBfs(Machine &m, const BfsParams &p);

    /** Build the graph and map the PM regions (setup). */
    void setup();

    /** Full traversal from the source. */
    WorkloadResult run();

    /**
     * Crash half-way through the marking kernel of the level
     * @p progress_frac of the way to the diameter, resume from the
     * durable cost/frontier state and finish (runCrashSequence);
     * verifies against a host BFS. ops_done: levels run after reboot.
     */
    WorkloadResult runWithCrash(double progress_frac,
                                double survive_prob);

    /** Host reference BFS distances. */
    std::vector<std::uint32_t> referenceCosts() const;

    /** Durable cost of node @p v. */
    std::uint32_t durableCost(std::uint32_t v) const;

    const CsrGraph &graph() const { return graph_; }

  private:
    /** One BFS level; returns the next frontier. Persistence follows
     *  the machine's platform. @p first_level charges the single
     *  launch of the persistent kernel. A set @p crash arms the
     *  marking kernel (runWithCrash's doomed level): the level then
     *  returns {} right after it, persisting no frontier. */
    std::vector<std::uint32_t> runLevel(
        const std::vector<std::uint32_t> &frontier, std::uint32_t level,
        bool first_level,
        const std::optional<CrashPoint> &crash = std::nullopt);

    /** Run levels until the frontier empties, starting from the given
     *  state; returns the levels run. */
    std::uint32_t traverse(std::vector<std::uint32_t> frontier,
                  std::uint32_t level);

    std::uint64_t costAddr(std::uint32_t v) const;

    Machine *m_;
    BfsParams p_;
    CsrGraph graph_;
    PmRegion cost_;      ///< u32 per node
    PmRegion frontier_;  ///< u32 level; u32 size; u32 nodes[]
    PmRegion cap_stage_; ///< CAP's per-level compact update record
    std::vector<std::uint32_t> host_cost_;  ///< HBM mirror
};

} // namespace gpm
