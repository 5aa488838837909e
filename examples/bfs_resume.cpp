/**
 * @file
 * Native persistence: BFS that resumes instead of restarting.
 *
 * Traverses a road-network-like graph while persisting costs and the
 * frontier in-kernel, crashes part-way, and resumes from the durable
 * frontier — the recovery logic is embedded in the traversal itself
 * (section 5.4), no separate recovery kernel required.
 */
#include <cstdio>

#include "workloads/bfs.hpp"

using namespace gpm;

int
main()
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB, 5);

    BfsParams params;
    params.grid_w = 32;
    params.grid_h = 256;
    params.shortcuts = 8;

    GpBfs bfs(m, params);
    std::printf("traversing %u-node graph, crashing at ~60%% of the "
                "levels...\n", params.nodes());
    const WorkloadResult r =
        bfs.runWithCrash(/*progress_frac=*/0.6, /*survive_prob=*/0.3);

    std::printf("resumed and finished: %s\n",
                r.verified ? "costs match reference BFS" : "MISMATCH");
    std::printf("levels re-executed after the crash: %.0f\n",
                r.ops_done);
    std::printf("durable cost of the far corner: %u hops\n",
                bfs.durableCost(params.nodes() - 1));
    return r.verified ? 0 : 1;
}
