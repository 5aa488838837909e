/**
 * @file
 * A recoverable GPU key-value store, end to end.
 *
 * Runs batched SETs on the PM-resident gpKVS with HCL undo logging,
 * injects a power failure in the middle of a batch, recovers with the
 * Figure 6(b) kernel, and verifies transactional semantics: committed
 * batches survive, the torn batch is rolled back completely. Finally
 * the durable PM image is saved to a file and reloaded, demonstrating
 * recovery across process lifetimes.
 */
#include <cstdio>

#include "workloads/kvs.hpp"

using namespace gpm;

int
main()
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB, /*seed=*/2024);

    GpKvsParams params;
    params.n_sets = 1u << 14;
    params.batch_ops = 8192;
    params.batches = 4;

    GpKvs kvs(m, params);
    std::printf("crashing half-way through batch 2 of %u...\n",
                params.batches);
    const WorkloadResult r =
        kvs.runWithCrash(/*crash_batch=*/2, /*frac=*/0.5,
                         /*survive_prob=*/0.35);

    std::printf("recovered: %s\n", r.verified ? "yes" : "NO");
    if (!r.verified)
        return 1;
    std::printf("recovery kernel time: %.1f us (vs %.1f us for the "
                "committed batches)\n",
                toUs(r.recovery_ns), toUs(r.op_ns));

    // Committed data is still there.
    std::vector<KvPair> mirror(std::uint64_t(params.n_sets) *
                               GpKvsParams::kWays);
    kvs.applyBatchReference(mirror, 0);
    kvs.applyBatchReference(mirror, 1);
    std::uint64_t checked = 0, value = 0;
    for (const KvPair &pair : mirror) {
        if (pair.key == 0)
            continue;
        if (!kvs.lookup(pair.key, value) || value != pair.value) {
            std::printf("LOST committed key!\n");
            return 1;
        }
        if (++checked == 1000)
            break;
    }
    std::printf("spot-checked %llu committed keys: all present\n",
                static_cast<unsigned long long>(checked));

    // Persist the image to a real file (in the working directory)
    // and reload it — the cross-process recovery story.
    m.pool().saveDurable("gpm_kvs.img");
    PmPool reloaded = PmPool::loadDurable("gpm_kvs.img",
                                          PersistDomain::McDurable);
    const PmRegion store = reloaded.region("gpkvs.data");
    std::printf("reloaded pool: region 'gpkvs.data' at offset %llu, "
                "%llu bytes\n",
                static_cast<unsigned long long>(store.offset),
                static_cast<unsigned long long>(store.size));
    return 0;
}
