/**
 * @file
 * Figure 11(a): speedup of HCL over conventional distributed logging
 * for the transactional workloads.
 *
 * Paper shape: gpKVS 3.3x (only one in eight threads logs, limiting
 * HCL's parallelism win); gpDB (U) 6.1x (every thread logs a 60 B+
 * row). gpDB (I) is skipped — it only logs the table size.
 *
 * The four (workload, logging-mode) runs each build a private
 * Machine, so they sweep across GPM_EXEC_WORKERS host threads; the
 * table reads the canonical-order result slots and is bit-identical
 * at any worker count.
 */
#include "bench/bench_util.hpp"
#include "common/env.hpp"
#include "harness/experiments.hpp"
#include "harness/sweep.hpp"

using namespace gpm;
using namespace gpm::bench;

namespace {

SimNs
kvsRun(const SimConfig &cfg, bool hcl)
{
    Machine m(cfg, PlatformKind::Gpm, pmCapacity());
    GpKvsParams p = kvsParams();
    p.use_hcl = hcl;
    GpKvs w(m, p);
    return w.run().op_ns;
}

SimNs
dbRun(const SimConfig &cfg, bool hcl)
{
    Machine m(cfg, PlatformKind::Gpm, pmCapacity());
    GpDbParams p = dbParams();
    p.use_hcl = hcl;
    GpDb w(m, p);
    return w.run(GpDb::TxnKind::Update).op_ns;
}

} // namespace

int
main()
{
    SimConfig cfg;
    Table table({"Workload", "Conventional (ms)", "HCL (ms)",
                 "HCL speedup"});

    // Canonical cell order: (kvs conv, kvs hcl, db conv, db hcl).
    SweepOptions opt;
    opt.workers = sweepJobsFromEnv(1);
    const std::vector<SimNs> ns = sweep(
        std::size_t(4),
        [&](SweepLane &, std::size_t i) {
            const bool hcl = (i & 1) != 0;
            return i < 2 ? kvsRun(cfg, hcl) : dbRun(cfg, hcl);
        },
        opt);

    table.addRow({"gpKVS", Table::num(toMs(ns[0])),
                  Table::num(toMs(ns[1])),
                  Table::num(ns[0] / ns[1], 1) + "x"});
    table.addRow({"gpDB (U)", Table::num(toMs(ns[2])),
                  Table::num(toMs(ns[3])),
                  Table::num(ns[2] / ns[3], 1) + "x"});

    report("Figure 11a: HCL speedup over conventional logging", table);
    return 0;
}
