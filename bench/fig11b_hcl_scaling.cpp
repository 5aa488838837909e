/**
 * @file
 * Figure 11(b): log-insert latency vs number of concurrently logging
 * GPU threads, HCL against conventional distributed logging.
 *
 * Paper shape: conventional latency climbs with thread count (lock
 * serialization per partition); HCL stays near-flat — on average
 * ~3.6x lower.
 *
 * Each (thread count, logging mode) point builds a private Machine,
 * so the 14 points sweep across GPM_EXEC_WORKERS host threads; rows
 * and the average reduce the canonical-order result slots and are
 * bit-identical at any worker count.
 */
#include "bench/bench_util.hpp"
#include "common/env.hpp"
#include "gpm/gpm_log.hpp"
#include "gpm/gpm_runtime.hpp"
#include "harness/experiments.hpp"
#include "harness/sweep.hpp"

using namespace gpm;
using namespace gpm::bench;

namespace {

/** One 24 B entry per thread into a fresh log; returns latency. */
SimNs
logMicro(const SimConfig &cfg, std::uint32_t threads, bool hcl)
{
    Machine m(cfg, PlatformKind::Gpm, 512_MiB);
    gpmPersistBegin(m);
    const std::uint32_t tpb = 256;
    const std::uint32_t blocks =
        static_cast<std::uint32_t>(ceilDiv(threads, tpb));

    GpmLog log = hcl
        ? GpmLog::createHcl(m, "microlog", 24, 1, blocks, tpb)
        : GpmLog::createConv(m, "microlog",
                             ceilDiv(std::uint64_t(threads) * 24, 64) +
                                 4096, 64);

    struct Entry {
        std::uint64_t a, b, c;
    };
    KernelDesc k;
    k.name = "log_micro";
    k.blocks = blocks;
    k.block_threads = tpb;
    k.phases.push_back([&log, threads](ThreadCtx &ctx) {
        if (ctx.globalId() >= threads)
            return;
        const Entry e{ctx.globalId(), ~ctx.globalId(), 42};
        log.insert(ctx, &e, sizeof(e));
    });
    const SimNs t0 = m.now();
    m.runKernel(k);
    m.advance(log.consumeSerializationNs());
    return m.now() - t0;
}

} // namespace

int
main()
{
    SimConfig cfg;
    Table table({"GPU threads", "Conventional (us)", "HCL (us)",
                 "HCL advantage"});

    const std::vector<std::uint32_t> threads = {
        1024u, 4096u, 8192u, 16384u, 24576u, 32768u, 49152u};

    // Canonical cell order: (t0 conv, t0 hcl, t1 conv, t1 hcl, ...).
    SweepOptions opt;
    opt.workers = sweepJobsFromEnv(1);
    const std::vector<SimNs> ns = sweep(
        threads.size() * 2,
        [&](SweepLane &, std::size_t i) {
            return logMicro(cfg, threads[i / 2], (i & 1) != 0);
        },
        opt);

    double ratio_sum = 0;
    int rows = 0;
    for (std::size_t i = 0; i < threads.size(); ++i) {
        const SimNs conv = ns[2 * i];
        const SimNs hcl = ns[2 * i + 1];
        ratio_sum += conv / hcl;
        ++rows;
        table.addRow({std::to_string(threads[i]), Table::num(toUs(conv)),
                      Table::num(toUs(hcl)),
                      Table::num(conv / hcl, 1) + "x"});
    }
    table.addRow({"average", "", "",
                  Table::num(ratio_sum / rows, 1) + "x"});
    report("Figure 11b: log-insert latency vs logging threads", table);
    return 0;
}
