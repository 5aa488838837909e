/**
 * @file
 * Quickstart: the core GPM flow in ~60 lines of application code.
 *
 *  1. Build a Machine modelling the GPM platform (GPU + Optane + PCIe).
 *  2. gpm_map a PM region into the GPU's address space.
 *  3. Open a persistence window (gpm_persist_begin disables DDIO).
 *  4. Run a kernel that stores results to PM and persists them with
 *     gpm_persist (the system-scope fence).
 *  5. Power-fail the machine and observe that persisted data survived
 *     — and that the same flow WITHOUT the persistence window (the
 *     DDIO trap) loses everything.
 */
#include <cstdio>

#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "platform/machine.hpp"

using namespace gpm;

namespace {

/** Store thread-id squares to PM; persist when @p persist is true. */
std::uint64_t
runSquares(Machine &m, bool persist_in_kernel)
{
    const PmRegion out = gpmMap(m, "squares", 1024 * 8, true);

    if (persist_in_kernel)
        gpmPersistBegin(m);  // DDIO off: fences now reach the media

    KernelDesc k;
    k.name = "squares";
    k.blocks = 4;
    k.block_threads = 256;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint64_t i = ctx.globalId();
        ctx.pmStore(out.offset + i * 8, i * i);
        const bool durable = gpmPersist(ctx);
        (void)durable;  // false when DDIO is still on!
    });
    m.runKernel(k);

    if (persist_in_kernel)
        gpmPersistEnd(m);
    return out.offset;
}

} // namespace

int
main()
{
    SimConfig cfg;

    std::printf("== GPM: the correct flow ==\n");
    {
        Machine m(cfg, PlatformKind::Gpm, 16_MiB);
        const std::uint64_t base = runSquares(m, true);
        m.pool().crash();  // power failure
        const std::uint64_t sq42 =
            m.pool().loadDurable<std::uint64_t>(base + 42 * 8);
        std::printf("after crash, squares[42] = %llu (expected %d)\n",
                    static_cast<unsigned long long>(sq42), 42 * 42);
        std::printf("simulated kernel time: %.1f us\n",
                    toUs(m.now()));
        if (sq42 != 42 * 42)
            return 1;
    }

    std::printf("\n== The DDIO trap: same kernel, no persistence "
                "window ==\n");
    {
        Machine m(cfg, PlatformKind::Gpm, 16_MiB);
        const std::uint64_t base = runSquares(m, false);
        m.pool().crash();
        std::printf("after crash, squares[42] = %llu (the fence only "
                    "reached the volatile LLC)\n",
                    static_cast<unsigned long long>(
                        m.pool().loadDurable<std::uint64_t>(base +
                                                            42 * 8)));
    }
    return 0;
}
