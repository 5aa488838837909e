#include "workloads/iterative.hpp"

#include "gpusim/kernel.hpp"

namespace gpm {

WorkloadResult
IterativeApp::run(Machine &m, const IterativeParams &p)
{
    WorkloadResult r;
    if (!m.supports(WriteGrain::Block, paperStateBytes())) {
        // BLK and HS exceed GPUfs's 2 GB file limit (section 6.1).
        r.supported = false;
        return r;
    }
    GpmCheckpoint cp = [&] {
        WorkloadSpan span("setup", name());
        init();
        return GpmCheckpoint::create(m, name() + ".cp", stateBytes(),
                                     /*elements=*/16, /*groups=*/1);
    }();
    registerState(cp);

    const SimNs t0 = m.now();
    const std::uint64_t pcie0 = m.pcieWriteBytes();
    const std::uint64_t pay0 = m.persistPayloadBytes();

    for (std::uint32_t iter = 0; iter < p.iterations; ++iter) {
        computeIteration(m, iter);
        if ((iter + 1) % p.checkpoint_every == 0) {
            const SimNs c0 = m.now();
            cp.checkpoint(0);
            r.persist_ns += m.now() - c0;
        }
    }

    r.op_ns = m.now() - t0;
    r.pcie_write_bytes = m.pcieWriteBytes() - pcie0;
    r.persisted_payload = m.persistPayloadBytes() - pay0;
    r.ops_done = p.iterations;
    return r;
}

WorkloadResult
IterativeApp::runWithCrashRestore(Machine &m, const IterativeParams &p,
                                  std::uint32_t crash_iter,
                                  bool crash_in_checkpoint,
                                  double survive_prob)
{
    GPM_REQUIRE(crash_iter < p.iterations, "crash iteration too late");
    GPM_REQUIRE(!crash_in_checkpoint || inKernelPersistence(m.kind()),
                "mid-checkpoint crashes need the GPM copy kernel");

    // Uninterrupted baseline (compute is machine-independent).
    std::vector<std::uint8_t> baseline;
    {
        Machine scratch(m.config(), m.kind(), 1_MiB);
        init();
        for (std::uint32_t iter = 0; iter < p.iterations; ++iter)
            computeIteration(scratch, iter);
        baseline = snapshot();
    }

    WorkloadResult r;
    init();
    GpmCheckpoint cp = GpmCheckpoint::create(m, name() + ".cp",
                                             stateBytes(), 16, 1);
    registerState(cp);

    const SimNs t0 = m.now();
    for (std::uint32_t iter = 0; iter < crash_iter; ++iter) {
        computeIteration(m, iter);
        if ((iter + 1) % p.checkpoint_every == 0)
            cp.checkpoint(0);
    }
    r.op_ns = m.now() - t0;

    if (crash_in_checkpoint) {
        // Kill the next checkpoint's copy kernel half-way: the flip
        // must not have happened.
        computeIteration(m, crash_iter);
        cp.armCrashNextCheckpoint(0.5);
        bool crashed = false;
        try {
            cp.checkpoint(0);
        } catch (const KernelCrashed &) {
            crashed = true;
        }
        GPM_ASSERT(crashed, "checkpoint crash point did not fire");
    }
    m.pool().crash(survive_prob);

    // Reboot: reopen, re-register in the same order, restore, resume.
    const SimNs r0 = m.now();
    GpmCheckpoint reopened = GpmCheckpoint::open(m, name() + ".cp");
    init();
    registerState(reopened);
    const std::uint32_t seq = reopened.sequence(0);
    if (seq > 0)
        reopened.restore(0);
    r.recovery_ns = m.now() - r0;

    const std::uint32_t resume_iter = seq * p.checkpoint_every;
    GPM_ASSERT(resume_iter <= crash_iter + 1,
               "checkpoint claims more progress than executed");
    for (std::uint32_t iter = resume_iter; iter < p.iterations;
         ++iter) {
        computeIteration(m, iter);
        if ((iter + 1) % p.checkpoint_every == 0)
            reopened.checkpoint(0);
    }

    r.ops_done = p.iterations;
    r.verified = snapshot() == baseline;
    return r;
}

} // namespace gpm
