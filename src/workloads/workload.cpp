#include "workloads/workload.hpp"

#include <cstring>

#include "common/hash.hpp"

namespace gpm {

CrashImage::CrashImage(const void *p, std::size_t n, std::uint64_t rows)
    : bytes(static_cast<const std::uint8_t *>(p),
            static_cast<const std::uint8_t *>(p) + n),
      rows(rows), hash(fnv1a(p, n))
{
}

bool
CrashImage::equals(const void *p, std::size_t n, std::uint64_t rows) const
{
    return rows == this->rows && n == bytes.size() &&
           (n == 0 || std::memcmp(p, bytes.data(), n) == 0);
}

std::uint64_t
CrashReference::check(CrashOutcome &o, const void *p, std::size_t n,
                      std::uint64_t rows) const
{
    // Atomicity: the durable state is all or nothing of the step.
    const bool pre = pre_crash.equals(p, n, rows);
    const bool post = !pre && committed.equals(p, n, rows);
    o.strict_ok = pre || (post && !o.fired);
    return pre ? pre_crash.hash : post ? committed.hash : fnv1a(p, n);
}

CrashOutcome
runCrashSequence(Machine &m, const CrashSteps &s, const CrashPoint &point,
                 double survive_prob, bool open_persist_window,
                 WorkloadResult *result_out)
{
    const CrashSchedule &sched =
        kCrashSchedules[static_cast<std::size_t>(s.workload)];
    GPM_REQUIRE(inKernelPersistence(m.kind()), sched.name,
                " crash recovery needs in-kernel persistence");
    s.setup();
    WorkloadResult r;
    CrashOutcome o;
    // Only PlatformKind::Gpm has a DDIO toggle; eADR needs no window.
    const bool gpm = m.kind() == PlatformKind::Gpm;
    const bool window = open_persist_window && gpm;
    const bool step_window = window && sched.window_per_step;
    const bool reboot_window = gpm && !window;

    if (window && !sched.window_per_step)
        gpmPersistBegin(m);
    const SimNs t0 = m.now();
    for (std::uint32_t i = 0; i < s.crash_step; ++i) {
        if (step_window)
            gpmPersistBegin(m);
        s.step(i, std::nullopt);
        if (step_window)
            gpmPersistEnd(m);
    }
    const SimNs clean_ns = m.now() - t0;

    // The doomed step: the clean step's kernel, armed mid-flight.
    if (step_window)
        gpmPersistBegin(m);
    try {
        s.step(s.crash_step, point);
    } catch (const KernelCrashed &) {
        o.fired = true;
    }
    m.pool().crash(survive_prob);

    if (sched.transactional) {
        const SimNs r0 = m.now();
        if (s.in_flight()) {
            if (reboot_window)
                gpmPersistBegin(m);
            s.recover();
            if (reboot_window)
                gpmPersistEnd(m);
            o.recovery_ran = true;
        }
        r.recovery_ns = m.now() - r0;
        r.op_ns = clean_ns;
    } else {
        if (reboot_window)
            gpmPersistBegin(m);
        const SimNs r0 = m.now();
        s.recover();
        r.recovery_ns = m.now() - r0;
        if (s.resume)
            s.resume();
        r.op_ns = m.now() - r0;
        o.recovery_ran = true;
        if (reboot_window || (window && sched.close_run_window))
            gpmPersistEnd(m);
    }
    r.ops_done = s.ops_done();

    {
        telemetry::Span span("oracle", "check");
        r.verified = s.check(o);
    }
    if (result_out)
        *result_out = r;
    return o;
}

} // namespace gpm
