#include "analysis/check_runner.hpp"

#include <exception>
#include <limits>

#include "common/hash.hpp"
#include "common/status.hpp"
#include "crashtest/torture_runner.hpp"
#include "harness/sweep.hpp"
#include "pmem/pm_events.hpp"

namespace gpm {

std::string
CheckScenario::key() const
{
    return workload + "/" + persistDomainName(domain);
}

void
CheckConfig::applyDefaults()
{
    if (workloads.empty())
        workloads = registeredInvariants();
    if (domains.empty())
        domains = {PersistDomain::LlcVolatile, PersistDomain::McDurable,
                   PersistDomain::LlcDurable};
    if (!factory)
        factory = [](const std::string &name) {
            return makeInvariant(name);
        };
}

std::vector<std::uint64_t>
CheckCell::witnessSeeds(double survive)
{
    // Deterministic crashes (survive 0) need few seeds; tearing
    // witnesses (survive 0.5) flip a coin per 128 B line, so sweep
    // wider to keep the miss probability negligible.
    if (survive > 0.0)
        return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    return {1, 2, 3, 4, 5};
}

std::size_t
CheckReport::findingsAtLeast(Severity floor) const
{
    std::size_t n = 0;
    for (const CheckCell &c : cells)
        n += c.report.countAtLeast(floor);
    return n;
}

std::size_t
CheckReport::confirmed() const
{
    std::size_t n = 0;
    for (const CheckCell &c : cells)
        for (const Finding &f : c.report.findings)
            if (f.witness == WitnessStatus::Confirmed)
                ++n;
    return n;
}

std::uint64_t
CheckReport::signature() const
{
    std::uint64_t h = kFnvOffset;
    for (const CheckCell &c : cells) {
        h = fnv1aStr(c.scenario.key(), h);
        h = fnv1aU64(c.report.stream_hash, h);
        h = fnv1aU64(c.report.findingsHash(), h);
        h = fnv1aStr(c.error, h);
    }
    return h;
}

Table
CheckReport::table(Severity floor) const
{
    Table t({"workload", "domain", "severity", "rule", "range",
             "kernel", "count", "witness", "confirmed", "detail"});
    for (const CheckCell &c : cells) {
        for (const Finding &f : c.report.findings) {
            if (f.severity < floor)
                continue;
            t.addRow({c.scenario.workload,
                      persistDomainName(c.scenario.domain),
                      severityName(f.severity), ruleIdName(f.rule),
                      f.range.empty() ? "-" : f.range,
                      f.kernel.empty() ? "-" : f.kernel,
                      std::to_string(f.count),
                      f.witness_spec.empty() ? "-" : f.witness_spec,
                      witnessStatusName(f.witness), f.detail});
        }
    }
    return t;
}

Table
CheckReport::summary() const
{
    Table t({"workload", "domain", "events", "stores", "epochs",
             "error", "warn", "info", "status"});
    for (const CheckCell &c : cells) {
        std::size_t by[3] = {0, 0, 0};
        for (const Finding &f : c.report.findings)
            ++by[static_cast<std::size_t>(f.severity)];
        const char *status =
            !c.error.empty() ? "ERROR"
            : (by[1] + by[2]) != 0 ? "FINDINGS"
                                   : "clean";
        t.addRow({c.scenario.workload,
                  persistDomainName(c.scenario.domain),
                  std::to_string(c.report.events),
                  std::to_string(c.report.stores),
                  std::to_string(c.report.epochs),
                  std::to_string(by[2]), std::to_string(by[1]),
                  std::to_string(by[0]), status});
    }
    return t;
}

WitnessStatus
confirmWitness(
    const Finding &finding, const CheckScenario &scenario,
    const std::function<std::unique_ptr<RecoveryInvariant>(
        const std::string &)> &factory)
{
    GPM_REQUIRE(!finding.witness_spec.empty(),
                "finding has no witness to confirm");
    const CrashSpec spec = CrashScheduler::parse(finding.witness_spec);
    for (const std::uint64_t seed :
         CheckCell::witnessSeeds(finding.witness_survive)) {
        TortureResult r;
        r.scenario = {scenario.workload, scenario.domain, spec, seed,
                      finding.witness_survive};
        const std::unique_ptr<RecoveryInvariant> inv =
            factory(scenario.workload);
        DomainSetup setup = domainSetupFor(scenario.domain);
        const CrashPoint point =
            spec.materialize(inv->doomedThreadPhases());
        r.outcome = inv->run(setup, point, seed,
                             finding.witness_survive);
        classifyScenario(r);
        // llc-volatile maps data loss to DdioTrap, not Violation —
        // that class *is* the dynamic confirmation there.
        if (r.cls == OutcomeClass::Violation ||
            (scenario.domain == PersistDomain::LlcVolatile &&
             r.cls == OutcomeClass::DdioTrap))
            return WitnessStatus::Confirmed;
    }
    return WitnessStatus::NotReproduced;
}

namespace {

CheckCell
runCell(SweepLane &lane, const CheckScenario &sc, const CheckConfig &cfg)
{
    CheckCell cell;
    cell.scenario = sc;
    try {
        PmEventRecorder rec;
        const std::unique_ptr<RecoveryInvariant> inv =
            cfg.factory(sc.workload);
        DomainSetup setup = domainSetupFor(sc.domain);
        setup.recorder = &rec;
        // A crash point past any reachable thread-phase count: the
        // workload runs clean end to end, the pool still crashes
        // exactly once afterwards (survive 0, so the trace shows
        // precisely what durability the fences actually bought), and
        // recovery runs inside the recorded window.
        const CrashPoint never = CrashPoint::afterThreadPhases(
            std::numeric_limits<std::uint64_t>::max());
        const TortureOutcome o =
            inv->run(setup, never, cfg.seed, /*survive_prob=*/0.0);
        if (!o.error.empty()) {
            cell.error = o.error;
            return cell;
        }
        cell.report = analyzePmTrace(rec);
        if (cfg.confirm_witnesses) {
            for (Finding &f : cell.report.findings) {
                if (f.witness == WitnessStatus::Unconfirmed &&
                    f.severity >= cfg.confirm_floor) {
                    f.witness = confirmWitness(f, sc, cfg.factory);
                    lane.count("gpmcheck.witness_replays");
                }
            }
        }
    } catch (const std::exception &e) {
        cell.error = e.what();
    }
    lane.count("gpmcheck.cells");
    if (cell.report.countAtLeast(Severity::Warn) != 0)
        lane.count("gpmcheck.cells_with_findings");
    return cell;
}

} // namespace

CheckReport
runCheck(const CheckConfig &cfg_in)
{
    CheckConfig cfg = cfg_in;
    cfg.applyDefaults();

    std::vector<CheckScenario> scenarios;
    scenarios.reserve(cfg.workloads.size() * cfg.domains.size());
    for (const std::string &w : cfg.workloads)
        for (const PersistDomain d : cfg.domains)
            scenarios.push_back({w, d});

    SweepOptions opt;
    opt.workers = cfg.jobs;
    CheckReport report;
    report.cells = sweep(
        scenarios,
        [&cfg](SweepLane &lane, const CheckScenario &sc) {
            return runCell(lane, sc, cfg);
        },
        opt);
    return report;
}

} // namespace gpm
