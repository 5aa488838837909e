#include "crashtest/torture_runner.hpp"

#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "common/hash.hpp"
#include "common/status.hpp"
#include "harness/sweep.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

const char *
outcomeClassName(OutcomeClass c)
{
    switch (c) {
      case OutcomeClass::StrictOk:
        return "strict-ok";
      case OutcomeClass::DdioTrap:
        return "ddio-trap";
      case OutcomeClass::NotFired:
        return "not-fired";
      case OutcomeClass::Violation:
        return "VIOLATION";
    }
    return "?";
}

const std::string &
TortureResult::key() const
{
    if (key_.empty()) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "/s%llu/p%.2f",
                      static_cast<unsigned long long>(scenario.seed),
                      scenario.survive_prob);
        key_ = scenario.workload + "/" +
               persistDomainName(scenario.domain) + "/" +
               scenario.spec.label() + buf;
    }
    return key_;
}

void
TortureConfig::applyDefaults()
{
    if (workloads.empty())
        workloads = registeredInvariants();
    if (domains.empty())
        domains = {PersistDomain::LlcVolatile, PersistDomain::McDurable,
                   PersistDomain::LlcDurable};
    if (specs.empty())
        specs = CrashScheduler::enumerate(CrashGrid::defaults());
    if (seeds.empty())
        seeds = {1, 2, 3, 4, 5};
    if (survive_probs.empty())
        survive_probs = {0.0, 0.5};
}

std::size_t
TortureConfig::scenarioCount() const
{
    return workloads.size() * domains.size() * specs.size() *
           seeds.size() * survive_probs.size();
}

/** Apply the policy in the file header of torture_runner.hpp. */
void
classifyScenario(TortureResult &r)
{
    const TortureOutcome &o = r.outcome;
    const auto violation = [&](std::string why) {
        r.cls = OutcomeClass::Violation;
        r.detail = std::move(why);
    };

    if (!o.error.empty())
        return violation("exception: " + o.error);
    if (o.crashes != 1)
        return violation("pool crashed " + std::to_string(o.crashes) +
                         " times, expected exactly 1");
    if (r.scenario.survive_prob == 0.0 && o.crash_survivors != 0)
        return violation("survivors with zero survival probability");
    if (o.crash_survivors > o.crash_sub_extents)
        return violation("more survivors than tearing decisions");
    if (r.scenario.domain == PersistDomain::LlcDurable &&
        o.crash_sub_extents != 0)
        return violation("eADR crash ran the 128 B tearing loop");

    if (!o.strict_ok) {
        if (r.scenario.domain == PersistDomain::LlcVolatile) {
            r.cls = OutcomeClass::DdioTrap;
            return;
        }
        return violation("strict invariant failed in a "
                         "fence-persisting domain");
    }
    r.cls = o.fired ? OutcomeClass::StrictOk : OutcomeClass::NotFired;
}

std::size_t
TortureReport::violations() const
{
    return countOf(OutcomeClass::Violation);
}

std::array<std::size_t, 4>
TortureReport::classCounts() const
{
    std::array<std::size_t, 4> counts{};
    for (const TortureResult &r : results)
        ++counts[static_cast<std::size_t>(r.cls)];
    return counts;
}

std::size_t
TortureReport::countOf(OutcomeClass c) const
{
    return classCounts()[static_cast<std::size_t>(c)];
}

std::uint64_t
TortureReport::signature() const
{
    std::uint64_t h = kFnvOffset;
    for (const TortureResult &r : results) {
        h = fnv1aStr(r.key(), h);
        h = fnv1aU64(r.outcome.fired, h);
        h = fnv1aU64(r.outcome.recovery_ran, h);
        h = fnv1aU64(r.outcome.strict_ok, h);
        h = fnv1aU64(r.outcome.state_hash, h);
        h = fnv1aU64(static_cast<std::uint64_t>(r.cls), h);
    }
    return h;
}

Table
TortureReport::table() const
{
    Table t({"workload", "domain", "crash-point", "seed", "survive",
             "fired", "recovered", "strict", "outcome"});
    for (const TortureResult &r : results) {
        t.addRow({r.scenario.workload,
                  persistDomainName(r.scenario.domain),
                  r.scenario.spec.label(),
                  std::to_string(r.scenario.seed),
                  Table::num(r.scenario.survive_prob),
                  r.outcome.fired ? "y" : "n",
                  r.outcome.recovery_ran ? "y" : "n",
                  r.outcome.strict_ok ? "y" : "n",
                  outcomeClassName(r.cls)});
    }
    return t;
}

Table
TortureReport::summary() const
{
    // (workload, domain) -> counts per class.
    std::map<std::pair<std::string, std::string>, std::array<int, 4>>
        cells;
    for (const TortureResult &r : results) {
        auto &c = cells[{r.scenario.workload,
                         persistDomainName(r.scenario.domain)}];
        ++c[static_cast<int>(r.cls)];
    }
    Table t({"workload", "domain", "strict-ok", "ddio-trap",
             "not-fired", "violations"});
    for (const auto &[key, c] : cells) {
        t.addRow({key.first, key.second,
                  std::to_string(c[0]), std::to_string(c[1]),
                  std::to_string(c[2]), std::to_string(c[3])});
    }
    return t;
}

namespace {

/**
 * Run one scenario end to end on a private Machine + PmPool world;
 * @p inv is the run's shared, read-only adapter. Scenarios are
 * independent, so the sweep may run them on any worker in any order.
 */
TortureResult
runScenarioCell(SweepLane &lane, const TortureScenario &sc,
                const RecoveryInvariant &inv)
{
    TortureResult r;
    r.scenario = sc;
    DomainSetup setup = domainSetupFor(sc.domain);
    setup.media = sc.media;
    const CrashPoint point =
        sc.spec.materialize(inv.doomedThreadPhases());
    {
        // Building key() costs a string; skip it (and the span)
        // unless tracing is live.
        const bool traced = telemetry::enabled();
        telemetry::Span span(traced ? "scenario" : nullptr,
                             traced ? std::string_view(r.key())
                                    : std::string_view());
        r.outcome = inv.run(setup, point, sc.seed, sc.survive_prob);
        classifyScenario(r);
        if (span.armed())
            span.arg("outcome", outcomeClassName(r.cls));
    }
    lane.count("torture.scenarios");
    if (r.cls == OutcomeClass::Violation)
        lane.count("torture.violations");
    return r;
}

} // namespace

std::vector<TortureScenario>
TortureRunner::enumerate(const TortureConfig &cfg)
{
    std::vector<TortureScenario> scenarios;
    scenarios.reserve(cfg.scenarioCount());
    for (const std::string &name : cfg.workloads)
        for (const PersistDomain domain : cfg.domains)
            for (const CrashSpec &spec : cfg.specs)
                for (const std::uint64_t seed : cfg.seeds)
                    for (const double p : cfg.survive_probs)
                        scenarios.push_back(
                            {name, domain, spec, seed, p, cfg.media});
    return scenarios;
}

TortureReport
TortureRunner::run(const TortureConfig &cfg_in)
{
    TortureConfig cfg = cfg_in;
    cfg.applyDefaults();

    // The canonical enumeration order is the report order: sweep
    // results land in their scenario's slot regardless of which
    // worker ran it, so the table, counts and signature are
    // bit-identical at any cfg.jobs.
    const std::vector<TortureScenario> scenarios = enumerate(cfg);

    // One adapter per workload, built (with its expected states)
    // before the sweep and shared read-only by every worker.
    std::map<std::string, std::unique_ptr<const RecoveryInvariant>>
        adapters;
    for (const std::string &name : cfg.workloads)
        if (!adapters.count(name))
            adapters.emplace(name, makeInvariant(name));

    SweepOptions opt;
    opt.workers = cfg.jobs;
    // Invariant adapters never throw (failures land in
    // outcome.error), so fail-fast only trips on runner bugs.
    TortureReport report;
    report.results = sweep(
        scenarios,
        [&adapters](SweepLane &lane, const TortureScenario &sc) {
            return runScenarioCell(lane, sc, *adapters.at(sc.workload));
        },
        opt);
    return report;
}

} // namespace gpm
