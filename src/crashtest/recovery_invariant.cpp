#include "crashtest/recovery_invariant.hpp"

#include <exception>

#include "common/status.hpp"
#include "common/units.hpp"
#include "memsim/media_backend.hpp"
#include "platform/machine.hpp"
#include "workloads/db.hpp"
#include "workloads/kvs.hpp"
#include "workloads/prefix_sum.hpp"
#include "workloads/srad.hpp"

namespace gpm {

DomainSetup
domainSetupFor(PersistDomain d)
{
    switch (d) {
      case PersistDomain::McDurable:
        return {d, PlatformKind::Gpm, true};
      case PersistDomain::LlcVolatile:
        return {d, PlatformKind::Gpm, false};
      case PersistDomain::LlcDurable:
        return {d, PlatformKind::GpmEadr, true};
    }
    return {};
}

const char *
persistDomainName(PersistDomain d)
{
    switch (d) {
      case PersistDomain::LlcVolatile:
        return "llc-volatile";
      case PersistDomain::McDurable:
        return "mc-durable";
      case PersistDomain::LlcDurable:
        return "llc-durable";
    }
    return "?";
}

PersistDomain
parsePersistDomain(const std::string &name)
{
    if (name == "llc-volatile")
        return PersistDomain::LlcVolatile;
    if (name == "mc-durable")
        return PersistDomain::McDurable;
    if (name == "llc-durable")
        return PersistDomain::LlcDurable;
    fatal("unknown persist domain '", name,
          "' (llc-volatile | mc-durable | llc-durable)");
}

TortureOutcome
runScenario(const DomainSetup &setup, std::uint64_t seed,
            const std::function<CrashOutcome(Machine &)> &body)
{
    TortureOutcome o;
    try {
        SimConfig cfg;
        applyMediaConfig(cfg, setup.media);
        // Scaled-down workloads: a small pool keeps the per-scenario
        // allocation cost from dominating thousand-cell sweeps.
        Machine m(cfg, setup.kind, 8_MiB, seed);
        if (setup.recorder)
            m.pool().setRecorder(setup.recorder);
        const CrashOutcome c = body(m);
        o.fired = c.fired;
        o.recovery_ran = c.recovery_ran;
        o.strict_ok = c.strict_ok;
        o.state_hash = c.state_hash;
        const PmPoolStats &st = m.pool().stats();
        o.crashes = st.crashes;
        o.crash_sub_extents = st.crash_sub_extents;
        o.crash_survivors = st.crash_survivors;
    } catch (const std::exception &e) {
        o.error = e.what();
    }
    return o;
}

namespace {

/** Scenario-scale params, small enough for thousand-cell sweeps. */
GpKvsParams
kvsParams()
{
    GpKvsParams p;
    p.n_sets = 1u << 9;
    p.batch_ops = 512;
    p.batches = 3;
    return p;
}

GpDbParams
dbParams()
{
    GpDbParams p;
    p.initial_rows = 4096;
    p.insert_rows = 1024;
    p.update_rows = 512;
    p.insert_batches = 2;
    p.update_batches = 2;
    return p;
}

PsParams
psParams()
{
    PsParams p;
    p.blocks = 8;
    p.block_threads = 64;
    p.elems_per_thread = 4;
    return p;
}

SradParams
sradParams()
{
    SradParams p;
    p.width = 64;
    p.height = 32;
    p.iterations = 3;
    return p;
}

/** One crash-recoverable workload of the default axis: its doomed
 *  kernel's thread phases, its reference and its crash entry point. */
struct WorkloadRow {
    const char *name;
    std::uint64_t doomed_phases;
    CrashReference (*reference)();
    CrashOutcome (*run)(Machine &m, const CrashReference &ref,
                        const CrashPoint &point, double survive_prob,
                        bool window);
};

/** The default axis, in sweep order. gpKVS crashes batch 1 of 3, gpDB
 *  batch 1 of 2, SRAD iteration 1; prefix-sum crashes its one
 *  partial-sum kernel and needs no reference. */
const WorkloadRow kWorkloadRows[] = {
    {"kvs", GpKvs::doomedThreadPhases(kvsParams()),
     [] { return GpKvs::crashReference(kvsParams(), 1); },
     [](Machine &m, const CrashReference &ref, const CrashPoint &point,
        double survive_prob, bool window) {
         return GpKvs(m, kvsParams())
             .runCrashPoint(ref, point, survive_prob, window);
     }},
    {"db-insert",
     GpDb::doomedThreadPhases(dbParams(), GpDb::TxnKind::Insert),
     [] {
         return GpDb::crashReference(dbParams(), GpDb::TxnKind::Insert, 1);
     },
     [](Machine &m, const CrashReference &ref, const CrashPoint &point,
        double survive_prob, bool window) {
         return GpDb(m, dbParams())
             .runCrashPoint(GpDb::TxnKind::Insert, ref, point,
                            survive_prob, window);
     }},
    {"db-update",
     GpDb::doomedThreadPhases(dbParams(), GpDb::TxnKind::Update),
     [] {
         return GpDb::crashReference(dbParams(), GpDb::TxnKind::Update, 1);
     },
     [](Machine &m, const CrashReference &ref, const CrashPoint &point,
        double survive_prob, bool window) {
         return GpDb(m, dbParams())
             .runCrashPoint(GpDb::TxnKind::Update, ref, point,
                            survive_prob, window);
     }},
    {"prefix-sum", GpPrefixSum::doomedThreadPhases(psParams()),
     [] { return CrashReference{}; },
     [](Machine &m, const CrashReference &, const CrashPoint &point,
        double survive_prob, bool window) {
         return GpPrefixSum(m, psParams())
             .runCrashPoint(point, survive_prob, window);
     }},
    {"srad", GpSrad::doomedThreadPhases(sradParams()),
     [] { return GpSrad::crashReference(sradParams(), 1); },
     [](Machine &m, const CrashReference &ref, const CrashPoint &point,
        double survive_prob, bool window) {
         return GpSrad(m, sradParams())
             .runCrashPoint(ref, point, survive_prob, window);
     }},
};

/** A kWorkloadRows row adapted to the torture matrix; its reference is
 *  built once, here, and shared by every scenario. */
class WorkloadInvariant : public RecoveryInvariant
{
  public:
    explicit WorkloadInvariant(const WorkloadRow &row)
        : row_(row), ref_(row.reference())
    {
    }

    std::string name() const override { return row_.name; }

    std::uint64_t
    doomedThreadPhases() const override
    {
        return row_.doomed_phases;
    }

    TortureOutcome
    run(const DomainSetup &setup, const CrashPoint &point,
        std::uint64_t seed, double survive_prob) const override
    {
        return runScenario(setup, seed, [&](Machine &m) {
            return row_.run(m, ref_, point, survive_prob,
                            setup.open_persist_window);
        });
    }

  private:
    const WorkloadRow &row_;
    const CrashReference ref_;
};

} // namespace

std::vector<std::string>
registeredInvariants()
{
    std::vector<std::string> names;
    for (const WorkloadRow &row : kWorkloadRows)
        names.push_back(row.name);
    return names;
}

std::vector<std::string>
extendedInvariants()
{
    return {"serve", "pmheap"};
}

std::unique_ptr<RecoveryInvariant>
makeInvariant(const std::string &name)
{
    for (const WorkloadRow &row : kWorkloadRows)
        if (name == row.name)
            return std::make_unique<WorkloadInvariant>(row);
    if (name == "serve")
        return makeServeInvariant();
    if (name == "pmheap")
        return makePmheapInvariant();
    std::string valid;
    for (const std::string &n : registeredInvariants())
        valid += valid.empty() ? n : ", " + n;
    for (const std::string &n : extendedInvariants())
        valid += ", " + n;
    fatal("unknown torture workload '", name, "' (valid: ", valid, ")");
}

} // namespace gpm
