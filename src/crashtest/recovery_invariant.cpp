#include "crashtest/recovery_invariant.hpp"

#include <algorithm>
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

namespace {

/** Shared adapter boilerplate: machine setup, stats, error capture. */
template <typename Body>
TortureOutcome
runScenario(const DomainSetup &setup, std::uint64_t seed, Body &&body)
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

/** gpKVS: undo-log transactional batches, crash batch 1 of 3. */
class KvsInvariant : public RecoveryInvariant
{
  public:
    std::string name() const override { return "kvs"; }

    std::uint64_t
    doomedThreadPhases() const override
    {
        return std::uint64_t(params().batch_ops) * GpKvsParams::kGroup;
    }

    TortureOutcome
    run(const DomainSetup &setup, const CrashPoint &point,
        std::uint64_t seed, double survive_prob) override
    {
        return runScenario(setup, seed, [&](Machine &m) {
            GpKvs kvs(m, params());
            return kvs.runCrashPoint(1, point, survive_prob,
                                     setup.open_persist_window);
        });
    }

  private:
    static GpKvsParams
    params()
    {
        GpKvsParams p;
        p.n_sets = 1u << 9;
        p.batch_ops = 512;
        p.batches = 3;
        return p;
    }
};

/** gpDB INSERT or UPDATE batches, crash batch 1 of 2. */
class DbInvariant : public RecoveryInvariant
{
  public:
    explicit DbInvariant(GpDb::TxnKind kind) : kind_(kind) {}

    std::string
    name() const override
    {
        return kind_ == GpDb::TxnKind::Insert ? "db-insert"
                                              : "db-update";
    }

    std::uint64_t
    doomedThreadPhases() const override
    {
        const GpDbParams p = params();
        const std::uint32_t rows = kind_ == GpDb::TxnKind::Insert
                                       ? p.insert_rows
                                       : p.update_rows;
        return alignUp(std::uint64_t(rows), 256);
    }

    TortureOutcome
    run(const DomainSetup &setup, const CrashPoint &point,
        std::uint64_t seed, double survive_prob) override
    {
        return runScenario(setup, seed, [&](Machine &m) {
            GpDb db(m, params());
            return db.runCrashPoint(kind_, 1, point, survive_prob,
                                    setup.open_persist_window);
        });
    }

  private:
    static GpDbParams
    params()
    {
        GpDbParams p;
        p.initial_rows = 4096;
        p.insert_rows = 1024;
        p.update_rows = 512;
        p.insert_batches = 2;
        p.update_batches = 2;
        return p;
    }

    GpDb::TxnKind kind_;
};

/** Prefix sum: Figure 8's sentinel-ordered native recovery. */
class PsInvariant : public RecoveryInvariant
{
  public:
    std::string name() const override { return "prefix-sum"; }

    std::uint64_t
    doomedThreadPhases() const override
    {
        const PsParams p = params();
        // Two phases per thread in the partial-sums kernel.
        return 2ull * p.blocks * p.block_threads;
    }

    TortureOutcome
    run(const DomainSetup &setup, const CrashPoint &point,
        std::uint64_t seed, double survive_prob) override
    {
        return runScenario(setup, seed, [&](Machine &m) {
            GpPrefixSum ps(m, params());
            return ps.runCrashPoint(point, survive_prob,
                                    setup.open_persist_window);
        });
    }

  private:
    static PsParams
    params()
    {
        PsParams p;
        p.blocks = 8;
        p.block_threads = 64;
        p.elems_per_thread = 4;
        return p;
    }
};

/** SRAD: double-buffered iteration counter recovery, crash iter 1. */
class SradInvariant : public RecoveryInvariant
{
  public:
    std::string name() const override { return "srad"; }

    std::uint64_t
    doomedThreadPhases() const override
    {
        const SradParams p = params();
        const std::uint64_t blocks = std::max<std::uint64_t>(
            1, ceilDiv(p.pixels(), std::uint64_t(256) * 15));
        return blocks * 256;
    }

    TortureOutcome
    run(const DomainSetup &setup, const CrashPoint &point,
        std::uint64_t seed, double survive_prob) override
    {
        return runScenario(setup, seed, [&](Machine &m) {
            GpSrad srad(m, params());
            return srad.runCrashPoint(1, point, survive_prob,
                                      setup.open_persist_window);
        });
    }

  private:
    static SradParams
    params()
    {
        SradParams p;
        p.width = 64;
        p.height = 32;
        p.iterations = 3;
        return p;
    }
};

} // namespace

std::vector<std::string>
registeredInvariants()
{
    return {"kvs", "db-insert", "db-update", "prefix-sum", "srad"};
}

std::vector<std::string>
extendedInvariants()
{
    return {"serve", "pmheap"};
}

std::unique_ptr<RecoveryInvariant>
makeInvariant(const std::string &name)
{
    if (name == "kvs")
        return std::make_unique<KvsInvariant>();
    if (name == "db-insert")
        return std::make_unique<DbInvariant>(GpDb::TxnKind::Insert);
    if (name == "db-update")
        return std::make_unique<DbInvariant>(GpDb::TxnKind::Update);
    if (name == "prefix-sum")
        return std::make_unique<PsInvariant>();
    if (name == "srad")
        return std::make_unique<SradInvariant>();
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
