/**
 * @file
 * Per-workload recovery invariants for the crash-torture matrix.
 *
 * A RecoveryInvariant adapts one workload's descriptor-armed crash
 * entry point (GpKvs::runCrashPoint and friends) to a common shape:
 * given a persist-domain setup, a concrete CrashPoint, an eviction
 * seed, and a line-survival probability, run the crash + recovery and
 * report what happened — did the crash fire, did recovery run, does
 * the recovered durable state satisfy the workload's strict
 * invariant, and what do the pool's crash counters say.
 *
 * Domain sweep mapping (one PersistDomain axis -> machine setup):
 *
 *   McDurable   = PlatformKind::Gpm  + persist window open  (GPM)
 *   LlcVolatile = PlatformKind::Gpm  + persist window closed (the
 *                 DDIO trap of section 6.1: fences order, nothing
 *                 guarantees durability)
 *   LlcDurable  = PlatformKind::GpmEadr (eADR: durable on arrival)
 *
 * The registry maps workload names to adapter factories so the runner
 * and the CLI driver can sweep by name.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crashtest/crash_scheduler.hpp"
#include "memsim/sim_config.hpp"
#include "platform/platform_kind.hpp"

namespace gpm {

class PmEventRecorder;

/** Machine-level realisation of one PersistDomain under test. */
struct DomainSetup {
    PersistDomain domain = PersistDomain::McDurable;
    PlatformKind kind = PlatformKind::Gpm;
    bool open_persist_window = true;

    /** When non-null, attached to the scenario's PmPool before the
     *  workload runs: gpmcheck captures the persistency event stream
     *  this way. The default torture path leaves it null, so the
     *  1200-scenario signature is untouched. */
    PmEventRecorder *recorder = nullptr;

    /** Media backend (SimConfig::media) for the scenario's Machine.
     *  Media models are timing-only — PmPool owns functional
     *  durability — so every backend reproduces the same functional
     *  outcomes and the same signature; this is never folded into
     *  scenario keys. */
    MediaConfig media{};
};

/** The sweep mapping described in the file header. */
DomainSetup domainSetupFor(PersistDomain d);

/** Short stable name: "llc-volatile" / "mc-durable" / "llc-durable". */
const char *persistDomainName(PersistDomain d);

/** Inverse of persistDomainName; throws FatalError on unknown names. */
PersistDomain parsePersistDomain(const std::string &name);

/** What one crash + recovery scenario produced. */
struct TortureOutcome {
    bool fired = false;         ///< the armed crash point triggered
    bool recovery_ran = false;  ///< the workload's recovery executed
    bool strict_ok = false;     ///< durable state passed the invariant
    std::uint64_t state_hash = 0;  ///< FNV over recovered durable state
    std::string error;          ///< nonempty: the scenario threw

    // PmPool crash-model counters, for runner consistency checks.
    std::uint64_t crashes = 0;
    std::uint64_t crash_sub_extents = 0;  ///< 128 B tearing decisions
    std::uint64_t crash_survivors = 0;    ///< sub-extents that survived
};

/** One workload adapted to the torture matrix. */
class RecoveryInvariant
{
  public:
    virtual ~RecoveryInvariant() = default;

    /** Registry name (also the CLI --workloads token). */
    virtual std::string name() const = 0;

    /**
     * Thread phases a clean run of the *doomed* kernel executes —
     * the denominator CrashSpec fractions materialize against.
     */
    virtual std::uint64_t doomedThreadPhases() const = 0;

    /** Run one scenario. Must not throw: failures land in error. */
    virtual TortureOutcome run(const DomainSetup &setup,
                               const CrashPoint &point,
                               std::uint64_t seed,
                               double survive_prob) = 0;
};

/** Names of every registered workload adapter, in sweep order.
 *  Extended adapters ("serve") are reachable via makeInvariant and
 *  the CLI --workloads flag but stay out of this default axis, which
 *  keeps the pinned default/scale sweep signatures stable. */
std::vector<std::string> registeredInvariants();

/** Instantiate an adapter; throws FatalError on unknown names. */
std::unique_ptr<RecoveryInvariant> makeInvariant(
    const std::string &name);

/** Extended (opt-in) adapter names reachable via makeInvariant and
 *  --workloads but excluded from the default axis. */
std::vector<std::string> extendedInvariants();

/** The "serve" adapter: a mid-traffic power failure inside the
 *  ServiceEngine (src/service) — acknowledged-write durability across
 *  key-sharded multi-pool pipelines. Defined in serve_invariant.cpp. */
std::unique_ptr<RecoveryInvariant> makeServeInvariant();

/** The "pmheap" adapter: GpmHeap/GpmMap allocator + container crash
 *  consistency (leak and double-allocation checked against a host
 *  oracle). Defined in pmheap_invariant.cpp. */
std::unique_ptr<RecoveryInvariant> makePmheapInvariant();

} // namespace gpm
