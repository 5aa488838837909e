/**
 * @file
 * libGPM checkpointing (Table 2, bottom block; section 5.3).
 *
 * A checkpoint file holds *groups* of semantically related data
 * structures. The library keeps two copies of each group's data on PM
 * (double buffering): a *consistent* copy and a *working* copy. A
 * checkpoint writes the working copy with a GPU kernel whose warps
 * copy contiguous, 256 B-aligned chunks (maximizing PCIe and Optane
 * bandwidth — the reason checkpointing tops Fig 12), persists it, and
 * then atomically flips a per-group valid index. A crash mid-
 * checkpoint therefore always leaves the previous consistent copy
 * recoverable.
 *
 * Restore copies the consistent buffer back into the registered
 * volatile structures; as in the paper, the mapping is positional, so
 * structures must be re-registered in creation order before restoring
 * (pointer-based structures cannot be checkpointed).
 *
 * On non-GPM platforms the same API routes through the corresponding
 * CAP persist path, which is how the checkpointing rows of Figures 9
 * and 10 compare platforms over identical workload code.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gpusim/kernel.hpp"
#include "platform/machine.hpp"

namespace gpm {

/** On-PM header of a gpmcp file. */
struct GpmCpHeader {
    std::uint32_t magic = 0;
    std::uint32_t groups = 0;
    std::uint32_t elements_per_group = 0;  ///< registration slots
    std::uint32_t pad = 0;
    std::uint64_t group_capacity = 0;      ///< bytes per group per buffer
};

/** Per-group metadata persisted next to the header. */
struct GpmCpGroupMeta {
    std::uint32_t valid_idx = 0;  ///< which buffer is consistent (0/1)
    std::uint32_t seq = 0;        ///< checkpoint sequence number
};

/** Host handle to a PM-resident checkpoint (gpmcp_*). */
class GpmCheckpoint
{
  public:
    static constexpr std::uint32_t kMagic = 0x47504d43;  // 'GPMC'

    /**
     * Create a checkpoint file able to hold @p size bytes per group
     * across @p groups groups, each accepting up to @p elements
     * registered structures (gpmcp_create).
     */
    static GpmCheckpoint create(Machine &m, const std::string &path,
                                std::uint64_t size,
                                std::uint32_t elements,
                                std::uint32_t groups);

    /** Open an existing checkpoint file (gpmcp_open). */
    static GpmCheckpoint open(Machine &m, const std::string &path);

    /** Close the handle (gpmcp_close). */
    void close();

    /**
     * Register a volatile data structure with @p group (gpmcp_register).
     * Layout within the group is positional: registration order at
     * restore time must match the order used when checkpointing.
     */
    void registerData(std::uint32_t group, void *data,
                      std::uint64_t size);

    /**
     * Checkpoint every structure registered with @p group
     * (gpmcp_checkpoint): copy to the working buffer, persist, flip.
     */
    void checkpoint(std::uint32_t group);

    /** Restore @p group's structures from the consistent buffer
     *  (gpmcp_restore). */
    void restore(std::uint32_t group);

    /**
     * Fault injection: make the next checkpoint's copy kernel crash
     * after @p frac of its thread executions (GPM platforms only).
     * The KernelCrashed exception propagates to the caller, which
     * should then invoke PmPool::crash(); the flip never happens, so
     * the previous consistent copy must survive.
     */
    void
    armCrashNextCheckpoint(double frac)
    {
        GPM_REQUIRE(frac >= 0.0 && frac <= 1.0, "bad crash fraction");
        crash_frac_ = frac;
    }

    /**
     * Fault injection with a full crash-point descriptor. With
     * @p in_flip false the descriptor arms the next checkpoint's copy
     * kernel; with @p in_flip true it arms the flip kernel instead —
     * CrashPoint::afterThreadPhases(0) there dies *between* copy and
     * flip (data fully persisted, valid index never advanced), the
     * classic double-buffering boundary.
     */
    void
    armCrashNextCheckpoint(const CrashPoint &point, bool in_flip = false)
    {
        crash_point_ = point;
        crash_in_flip_ = in_flip;
    }

    /** Sequence number of the last completed checkpoint of @p group. */
    std::uint32_t sequence(std::uint32_t group) const;

    /** Which buffer index is currently consistent for @p group. */
    std::uint32_t validIndex(std::uint32_t group) const;

    /** Bytes registered so far in @p group. */
    std::uint64_t groupBytes(std::uint32_t group) const;

    const GpmCpHeader &header() const { return hdr_; }

    /** PM address of buffer @p buf (0/1) of @p group (test hook). */
    std::uint64_t bufferAddr(std::uint32_t group,
                             std::uint32_t buf) const;

    /**
     * The checkpoint's bulk copy of @p bytes from @p src (padded to
     * whole 4 B words) into PM offset @p dst: each warp streams one
     * contiguous 4 KiB chunk in 16 B lane stores. With @p fence every
     * thread that owns a word of the chunk ends on a system-scope
     * fence (GPM); without, the stores wait for the CPU's flush
     * (GPM-NDP). Public so tests can launch it against a reference.
     */
    static KernelDesc copyKernel(const char *name, const std::uint8_t *src,
                                 std::uint64_t dst, std::uint64_t bytes,
                                 std::uint32_t warp_size, bool fence);

  private:
    struct Registration {
        void *data;
        std::uint64_t size;
        std::uint64_t offset;  ///< within the group buffer
    };

    GpmCheckpoint(Machine &m, PmRegion region, GpmCpHeader hdr);

    std::uint64_t metaOffset() const { return region_.offset + 256; }
    std::uint64_t dataOffset() const;
    std::uint64_t metaAddr(std::uint32_t group) const;
    GpmCpGroupMeta meta(std::uint32_t group) const;

    /** GPU copy kernel + in-kernel persistence + GPU flip. */
    void checkpointGpm(std::uint32_t group, std::uint64_t dst,
                       std::uint64_t bytes);
    /** Host-side flip of the valid index (CAP paths). */
    void flipHost(std::uint32_t group);
    /** Declare ranges + order to an attached gpmcheck recorder. */
    void declareDurableIntent(const std::string &path) const;

    Machine *m_;
    PmRegion region_;
    GpmCpHeader hdr_;
    std::vector<std::vector<Registration>> regs_;  ///< per group
    std::vector<std::uint64_t> used_;              ///< bytes per group
    std::vector<std::uint8_t> staging_;            ///< HBM-side gather
    double crash_frac_ = -1.0;  ///< armed fault-injection point (<0: off)
    std::optional<CrashPoint> crash_point_;  ///< descriptor-armed point
    bool crash_in_flip_ = false;  ///< aim crash_point_ at the flip kernel
};

} // namespace gpm
