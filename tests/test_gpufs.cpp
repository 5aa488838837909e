/**
 * @file
 * GPUfs comparator tests: Machine's one GPUfs rule (per-thread writers
 * deadlock its per-threadblock gwrite(), files stop at 2 GB — the
 * behaviours behind Fig 9's "*" entries) and its persist path.
 */
#include <gtest/gtest.h>

#include "gpm/gpm_checkpoint.hpp"
#include "gpm/gpm_runtime.hpp"
#include "platform/machine.hpp"

namespace gpm {
namespace {

constexpr PlatformKind kAllKinds[] = {
    PlatformKind::Gpm,   PlatformKind::GpmNdp, PlatformKind::GpmEadr,
    PlatformKind::CapFs, PlatformKind::CapMm,  PlatformKind::CapEadr,
    PlatformKind::Gpufs, PlatformKind::CpuOnly,
};

TEST(Gpufs, RequiresGpufsPlatform)
{
    // The GPUfs rule and its RPC-priced path apply on GPUfs only: the
    // clock of a host persist depends on the RPC cost there and
    // nowhere else; platforms whose kernels persist reject the call.
    SimConfig cfg;
    SimConfig slow_rpc = cfg;
    slow_rpc.gpufs_call_ns *= 2;
    const std::uint64_t big = cfg.gpufs_max_file_bytes + 1;
    const std::uint8_t b[16] = {};
    for (const PlatformKind kind : kAllKinds) {
        const bool gpufs = kind == PlatformKind::Gpufs;
        Machine m(cfg, kind, 16_MiB);
        EXPECT_EQ(m.supports(WriteGrain::Thread), !gpufs)
            << platformName(kind);
        EXPECT_EQ(m.supports(WriteGrain::Block, big), !gpufs)
            << platformName(kind);
        EXPECT_TRUE(m.supports(WriteGrain::Block, 4096))
            << platformName(kind);

        const PmRegion r = m.pool().map("f", 4096, true);
        if (inKernelPersistence(kind) || kind == PlatformKind::GpmNdp ||
            kind == PlatformKind::CpuOnly) {
            EXPECT_THROW(m.capPersist(r.offset, b, sizeof(b), 4),
                         FatalError)
                << platformName(kind);
            continue;
        }
        Machine s(slow_rpc, kind, 16_MiB);
        s.pool().map("f", 4096, true);
        m.capPersist(r.offset, b, sizeof(b), 4);
        s.capPersist(r.offset, b, sizeof(b), 4);
        EXPECT_EQ(s.now() != m.now(), gpufs) << platformName(kind);
    }
}

TEST(Gpufs, EnforcesTwoGigabyteFileLimit)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpufs, 16_MiB);
    EXPECT_TRUE(m.supports(WriteGrain::Block, std::uint64_t(2) << 30));
    EXPECT_FALSE(
        m.supports(WriteGrain::Block, (std::uint64_t(2) << 30) + 1));

    // A persist larger than the limit is refused before any byte moves
    // (a small limit keeps the buffer small).
    cfg.gpufs_max_file_bytes = 4096;
    Machine small(cfg, PlatformKind::Gpufs, 16_MiB);
    const PmRegion r = small.pool().map("f", 8192, true);
    std::vector<std::uint8_t> buf(8192, 1);
    EXPECT_THROW(small.capPersist(r.offset, buf.data(), buf.size(), 1),
                 FatalError);
    EXPECT_EQ(small.pool().load<std::uint8_t>(r.offset), 0);
    EXPECT_NO_THROW(small.capPersist(r.offset, buf.data(), 4096, 1));
}

TEST(Gpufs, PersistIsDurableAcrossCrash)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpufs, 16_MiB);
    const PmRegion r = m.pool().map("data", 64_KiB, true);
    std::vector<std::uint32_t> chunk(256);
    for (std::size_t i = 0; i < chunk.size(); ++i)
        chunk[i] = static_cast<std::uint32_t>(i * 3);

    m.capPersist(r.offset + 2 * 1024, chunk.data(), 1024, 1);
    EXPECT_EQ(m.pool().pendingExtents(), 0u);  // the host OS persisted

    // Persisted through the host OS: survives a crash.
    m.pool().crash();
    std::vector<std::uint32_t> back(256, 0);
    m.pool().read(r.offset + 2 * 1024, back.data(), 1024);
    EXPECT_EQ(back, chunk);
    EXPECT_EQ(m.pool().loadDurable<std::uint32_t>(r.offset + 2 * 1024 +
                                                  40),
              chunk[10]);
}

TEST(Gpufs, PerThreadMisuseDeadlocks)
{
    // gwrite() is per threadblock: a workload whose threads write on
    // their own would hang the kernel, so GPUfs cannot run it at any
    // file size. Block writers are fine.
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpufs, 16_MiB);
    EXPECT_FALSE(m.supports(WriteGrain::Thread));
    EXPECT_FALSE(m.supports(WriteGrain::Thread, 4096));
    EXPECT_TRUE(m.supports(WriteGrain::Block, 4096));
}

TEST(Gpufs, WriteBeyondEofIsUserError)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpufs, 16_MiB);
    std::uint64_t v = 0;
    EXPECT_THROW(m.capPersist(16_MiB - 4, &v, 8, 1), FatalError);
}

TEST(Gpufs, RpcCostsMakeItSlowerThanGpmPersists)
{
    SimConfig cfg;
    std::vector<std::uint8_t> buf(4_MiB, 1);

    // 4 MiB persisted from the host side costs one RPC per MiB on top
    // of the OS write path.
    Machine g(cfg, PlatformKind::Gpufs, 16_MiB);
    const PmRegion r = g.pool().map("data", 4_MiB, true);
    const SimNs gpufs_start = g.now();
    g.capPersist(r.offset, buf.data(), buf.size(), 1);
    const SimNs gpufs_ns = g.now() - gpufs_start;
    EXPECT_GE(gpufs_ns, 4 * cfg.gpufs_call_ns);
    EXPECT_EQ(g.persistPayloadBytes(), 4_MiB);
    EXPECT_EQ(g.pcieWriteBytes(), 4_MiB);

    // GPM persists the same bytes from inside a kernel: a gpmcp
    // checkpoint's copy stores plus fences, then the flip.
    Machine m(cfg, PlatformKind::Gpm, 16_MiB);
    gpmPersistBegin(m);
    GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", 4_MiB, 1, 1);
    cp.registerData(0, buf.data(), buf.size());
    const SimNs gpm_start = m.now();
    cp.checkpoint(0);
    const SimNs gpm_ns = m.now() - gpm_start;
    EXPECT_GT(gpm_ns, 0.0);
    EXPECT_GT(gpufs_ns, gpm_ns);
}

} // namespace
} // namespace gpm
