/**
 * @file
 * Unit tests for the Machine platform layer: clock accounting, the
 * per-platform persist paths, fence-latency selection, DDIO toggling,
 * counters for Table 4 / Fig 12, and timing monotonicity properties.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "platform/machine.hpp"

namespace gpm {
namespace {

KernelDesc
storeKernel(std::uint64_t threads, std::uint64_t stride,
            bool fence = true)
{
    KernelDesc k;
    k.name = "stores";
    k.blocks = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, threads / 128));
    k.block_threads = 128;
    k.phases.push_back([stride, fence](ThreadCtx &ctx) {
        const std::uint64_t v = ctx.globalId();
        ctx.pmStore(ctx.globalId() * stride, v);
        if (fence)
            ctx.threadfenceSystem();
    });
    return k;
}

TEST(Machine, ClockAdvancesMonotonically)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 16_MiB);
    EXPECT_DOUBLE_EQ(m.now(), 0.0);
    m.cpuCompute(1000, 4);
    const SimNs t1 = m.now();
    EXPECT_GT(t1, 0.0);
    m.dmaDeviceToHost(1_MiB);
    EXPECT_GT(m.now(), t1);
}

TEST(Machine, DdioToggleOnlyMovesDomainOnGpm)
{
    SimConfig cfg;
    Machine gpm(cfg, PlatformKind::Gpm, 1_MiB);
    EXPECT_EQ(gpm.pool().domain(), PersistDomain::LlcVolatile);
    gpm.ddioOff();
    EXPECT_EQ(gpm.pool().domain(), PersistDomain::McDurable);
    gpm.ddioOn();
    EXPECT_EQ(gpm.pool().domain(), PersistDomain::LlcVolatile);

    Machine ndp(cfg, PlatformKind::GpmNdp, 1_MiB);
    ndp.ddioOff();
    EXPECT_EQ(ndp.pool().domain(), PersistDomain::LlcVolatile);

    Machine eadr(cfg, PlatformKind::GpmEadr, 1_MiB);
    eadr.ddioOff();
    EXPECT_EQ(eadr.pool().domain(), PersistDomain::LlcDurable);
}

TEST(Machine, FenceHeavyKernelSlowerUnderMcDomain)
{
    SimConfig cfg;
    // Same kernel: fences at the memory controller (GPM) cost more
    // than fences completing at the LLC (eADR).
    Machine a(cfg, PlatformKind::Gpm, 64_MiB);
    gpmPersistBegin(a);
    a.runKernel(storeKernel(4096, 4096));
    Machine b(cfg, PlatformKind::GpmEadr, 64_MiB);
    b.runKernel(storeKernel(4096, 4096));
    EXPECT_GT(a.now(), b.now());
}

TEST(Machine, KernelTimeMonotonicInThreads)
{
    SimConfig cfg;
    SimNs prev = 0;
    for (const std::uint64_t threads : {1024u, 4096u, 16384u}) {
        Machine m(cfg, PlatformKind::Gpm, 256_MiB);
        gpmPersistBegin(m);
        const SimNs t0 = m.now();
        m.runKernel(storeKernel(threads, 4096));
        const SimNs dt = m.now() - t0;
        EXPECT_GT(dt, prev);
        prev = dt;
    }
}

TEST(Machine, PersistentKernelSkipsLaunchOverhead)
{
    SimConfig cfg;
    Machine a(cfg, PlatformKind::GpmEadr, 16_MiB);
    Machine b(cfg, PlatformKind::GpmEadr, 16_MiB);
    KernelDesc k = storeKernel(128, 64, false);
    a.runKernel(k);
    k.no_launch_overhead = true;
    b.runKernel(k);
    EXPECT_NEAR(a.now() - b.now(), cfg.kernel_launch_ns, 1e-6);
}

TEST(Machine, CapMmPersistIsFunctionalAndCharged)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::CapMm, 16_MiB);
    const PmRegion r = m.pool().map("buf", 1_MiB, true);
    std::vector<std::uint8_t> src(1_MiB, 0x7e);
    const SimNs t0 = m.now();
    m.capPersist(r.offset, src.data(), src.size(), 16);
    EXPECT_GT(m.now(), t0);
    EXPECT_EQ(m.pool().loadDurable<std::uint8_t>(r.offset + 12345),
              0x7e);
    EXPECT_EQ(m.persistPayloadBytes(), 1_MiB);
    EXPECT_EQ(m.pcieWriteBytes(), 1_MiB);  // the DMA leg
}

TEST(Machine, CapFsSlowerThanCapMmForSamePayload)
{
    SimConfig cfg;
    Machine fs(cfg, PlatformKind::CapFs, 16_MiB);
    Machine mm(cfg, PlatformKind::CapMm, 16_MiB);
    const PmRegion rf = fs.pool().map("buf", 1_MiB, true);
    const PmRegion rm = mm.pool().map("buf", 1_MiB, true);
    std::vector<std::uint8_t> src(1_MiB, 1);
    fs.capPersist(rf.offset, src.data(), src.size(), 16);
    mm.capPersist(rm.offset, src.data(), src.size(), 16);
    EXPECT_GT(fs.now(), mm.now());
}

TEST(Machine, CapPersistChunksOnlyMovesDirtyChunks)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::CapMm, 16_MiB);
    const PmRegion r = m.pool().map("buf", 64_KiB, true);
    // One 16 B record written in each of chunks 1 and 3.
    const std::vector<std::uint64_t> offs = {4096, 3 * 4096 + 32};
    std::vector<std::uint8_t> host(64_KiB, 0);
    for (const std::uint64_t off : offs)
        std::fill_n(host.begin() + off, 16, 0x11);
    m.capPersistChunks(r.offset, host.data(), host.size(), {offs, 16},
                       4096, 8);
    EXPECT_EQ(m.persistPayloadBytes(), 2u * 4096);
    // Chunk 1 durable, chunk 0 untouched.
    EXPECT_EQ(m.pool().loadDurable<std::uint8_t>(r.offset + 4096),
              0x11);
    EXPECT_EQ(m.pool().loadDurable<std::uint8_t>(r.offset), 0x00);
    // No records: free and silent.
    const SimNs t = m.now();
    m.capPersistChunks(r.offset, host.data(), host.size(), {}, 4096, 8);
    EXPECT_DOUBLE_EQ(m.now(), t);
}

TEST(Machine, CapPersistChunksClipsTheLastChunkToTheStructure)
{
    // A 1 KiB structure in 4 KiB chunks: chunk 0 moves 1 KiB, never
    // reading past the device copy nor writing past the region.
    SimConfig cfg;
    Machine m(cfg, PlatformKind::CapMm, 16_MiB);
    const PmRegion r = m.pool().map("buf", 1_KiB, true);
    const PmRegion next = m.pool().map("next", 4_KiB, true);
    const std::vector<std::uint64_t> last = {1_KiB - 16};
    std::vector<std::uint8_t> host(1_KiB, 0);
    std::fill_n(host.end() - 16, 16, 0x22);
    m.capPersistChunks(r.offset, host.data(), host.size(), {last, 16},
                       4096, 8);
    EXPECT_EQ(m.persistPayloadBytes(), 1_KiB);
    EXPECT_EQ(m.pcieWriteBytes(), 1_KiB);
    EXPECT_EQ(m.pool().loadDurable<std::uint8_t>(r.offset + 1_KiB - 1),
              0x22);
    EXPECT_EQ(m.pool().loadDurable<std::uint8_t>(next.offset), 0x00);
    // A record in chunk 1, or running past the structure, is refused.
    const std::vector<std::uint64_t> chunk1 = {4096};
    EXPECT_THROW(m.capPersistChunks(r.offset, host.data(), host.size(),
                                    {chunk1, 16}, 4096, 8),
                 FatalError);
    EXPECT_THROW(m.capPersistChunks(r.offset, host.data(), host.size(),
                                    {last, 32}, 4096, 8),
                 FatalError);
}

TEST(Machine, CpuPersistScatteredDrainsEverything)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::GpmNdp, 16_MiB);
    m.runKernel(storeKernel(256, 512, false));
    EXPECT_GT(m.pool().pendingExtents(), 0u);
    m.cpuPersistScattered(256 * 64, 8);
    EXPECT_EQ(m.pool().pendingExtents(), 0u);
}

TEST(Machine, GpufsWriteRequiresGpufsPlatform)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 16_MiB);
    const PmRegion r = m.pool().map("f", 4096, true);
    std::uint8_t b[16] = {};
    EXPECT_THROW(m.capPersist(r.offset, b, 16, 1), FatalError);
    const std::vector<std::uint64_t> first = {0};
    EXPECT_THROW(m.capPersistChunks(r.offset, b, 16, {first, 16}, 16, 1),
                 FatalError);

    Machine g(cfg, PlatformKind::Gpufs, 16_MiB);
    EXPECT_TRUE(g.supports(WriteGrain::Block, 1_GiB));
    EXPECT_FALSE(g.supports(WriteGrain::Block, 3_GiB));
    const PmRegion rg = g.pool().map("f", 4096, true);
    g.capPersist(rg.offset, b, 16, 1);
    EXPECT_EQ(g.pool().pendingExtents(), 0u);  // OS persisted it
}

TEST(Machine, EadrKernelFasterThanGpmOnRandomWrites)
{
    SimConfig cfg;
    // Random-tier media time leaves the critical path under eADR.
    Machine a(cfg, PlatformKind::Gpm, 256_MiB);
    gpmPersistBegin(a);
    Machine b(cfg, PlatformKind::GpmEadr, 256_MiB);
    a.runKernel(storeKernel(16384, 8192));
    b.runKernel(storeKernel(16384, 8192));
    EXPECT_GT(a.now(), 2.0 * b.now());
}

TEST(Machine, CpuFlushScalingMatchesFig3a)
{
    SimConfig cfg;
    EXPECT_DOUBLE_EQ(cfg.cpuFlushScaling(1), 1.0);
    EXPECT_NEAR(cfg.cpuFlushScaling(64), 1.46, 0.02);
    EXPECT_GT(cfg.cpuFlushScaling(16), cfg.cpuFlushScaling(4));
    EXPECT_LT(cfg.cpuFlushScaling(1000), cfg.cpu_flush_plateau);
}

TEST(Machine, WpqAbsorbsSmallBursts)
{
    SimConfig cfg;
    // A burst under the WPQ capacity costs (almost) no media time.
    Machine small(cfg, PlatformKind::Gpm, 64_MiB);
    gpmPersistBegin(small);
    const SimNs t0 = small.now();
    small.runKernel(storeKernel(64, 8192, false));  // 8 KiB random
    const SimNs small_dt = small.now() - t0;

    Machine big(cfg, PlatformKind::Gpm, 256_MiB);
    gpmPersistBegin(big);
    const SimNs t1 = big.now();
    big.runKernel(storeKernel(8192, 8192, false));  // 1 MiB random
    const SimNs big_dt = big.now() - t1;
    EXPECT_GT(big_dt, 20.0 * small_dt / 128.0 * 1.0);
    EXPECT_GT(big_dt / 128.0, small_dt / 4.0);  // superlinear: media
}

} // namespace
} // namespace gpm
