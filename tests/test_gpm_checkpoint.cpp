/**
 * @file
 * Unit + property tests for libGPM checkpointing: creation, group
 * registration, checkpoint/restore round trips, double-buffer flip
 * atomicity under injected crashes, and platform routing.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "gpm/gpm_checkpoint.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"

namespace gpm {
namespace {

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t salt)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(i * 31 + salt);
    return v;
}

TEST(GpmCheckpoint, CreateOpenAndGeometry)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", 1000, 4, 3);
    EXPECT_EQ(cp.header().groups, 3u);
    EXPECT_EQ(cp.header().group_capacity, alignUp(1000, 256));
    EXPECT_TRUE(isAligned(cp.bufferAddr(0, 0), 256));
    EXPECT_TRUE(isAligned(cp.bufferAddr(2, 1), 256));

    GpmCheckpoint reopened = GpmCheckpoint::open(m, "cp");
    EXPECT_EQ(reopened.header().group_capacity,
              cp.header().group_capacity);
    EXPECT_THROW(GpmCheckpoint::open(m, "absent"), FatalError);
}

TEST(GpmCheckpoint, RegistrationLimits)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", 512, 2, 1);
    std::vector<std::uint8_t> a(100), b(100), c(100);
    cp.registerData(0, a.data(), a.size());
    cp.registerData(0, b.data(), b.size());
    EXPECT_THROW(cp.registerData(0, c.data(), c.size()), FatalError);
    EXPECT_THROW(cp.registerData(5, a.data(), 1), FatalError);

    GpmCheckpoint big = GpmCheckpoint::create(m, "cp2", 256, 8, 1);
    std::vector<std::uint8_t> huge(600);
    EXPECT_THROW(big.registerData(0, huge.data(), huge.size()),
                 FatalError);
}

TEST(GpmCheckpoint, CheckpointRestoreRoundTrip)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", 4096, 4, 1);
    std::vector<std::uint8_t> a = pattern(1000, 1);
    std::vector<std::uint8_t> b = pattern(500, 2);
    cp.registerData(0, a.data(), a.size());
    cp.registerData(0, b.data(), b.size());
    cp.checkpoint(0);
    EXPECT_EQ(cp.sequence(0), 1u);

    // Clobber the volatile state, restore, verify both structures.
    std::fill(a.begin(), a.end(), 0);
    std::fill(b.begin(), b.end(), 0);
    cp.restore(0);
    EXPECT_EQ(a, pattern(1000, 1));
    EXPECT_EQ(b, pattern(500, 2));
}

TEST(GpmCheckpoint, ReopenAfterFlipReportsLatestCheckpoint)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    gpmPersistBegin(m);
    std::vector<std::uint8_t> data = pattern(3000, 1);
    {
        GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", 4096, 4, 2);
        cp.registerData(0, data.data(), data.size());
        cp.checkpoint(0);
        const std::uint32_t first_valid = cp.validIndex(0);

        // A second checkpoint flips to the other buffer. Refill in
        // place: the registration pins data.data().
        const std::vector<std::uint8_t> next = pattern(3000, 2);
        std::copy(next.begin(), next.end(), data.begin());
        cp.checkpoint(0);
        EXPECT_NE(cp.validIndex(0), first_valid);
    }

    // A fresh handle (reboot) sees the flipped index, the advanced
    // sequence, and restores the *second* checkpoint's contents;
    // group 1, never checkpointed, is still at sequence 0.
    GpmCheckpoint reopened = GpmCheckpoint::open(m, "cp");
    EXPECT_EQ(reopened.sequence(0), 2u);
    EXPECT_EQ(reopened.sequence(1), 0u);
    std::vector<std::uint8_t> out(3000, 0);
    reopened.registerData(0, out.data(), out.size());
    reopened.restore(0);
    EXPECT_EQ(out, pattern(3000, 2));
}

TEST(GpmCheckpoint, GroupsAreIndependent)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", 2048, 2, 2);
    std::vector<std::uint8_t> g0 = pattern(512, 3);
    std::vector<std::uint8_t> g1 = pattern(512, 4);
    cp.registerData(0, g0.data(), g0.size());
    cp.registerData(1, g1.data(), g1.size());

    cp.checkpoint(0);
    cp.checkpoint(0);
    cp.checkpoint(1);
    EXPECT_EQ(cp.sequence(0), 2u);
    EXPECT_EQ(cp.sequence(1), 1u);

    std::fill(g0.begin(), g0.end(), 0);
    cp.restore(0);
    EXPECT_EQ(g0, pattern(512, 3));
    std::fill(g1.begin(), g1.end(), 0);
    cp.restore(1);
    EXPECT_EQ(g1, pattern(512, 4));
}

TEST(GpmCheckpoint, DoubleBufferFlipAlternates)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", 256, 1, 1);
    std::vector<std::uint8_t> data = pattern(256, 5);
    cp.registerData(0, data.data(), data.size());
    const std::uint32_t v0 = cp.validIndex(0);
    cp.checkpoint(0);
    EXPECT_EQ(cp.validIndex(0), v0 ^ 1u);
    cp.checkpoint(0);
    EXPECT_EQ(cp.validIndex(0), v0);
}

TEST(GpmCheckpoint, EmptyGroupOperationsAreUserErrors)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB);
    GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", 256, 1, 1);
    EXPECT_THROW(cp.checkpoint(0), FatalError);
    EXPECT_THROW(cp.restore(0), FatalError);
}

class CheckpointCrash : public ::testing::TestWithParam<int>
{
};

TEST_P(CheckpointCrash, MidCheckpointCrashKeepsPreviousCopy)
{
    SimConfig cfg;
    Machine m(cfg, PlatformKind::Gpm, 64_MiB,
              static_cast<std::uint64_t>(GetParam()) + 1);
    GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", 64_KiB, 2, 1);
    std::vector<std::uint8_t> data = pattern(60000, 6);
    cp.registerData(0, data.data(), data.size());
    cp.checkpoint(0);  // consistent copy: pattern(6)
    const std::uint32_t valid_before = cp.validIndex(0);

    // New volatile state (refilled in place — the registration pins
    // data.data(); a vector move-assign would free the registered
    // buffer under the copy kernel); die mid-copy at a swept fraction.
    const std::vector<std::uint8_t> next = pattern(60000, 7);
    std::copy(next.begin(), next.end(), data.begin());
    cp.armCrashNextCheckpoint(0.1 * GetParam());
    try {
        cp.checkpoint(0);
        FAIL() << "crash did not fire";
    } catch (const KernelCrashed &) {
    }
    m.pool().crash(/*survive_prob=*/(GetParam() % 3) * 0.4);

    // Reboot: the flip never happened; restore yields the old copy.
    GpmCheckpoint reopened = GpmCheckpoint::open(m, "cp");
    EXPECT_EQ(reopened.validIndex(0), valid_before);
    std::vector<std::uint8_t> out(60000, 0);
    reopened.registerData(0, out.data(), out.size());
    reopened.restore(0);
    EXPECT_EQ(out, pattern(60000, 6));
}

INSTANTIATE_TEST_SUITE_P(Fracs, CheckpointCrash,
                         ::testing::Range(0, 9));

TEST(GpmCheckpoint, WorksOnEveryPlatform)
{
    for (PlatformKind kind :
         {PlatformKind::Gpm, PlatformKind::GpmNdp, PlatformKind::GpmEadr,
          PlatformKind::CapFs, PlatformKind::CapMm,
          PlatformKind::CapEadr, PlatformKind::Gpufs,
          PlatformKind::CpuOnly}) {
        SimConfig cfg;
        Machine m(cfg, kind, 64_MiB);
        GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", 8192, 1, 1);
        std::vector<std::uint8_t> data = pattern(8000, 8);
        cp.registerData(0, data.data(), data.size());
        cp.checkpoint(0);
        std::fill(data.begin(), data.end(), 0);
        cp.restore(0);
        EXPECT_EQ(data, pattern(8000, 8)) << platformName(kind);
        // Whatever the platform, a crash after the checkpoint must
        // preserve the data (it was reported persistent).
        m.pool().crash();
        std::fill(data.begin(), data.end(), 0);
        cp.restore(0);
        EXPECT_EQ(data, pattern(8000, 8)) << platformName(kind);
    }
}

TEST(GpmCheckpoint, ChargesLessTimeOnGpmThanCapFs)
{
    SimConfig cfg;
    Machine a(cfg, PlatformKind::Gpm, 64_MiB);
    Machine b(cfg, PlatformKind::CapFs, 64_MiB);
    std::vector<std::uint8_t> data = pattern(1 << 20, 9);
    auto run = [&](Machine &m) {
        GpmCheckpoint cp = GpmCheckpoint::create(m, "cp", data.size(),
                                                 1, 1);
        cp.registerData(0, data.data(), data.size());
        const SimNs t0 = m.now();
        cp.checkpoint(0);
        return m.now() - t0;
    };
    EXPECT_LT(run(a), run(b));
}

/**
 * The 4 B word-strided checkpoint copy: lane l writes words l, l + 32,
 * ... of its warp's 4 KiB chunk, one 4 B store each, and fences iff it
 * wrote a word. The reference GpmCheckpoint::copyKernel's 16 B lane
 * stores must model exactly.
 */
KernelDesc
wordStridedCopy(const std::uint8_t *src, std::uint64_t dst,
                std::uint64_t bytes, std::uint32_t warp, bool fence)
{
    const std::uint64_t words = ceilDiv(bytes, 4);
    const std::uint32_t words_per_thread = 32;
    const std::uint32_t tpb = 256;
    KernelDesc copy;
    copy.name = "word_strided_copy";
    copy.blocks = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, ceilDiv(ceilDiv(words, words_per_thread), tpb)));
    copy.block_threads = tpb;
    copy.phases.push_back([=](ThreadCtx &ctx) {
        const std::uint64_t base =
            ctx.globalWarp() * std::uint64_t(warp) * words_per_thread;
        bool wrote = false;
        for (std::uint32_t i = 0; i < words_per_thread; ++i) {
            const std::uint64_t w =
                base + std::uint64_t(i) * warp + ctx.lane();
            if (w >= words)
                break;
            std::uint32_t v;
            std::memcpy(&v, src + w * 4, 4);
            ctx.pmStore(dst + w * 4, v);
            ctx.hbmTraffic(4);
            wrote = true;
        }
        if (wrote && fence)
            ctx.threadfenceSystem();
    });
    return copy;
}

/** What one copy launch leaves behind, modelled and durable. */
struct CopyOutcome {
    LaunchStats stats;
    SimNs now = 0;
    NvmTierBytes media;
    std::uint64_t write_txns = 0;
    std::vector<std::uint8_t> durable;
};

/** Runs one copy of @p bytes the way GpmCheckpoint::checkpoint does
 *  on @p kind: in a GPM persistence window, or with the CPU's flush
 *  after an unfenced kernel on GPM-NDP. */
CopyOutcome
runCopy(PlatformKind kind, std::size_t granule, std::uint64_t bytes,
        bool reference)
{
    SimConfig cfg;
    cfg.coalesce_bytes = granule;
    Machine m(cfg, kind, 8_MiB);
    const PmRegion buf = m.pool().map("buf", alignUp(bytes, 256), true);
    const std::vector<std::uint8_t> src = pattern(alignUp(bytes, 4), 11);
    const auto warp = static_cast<std::uint32_t>(cfg.warp_size);
    const bool fence = kind != PlatformKind::GpmNdp;
    const KernelDesc k =
        reference ? wordStridedCopy(src.data(), buf.offset, bytes, warp,
                                    fence)
                  : GpmCheckpoint::copyKernel("gpmcp_checkpoint",
                                              src.data(), buf.offset,
                                              bytes, warp, fence);
    CopyOutcome out;
    if (kind == PlatformKind::Gpm)
        gpmPersistBegin(m);
    out.stats = m.runKernel(k);
    if (kind == PlatformKind::GpmNdp)
        m.cpuPersistRange(buf.offset, alignUp(bytes, 4), 32);
    if (kind == PlatformKind::Gpm)
        gpmPersistEnd(m);
    out.now = m.now();
    out.media = m.nvm().bytes();
    out.write_txns = m.nvm().writeTxns();
    const DurableBytes d =
        m.pool().durableRange(buf.offset, alignUp(bytes, 4));
    out.durable.assign(d.data(), d.data() + alignUp(bytes, 4));
    return out;
}

// 16 B lane stores must model exactly what 4 B word-strided stores
// do: same grid, fences, payload, lines, media stream and durable
// bytes. Sizes leave the last warp 1-31, 32-127 and >= 128 words, are
// not multiples of 16 B (212008 B is DNN's state), or span blocks.
TEST(GpmCheckpoint, WideCopyKernelModelsTheWordStridedCopy)
{
    const std::uint64_t sizes[] = {4,    12,    100,   4000,  4100,
                                   4164, 4496,  5296,  60000, 212008,
                                   400004};
    for (PlatformKind kind : {PlatformKind::Gpm, PlatformKind::GpmEadr,
                              PlatformKind::GpmNdp}) {
        for (std::size_t granule : {64, 128}) {
            for (std::uint64_t bytes : sizes) {
                SCOPED_TRACE(::testing::Message()
                             << platformName(kind) << ", " << granule
                             << " B lines, " << bytes << " B");
                const CopyOutcome want =
                    runCopy(kind, granule, bytes, /*reference=*/true);
                const CopyOutcome got =
                    runCopy(kind, granule, bytes, /*reference=*/false);
                EXPECT_EQ(got.stats.fences, want.stats.fences);
                EXPECT_EQ(got.stats.pm_payload_bytes,
                          want.stats.pm_payload_bytes);
                EXPECT_EQ(got.stats.pm_line_txns, want.stats.pm_line_txns);
                EXPECT_TRUE(got.stats == want.stats);  // every field
                EXPECT_EQ(got.now, want.now);
                EXPECT_TRUE(got.media == want.media);
                EXPECT_EQ(got.write_txns, want.write_txns);
                EXPECT_EQ(got.durable, want.durable);
                EXPECT_EQ(got.durable, pattern(alignUp(bytes, 4), 11));
            }
        }
    }
}

} // namespace
} // namespace gpm
