/**
 * @file
 * SRAD workload (Table 1: speckle-reducing anisotropic diffusion over
 * a 128K x 1K image, natively persisting the diffusion-coefficient
 * matrix and the output image per iteration).
 *
 * SRAD is ultrasound-image despeckling: each iteration computes a
 * per-pixel diffusion coefficient from local gradient statistics and
 * then diffuses the image with it. Both the coefficient matrix and
 * the updated image persist in-place on PM from within the kernel —
 * streaming (warp-contiguous) but deliberately *unaligned* stores, the
 * pattern section 6.1 calls out for SRAD's mid-range PM bandwidth:
 * the PM layout offsets both matrices by 4 bytes from the 256 B line.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gpusim/kernel.hpp"
#include "workloads/workload.hpp"

namespace gpm {

/** Image geometry. */
struct SradParams {
    std::uint32_t width = 256;
    std::uint32_t height = 128;
    std::uint32_t iterations = 6;
    float lambda = 0.125f;
    std::uint64_t seed = 29;
    int cap_threads = 32;

    std::uint64_t
    pixels() const
    {
        return std::uint64_t(width) * height;
    }
};

/** Deterministic speckled input image (shared with CPU baseline). */
std::vector<float> sradMakeInput(const SradParams &p);

/** One SRAD diffusion pass over @p src into @p dst + coefficients. */
void sradDiffuse(const SradParams &p, const std::vector<float> &src,
                 std::vector<float> &dst, std::vector<float> &coef);

/** The SRAD app. */
class GpSrad
{
  public:
    GpSrad(Machine &m, const SradParams &p);

    /** Map regions and load the speckled input image. */
    void setup();

    /** Run all diffusion iterations. */
    WorkloadResult run();

    /**
     * Crash mid-iteration and resume: the iteration counter persisted
     * after each full pass tells recovery where to restart; a
     * partially diffused iteration is simply re-run from the durable
     * image of the previous pass (kept via double buffering).
     */
    WorkloadResult runWithCrash(std::uint32_t crash_iter,
                                double survive_prob);

    /** Thread phases of the doomed iteration's kernel. */
    static std::uint64_t doomedThreadPhases(const SradParams &p);

    /**
     * Expected images of a crash in iteration @p crash_iter: the
     * image after crash_iter passes (pre_crash), after one more
     * (committed), and after every pass (final). A pure function of
     * its arguments.
     */
    static CrashReference crashReference(const SradParams &p,
                                         std::uint32_t crash_iter);

    /**
     * Descriptor-armed crash run (runCrashSequence) of iteration
     * @p ref.crash_batch, @p ref from crashReference() with these
     * params. strict_ok: the final image equals ref.final (recompute
     * recovery has one legal final state); verified also needs the
     * resume to start at the crashed iteration.
     */
    CrashOutcome runCrashPoint(const CrashReference &ref,
                               const CrashPoint &point,
                               double survive_prob,
                               bool open_persist_window = true,
                               WorkloadResult *result_out = nullptr);

    /** Host reference: the full diffusion run in plain C++. */
    std::vector<float> referenceImage() const;

    /** Image variance — must fall monotonically (despeckling). */
    double imageVariance() const;

  private:
    void runIteration(std::uint32_t iter,
                      const std::optional<CrashPoint> &crash);
    std::uint64_t imgAddr(std::uint32_t buf, std::uint64_t pix) const;
    std::uint64_t coefAddr(std::uint64_t pix) const;

    Machine *m_;
    SradParams p_;
    PmRegion img_;   ///< 4 B pad + two pixel buffers (double buffered)
    PmRegion coef_;  ///< 4 B pad + coefficient matrix
    PmRegion meta_;  ///< u32 completed iterations
    std::vector<float> host_img_;   ///< current image (HBM mirror)
    std::vector<float> host_coef_;
};

} // namespace gpm
