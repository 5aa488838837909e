/**
 * @file
 * Shared parsing of the CLI knobs: the sweep width and the seed.
 *
 * The scenario-sweep engine's default width (harness/sweep.hpp) is
 * settable from two places — the GPM_EXEC_WORKERS environment variable
 * (fig09, fig10, fig11a, fig11b, gpmtorture, gpmcheck) and the --jobs
 * flag of the sweeping CLIs. Both funnel through parseSweepJobs() so
 * the accepted grammar is defined exactly once: a decimal integer in
 * [0, 1024], no trailing junk, no empty string (0 means one worker per
 * hardware thread; see SweepOptions::workers).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace gpm {

/** Upper bound on an explicit sweep width. */
constexpr int kMaxSweepJobs = 1024;

/**
 * Strictly parse a sweep width.
 *
 * @return The value for well-formed input in [0, kMaxSweepJobs];
 *         std::nullopt for null/empty/non-numeric/out-of-range input
 *         (including any trailing non-digit characters).
 */
std::optional<int> parseSweepJobs(const char *s);

/** string_view convenience overload. */
std::optional<int> parseSweepJobs(std::string_view s);

/**
 * Strictly parse a `--seed` / seed argument: a whole decimal number
 * that fits 64 bits.
 *
 * @return std::nullopt for null/empty input, a sign, any non-digit
 *         character (including trailing junk) or an overflow.
 */
std::optional<std::uint64_t> parseSeed(const char *s);

/**
 * Default sweep width from the GPM_EXEC_WORKERS environment variable.
 *
 * @return The parsed value, or @p fallback when the variable is unset
 *         or rejected by parseSweepJobs (invalid input degrades to one
 *         worker rather than erroring, so a stray environment never
 *         breaks a bench run). Sweep width never changes any result —
 *         only host wall-clock.
 */
int sweepJobsFromEnv(int fallback = 1);

} // namespace gpm
