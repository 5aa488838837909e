#include "common/env.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

namespace gpm {

std::optional<int>
parseSweepJobs(std::string_view s)
{
    if (s.empty() || s.size() > 5)
        return std::nullopt;
    long v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return std::nullopt;  // rejects sign, space, trailing junk
        v = v * 10 + (c - '0');
    }
    if (v > kMaxSweepJobs)
        return std::nullopt;
    return static_cast<int>(v);
}

std::optional<int>
parseSweepJobs(const char *s)
{
    if (s == nullptr)
        return std::nullopt;
    return parseSweepJobs(std::string_view(s));
}

std::optional<std::uint64_t>
parseSeed(const char *s)
{
    if (s == nullptr)
        return std::nullopt;
    const char *end = s + std::strlen(s);
    std::uint64_t v = 0;
    const auto [p, ec] = std::from_chars(s, end, v);
    if (s == end || ec != std::errc{} || p != end)
        return std::nullopt;
    return v;
}

int
sweepJobsFromEnv(int fallback)
{
    return parseSweepJobs(std::getenv("GPM_EXEC_WORKERS"))
        .value_or(fallback);
}

} // namespace gpm
