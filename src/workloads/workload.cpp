#include "workloads/workload.hpp"

#include <cstring>

#include "common/hash.hpp"

namespace gpm {

CrashImage::CrashImage(const void *p, std::size_t n, std::uint64_t rows)
    : bytes(static_cast<const std::uint8_t *>(p),
            static_cast<const std::uint8_t *>(p) + n),
      rows(rows), hash(fnv1a(p, n))
{
}

bool
CrashImage::equals(const void *p, std::size_t n, std::uint64_t rows) const
{
    return rows == this->rows && n == bytes.size() &&
           (n == 0 || std::memcmp(p, bytes.data(), n) == 0);
}

const CrashImage *
CrashReference::match(const void *p, std::size_t n,
                      std::uint64_t rows) const
{
    if (pre_crash.equals(p, n, rows))
        return &pre_crash;
    if (committed.equals(p, n, rows))
        return &committed;
    return nullptr;
}

} // namespace gpm
