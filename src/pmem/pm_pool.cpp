#include "pmem/pm_pool.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include <sys/mman.h>

#include "pmem/pm_events.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

PmImage::PmImage(std::size_t n)
    : data_(static_cast<std::uint8_t *>(
          ::mmap(nullptr, n ? n : 1, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0))),
      size_(n)
{
    GPM_REQUIRE(data_ != MAP_FAILED, "PM image allocation of ", n,
                " bytes failed");
}

PmImage::~PmImage()
{
    if (data_)
        ::munmap(data_, size_ ? size_ : 1);
}

void
PmPool::setDomain(PersistDomain d)
{
    domain_ = d;
    if (recorder_)
        recorder_->domainSet(d);
}

void
PmPool::setRecorder(PmEventRecorder *rec)
{
    recorder_ = rec;
    // Seed the stream with the domain in effect at attach time so the
    // analyzer never has to guess the initial state.
    if (recorder_)
        recorder_->domainSet(domain_);
}

PmPool::PmPool(std::size_t capacity, PersistDomain domain,
               std::uint64_t seed)
    : visible_(capacity), durable_(capacity), domain_(domain),
      rng_(seed)
{
    GPM_REQUIRE(capacity > 0, "PM pool capacity must be non-zero");
}

PmRegion
PmPool::map(const std::string &name, std::uint64_t size, bool create)
{
    auto it = regions_.find(name);
    if (it != regions_.end()) {
        GPM_REQUIRE(size == 0 || size == it->second.size,
                    "region '", name, "' exists with size ",
                    it->second.size, ", not ", size);
        return it->second;
    }
    GPM_REQUIRE(create, "region '", name, "' does not exist");
    GPM_REQUIRE(size > 0, "cannot create empty region '", name, "'");

    const std::uint64_t offset = alignUp(alloc_cursor_, 256);
    GPM_REQUIRE(offset + size <= visible_.size(),
                "PM pool exhausted allocating '", name, "' (", size,
                " bytes at ", offset, " of ", visible_.size(), ")");
    alloc_cursor_ = offset + size;
    PmRegion r{offset, size};
    regions_.emplace(name, r);
    return r;
}

bool
PmPool::hasRegion(const std::string &name) const
{
    return regions_.count(name) != 0;
}

PmRegion
PmPool::region(const std::string &name) const
{
    auto it = regions_.find(name);
    GPM_REQUIRE(it != regions_.end(), "no region named '", name, "'");
    return it->second;
}

void
PmPool::checkRange(std::uint64_t addr, std::uint64_t size) const
{
    GPM_REQUIRE(addr + size <= visible_.size() && addr + size >= addr,
                "PM access [", addr, ", ", addr + size,
                ") out of pool of ", visible_.size(), " bytes");
}

void
PmPool::writeCommon(OwnerId owner, std::uint64_t addr, const void *src,
                    std::uint64_t size)
{
    checkRange(addr, size);
    if (recorder_)
        recorder_->store(domain_, owner, addr, size);
    std::memcpy(visible_.data() + addr, src, size);
    if (domain_ == PersistDomain::LlcDurable) {
        // eADR: the LLC is inside the persistence domain.
        std::memcpy(durable_.data() + addr, src, size);
    } else {
        std::vector<Extent> &pend = pending_[owner];
        if (!pend.empty()) {
            // Coalesce with the owner's most recent extent when the
            // new store abuts or overlaps it: a contiguous append
            // stream (or a rewritten word) stays one extent, so
            // persistOwner/crash scale with distinct dirty ranges,
            // not raw store count. Only the *last* extent is eligible
            // — insertion order is preserved, so crash()'s per-line
            // RNG enumeration is unchanged for non-contiguous
            // streams.
            Extent &last = pend.back();
            if (addr <= last.addr + last.size &&
                addr + size >= last.addr) {
                const std::uint64_t lo = std::min(last.addr, addr);
                const std::uint64_t hi =
                    std::max(last.addr + last.size, addr + size);
                last.addr = lo;
                last.size = hi - lo;
                ++stats_.extents_merged;
                return;
            }
        }
        pend.push_back({addr, size});
    }
}

void
PmPool::deviceWrite(OwnerId owner, std::uint64_t addr, const void *src,
                    std::uint64_t size)
{
    writeCommon(owner, addr, src, size);
}

void
PmPool::cpuWrite(OwnerId owner, std::uint64_t addr, const void *src,
                 std::uint64_t size)
{
    writeCommon(kCpuOwnerBase | owner, addr, src, size);
}

void
PmPool::read(std::uint64_t addr, void *dst, std::uint64_t size) const
{
    checkRange(addr, size);
    if (recorder_ && recorder_->inRecovery())
        recorder_->recoveryRead(domain_, addr, size);
    std::memcpy(dst, visible_.data() + addr, size);
}

void
PmPool::drain(const Extent &e)
{
    std::memcpy(durable_.data() + e.addr, visible_.data() + e.addr,
                e.size);
    ++stats_.extents_drained;
}

bool
PmPool::persistOwner(OwnerId owner)
{
    switch (domain_) {
      case PersistDomain::LlcVolatile:
        // The fence completes at the volatile LLC: ordering only.
        if (recorder_)
            recorder_->fence(domain_, owner, 0);
        return false;
      case PersistDomain::LlcDurable:
        if (recorder_)
            recorder_->fence(domain_, owner, 0);
        return true;
      case PersistDomain::McDurable:
        break;
    }
    std::uint64_t drained = 0;
    auto it = pending_.find(owner);
    if (it != pending_.end()) {
        for (const Extent &e : it->second) {
            drain(e);
            drained += e.size;
        }
        pending_.erase(it);
    }
    if (recorder_)
        recorder_->fence(domain_, owner, drained);
    return true;
}

void
PmPool::persistRange(std::uint64_t addr, std::uint64_t size)
{
    checkRange(addr, size);
    const std::uint64_t lo = addr, hi = addr + size;
    std::uint64_t drained = 0;
    for (auto it = pending_.begin(); it != pending_.end();) {
        auto &extents = it->second;
        std::size_t kept = 0;
        for (Extent &e : extents) {
            if (e.addr < hi && e.addr + e.size > lo) {
                drain(e);
                drained += e.size;
            } else {
                extents[kept++] = e;
            }
        }
        extents.resize(kept);
        it = extents.empty() ? pending_.erase(it) : std::next(it);
    }
    if (recorder_)
        recorder_->flushRange(domain_, addr, size, drained);
}

void
PmPool::persistAll()
{
    std::uint64_t drained = 0;
    for (const auto &[owner, extents] : pending_) {
        for (const Extent &e : extents) {
            drain(e);
            drained += e.size;
        }
    }
    pending_.clear();
    if (recorder_)
        recorder_->persistAll(domain_, drained);
}

void
PmPool::crash(double survive_prob)
{
    telemetry::Span span("crash", "power-failure");
    if (span.armed()) {
        span.arg("pending_extents",
                 std::uint64_t(pendingExtents()));
        span.arg("survive_prob", survive_prob);
    }
    const std::uint64_t survivors_before = stats_.crash_survivors;
    std::uint64_t restored_bytes = 0;
    ++stats_.crashes;
    if (domain_ == PersistDomain::LlcDurable) {
        // eADR drains caches on power failure; with nothing left
        // pending the two images are already equal.
        persistAll();
    } else {
        // Survival is decided per 128 B cache line, not per pending
        // extent: an extent spanning lines can be torn, with some of
        // its lines evicted to the media before the failure and the
        // rest lost. Line boundaries come from alignDown so tearing is
        // address-stable regardless of how stores were batched.
        for (const auto &[owner, extents] : pending_) {
            for (const Extent &e : extents) {
                const std::uint64_t end = e.addr + e.size;
                std::uint64_t lo = alignDown(e.addr, kCrashLineBytes);
                for (; lo < end; lo += kCrashLineBytes) {
                    const Extent sub{
                        std::max(lo, e.addr),
                        std::min(lo + kCrashLineBytes, end) -
                            std::max(lo, e.addr)};
                    ++stats_.crash_sub_extents;
                    if (survive_prob > 0.0 &&
                        rng_.chance(survive_prob)) {
                        drain(sub);
                        ++stats_.crash_survivors;
                    }
                }
            }
        }
        // Post-reboot: only durable contents remain visible. By the
        // class invariant the images differ only inside pending
        // extents, so restoring those is the whole reset. It is a
        // second pass: restoring one extent before an overlapping
        // extent's surviving line was drained would lose that line.
        for (const auto &[owner, extents] : pending_) {
            for (const Extent &e : extents) {
                std::memcpy(visible_.data() + e.addr,
                            durable_.data() + e.addr, e.size);
                restored_bytes += e.size;
            }
        }
        pending_.clear();
    }
    if (recorder_)
        recorder_->crash(domain_, survive_prob,
                         stats_.crash_survivors - survivors_before);
    if (span.armed()) {
        span.arg("surviving_lines",
                 stats_.crash_survivors - survivors_before);
        span.arg("restored_bytes", restored_bytes);
    }
    telemetry::count("pool.crash_events");
}

std::size_t
PmPool::pendingExtents() const
{
    std::size_t n = 0;
    for (const auto &[owner, extents] : pending_)
        n += extents.size();
    return n;
}

std::uint64_t
PmPool::pendingBytes() const
{
    std::uint64_t n = 0;
    for (const auto &[owner, extents] : pending_)
        for (const Extent &e : extents)
            n += e.size;
    return n;
}

void
PmPool::saveDurable(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    GPM_REQUIRE(os.good(), "cannot open '", path, "' for writing");

    const std::uint64_t cap = durable_.size();
    const std::uint64_t nregions = regions_.size();
    os.write(reinterpret_cast<const char *>(&cap), sizeof(cap));
    os.write(reinterpret_cast<const char *>(&alloc_cursor_),
             sizeof(alloc_cursor_));
    os.write(reinterpret_cast<const char *>(&nregions), sizeof(nregions));
    for (const auto &[name, r] : regions_) {
        const std::uint64_t len = name.size();
        os.write(reinterpret_cast<const char *>(&len), sizeof(len));
        os.write(name.data(), static_cast<std::streamsize>(len));
        os.write(reinterpret_cast<const char *>(&r), sizeof(r));
    }
    os.write(reinterpret_cast<const char *>(durable_.data()),
             static_cast<std::streamsize>(durable_.size()));
    GPM_REQUIRE(os.good(), "short write saving pool to '", path, "'");
}

PmPool
PmPool::loadDurable(const std::string &path, PersistDomain domain,
                    std::uint64_t seed)
{
    std::ifstream is(path, std::ios::binary);
    GPM_REQUIRE(is.good(), "cannot open '", path, "' for reading");

    std::uint64_t cap = 0, cursor = 0, nregions = 0;
    is.read(reinterpret_cast<char *>(&cap), sizeof(cap));
    is.read(reinterpret_cast<char *>(&cursor), sizeof(cursor));
    is.read(reinterpret_cast<char *>(&nregions), sizeof(nregions));
    GPM_REQUIRE(is.good() && cap > 0, "corrupt pool file '", path, "'");

    PmPool pool(cap, domain, seed);
    pool.alloc_cursor_ = cursor;
    for (std::uint64_t i = 0; i < nregions; ++i) {
        std::uint64_t len = 0;
        is.read(reinterpret_cast<char *>(&len), sizeof(len));
        std::string name(len, '\0');
        is.read(name.data(), static_cast<std::streamsize>(len));
        PmRegion r;
        is.read(reinterpret_cast<char *>(&r), sizeof(r));
        pool.regions_.emplace(std::move(name), r);
    }
    is.read(reinterpret_cast<char *>(pool.durable_.data()),
            static_cast<std::streamsize>(cap));
    GPM_REQUIRE(is.good(), "short read loading pool from '", path, "'");
    std::memcpy(pool.visible_.data(), pool.durable_.data(), cap);
    return pool;
}

} // namespace gpm
