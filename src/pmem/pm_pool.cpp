#include "pmem/pm_pool.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <utility>

#include <sys/mman.h>

#include "pmem/pm_events.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

namespace {

/** An idle mapping on the free list (see RecycledImage). */
struct IdleImage {
    std::uint8_t *base;
    std::size_t size;
    std::vector<std::uint64_t> resident;
};

/** Process-wide free list of released image mappings. */
struct ImageFreeList {
    std::mutex mu;
    std::vector<IdleImage> idle;  ///< most recently released last
    std::size_t live = 0;         ///< RecycledImage holding a mapping
    std::size_t peak_live = 0;     ///< bound on idle.size()
};

ImageFreeList &
freeList()
{
    // Never destroyed: pools with static storage may outlive any
    // static destructor order.
    static ImageFreeList *list = new ImageFreeList;
    return *list;
}

std::size_t
imageStride(std::size_t capacity)
{
    return alignUp(capacity, RecycledImage::kPageBytes);
}

std::size_t
pageWords(std::size_t capacity)
{
    const std::size_t pages =
        imageStride(capacity) / RecycledImage::kPageBytes;
    return (pages + 63) / 64;
}

/** Call fn(offset, bytes) once per run of set page bits, with the
 *  last run clipped to the image size. */
template <typename Fn>
void
forEachRun(const std::vector<std::uint64_t> &bits, std::size_t size,
           Fn &&fn)
{
    const std::uint64_t npages = bits.size() * 64;
    std::uint64_t p = 0;
    while (p < npages) {
        if (bits[p / 64] == 0) {
            p = (p / 64 + 1) * 64;
            continue;
        }
        if (!(bits[p / 64] >> (p % 64) & 1)) {
            ++p;
            continue;
        }
        std::uint64_t q = p + 1;
        while (q < npages && (bits[q / 64] >> (q % 64) & 1))
            ++q;
        const std::uint64_t lo = p * RecycledImage::kPageBytes;
        const std::uint64_t hi =
            std::min<std::uint64_t>(q * RecycledImage::kPageBytes, size);
        fn(lo, hi - lo);
        p = q;
    }
}

/** memcpy whose common access widths compile to fixed-size moves. */
inline void
copyBytes(void *dst, const void *src, std::uint64_t n)
{
    switch (n) {
      case 4:
        std::memcpy(dst, src, 4);
        return;
      case 8:
        std::memcpy(dst, src, 8);
        return;
      case 16:
        std::memcpy(dst, src, 16);
        return;
      default:
        std::memcpy(dst, src, n);
    }
}

/** Slot hash of the owner and pre-image tables. */
inline std::size_t
slotHash(std::uint64_t key)
{
    const std::uint64_t h = key * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
}

std::uint64_t
popcount(const std::vector<std::uint64_t> &bits)
{
    std::uint64_t n = 0;
    for (const std::uint64_t w : bits)
        n += static_cast<std::uint64_t>(__builtin_popcountll(w));
    return n;
}

} // namespace

RecycledImage::RecycledImage(std::size_t size) : size_(size)
{
    GPM_REQUIRE(size > 0, "a recycled image needs a non-zero size");
    ImageFreeList &fl = freeList();
    {
        std::lock_guard<std::mutex> lock(fl.mu);
        // Most recent first: its pages are the likeliest to be hot.
        for (auto it = fl.idle.rbegin(); it != fl.idle.rend(); ++it) {
            if (it->size != size)
                continue;
            base_ = it->base;
            resident_ = std::move(it->resident);
            fl.idle.erase(std::next(it).base());
            break;
        }
        if (base_)
            fl.peak_live = std::max(fl.peak_live, ++fl.live);
    }
    if (!base_) {
        void *p = ::mmap(nullptr, imageStride(size), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        GPM_REQUIRE(p != MAP_FAILED, "image allocation of ",
                    imageStride(size), " bytes failed");
        base_ = static_cast<std::uint8_t *>(p);
        resident_.assign(pageWords(size), 0);
        std::lock_guard<std::mutex> lock(fl.mu);
        fl.peak_live = std::max(fl.peak_live, ++fl.live);
    }
    dirty_.assign(resident_.size(), 0);
}

RecycledImage::RecycledImage(RecycledImage &&o) noexcept
    : base_(std::exchange(o.base_, nullptr)), size_(o.size_),
      resident_(std::move(o.resident_)), dirty_(std::move(o.dirty_))
{
}

RecycledImage::~RecycledImage()
{
    if (base_)
        release();
}

void
RecycledImage::release()
{
    // Zero what this owner wrote and keep every page resident: the
    // successor takes the mapping over whatever it writes where.
    forEachRun(dirty_, size_, [&](std::uint64_t off, std::uint64_t n) {
        std::memset(base_ + off, 0, n);
    });
    for (std::size_t w = 0; w < resident_.size(); ++w)
        resident_[w] |= dirty_[w];
    const std::uint64_t kept = popcount(resident_);

    // Only owners of mixed sizes can overfill the list; the oldest
    // idle mapping is then unmapped.
    ImageFreeList &fl = freeList();
    std::optional<IdleImage> evicted;
    {
        std::lock_guard<std::mutex> lock(fl.mu);
        --fl.live;
        fl.idle.push_back({base_, size_, std::move(resident_)});
        if (fl.idle.size() > fl.peak_live) {
            evicted = std::move(fl.idle.front());
            fl.idle.erase(fl.idle.begin());
        }
    }
    std::uint64_t dropped = 0;
    if (evicted) {
        dropped = popcount(evicted->resident);
        ::munmap(evicted->base, imageStride(evicted->size));
    }
    base_ = nullptr;
    telemetry::count("pool.pages_kept", kept);
    telemetry::count("pool.pages_dropped", dropped);
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
    : image_(capacity), domain_(domain), rng_(seed)
{
}

std::vector<std::pair<std::string, PmRegion>>::const_iterator
PmPool::regionAt(const std::string &name) const
{
    return std::lower_bound(
        regions_.begin(), regions_.end(), name,
        [](const auto &r, const std::string &n) { return r.first < n; });
}

PmRegion
PmPool::map(const std::string &name, std::uint64_t size, bool create)
{
    const auto it = regionAt(name);
    if (it != regions_.end() && it->first == name) {
        GPM_REQUIRE(size == 0 || size == it->second.size,
                    "region '", name, "' exists with size ",
                    it->second.size, ", not ", size);
        return it->second;
    }
    GPM_REQUIRE(create, "region '", name, "' does not exist");
    GPM_REQUIRE(size > 0, "cannot create empty region '", name, "'");

    const std::uint64_t offset = alignUp(alloc_cursor_, 256);
    GPM_REQUIRE(offset + size <= image_.size(),
                "PM pool exhausted allocating '", name, "' (", size,
                " bytes at ", offset, " of ", image_.size(), ")");
    alloc_cursor_ = offset + size;
    PmRegion r{offset, size};
    regions_.emplace(it, name, r);
    return r;
}

bool
PmPool::hasRegion(const std::string &name) const
{
    const auto it = regionAt(name);
    return it != regions_.end() && it->first == name;
}

PmRegion
PmPool::region(const std::string &name) const
{
    const auto it = regionAt(name);
    GPM_REQUIRE(it != regions_.end() && it->first == name,
                "no region named '", name, "'");
    return it->second;
}

void
PmPool::checkRange(std::uint64_t addr, std::uint64_t size) const
{
    GPM_REQUIRE(addr + size <= image_.size() && addr + size >= addr,
                "PM access [", addr, ", ", addr + size,
                ") out of pool of ", image_.size(), " bytes");
}

void
PmPool::writeCommon(OwnerId owner, std::uint64_t addr, const void *src,
                    std::uint64_t size)
{
    checkRange(addr, size);
    if (recorder_)
        recorder_->store(domain_, owner, addr, size);
    image_.markDirty(addr, size);
    if (domain_ == PersistDomain::LlcDurable) {
        // eADR: the LLC is inside the persistence domain.
        copyBytes(image_.data() + addr, src, size);
        refreshPreImages(addr, size);
        return;
    }
    const std::uint32_t pre = savePreImages(addr, size);
    copyBytes(image_.data() + addr, src, size);
    appendExtent(owner, addr, size, pre);
}

void
PmPool::appendExtent(OwnerId owner, std::uint64_t addr, std::uint64_t size,
                     std::uint32_t pre)
{
    OwnerSlot &o = owners_[claimOwner(owner)];
    if (o.tail != kNone) {
        // Coalesce with the owner's most recent extent when the new
        // store abuts or overlaps it: a contiguous append stream (or a
        // rewritten word) stays one extent, so persistOwner/crash
        // scale with distinct dirty ranges, not raw store count. Only
        // the *last* extent is eligible — insertion order is
        // preserved, so crash()'s per-line RNG enumeration is
        // unchanged for non-contiguous streams.
        LogEntry &last = log_[o.tail];
        if (addr <= last.addr + last.size && addr + size >= last.addr) {
            const std::uint64_t lo = std::min(last.addr, addr);
            const std::uint64_t hi =
                std::max(last.addr + last.size, addr + size);
            last.addr = lo;
            last.size = hi - lo;
            // Two extents in one line merge into that line.
            if (last.pre != pre)
                last.pre = kNone;
            ++stats_.extents_merged;
            return;
        }
    }
    const auto i = static_cast<std::uint32_t>(log_.size());
    log_.push_back({addr, size, owner, kNone, pre});
    if (o.tail == kNone)
        o.head = i;
    else
        log_[o.tail].next = i;
    o.tail = i;
    ++live_;
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
    copyBytes(dst, image_.data() + addr, size);
}

DurableBytes
PmPool::durableRange(std::uint64_t addr, std::uint64_t size) const
{
    checkRange(addr, size);
    const std::uint8_t *image = image_.data() + addr;
    std::vector<std::uint8_t> patched;
    forEachPreImage(addr, size,
                    [&](std::uint32_t i, std::uint64_t lo, std::uint64_t n) {
                        if (patched.empty())
                            patched.assign(image, image + size);
                        std::memcpy(patched.data() + (lo - addr),
                                    preImage(i, lo), n);
                    });
    return patched.empty() ? DurableBytes(image)
                           : DurableBytes(std::move(patched));
}

void
PmPool::prefetch(std::uint64_t addr, std::uint64_t bytes) const
{
    if (bytes == 0 || addr + bytes > image_.size() || addr + bytes < addr)
        return;
    prefetchHostLines(image_.data() + addr, bytes);
}

std::uint32_t
PmPool::preSlot(std::uint64_t line) const
{
    const std::size_t mask = pre_slots_.size() - 1;
    std::size_t i = slotHash(line) & mask;
    while (pre_slots_[i].epoch == epoch_ && pre_slots_[i].line != line)
        i = (i + 1) & mask;
    return static_cast<std::uint32_t>(i);
}

std::uint32_t
PmPool::findPreImage(std::uint64_t line) const
{
    const PreSlot &s = pre_slots_[preSlot(line)];
    return s.epoch == epoch_ ? s.index : kNone;
}

std::uint32_t
PmPool::savePreImages(std::uint64_t addr, std::uint64_t size)
{
    if (size == 0)
        return kNone;
    const std::uint64_t first = addr / kCrashLineBytes;
    const std::uint64_t last = (addr + size - 1) / kCrashLineBytes;
    std::uint32_t index = kNone;
    for (std::uint64_t line = first; line <= last; ++line) {
        std::uint32_t slot = preSlot(line);
        if (pre_slots_[slot].epoch == epoch_) {
            index = pre_slots_[slot].index;
            continue;
        }
        index = static_cast<std::uint32_t>(pre_lines_.size());
        // Keep the load under 1/2 so every probe terminates.
        if ((index + 1) * 2 > pre_slots_.size()) {
            growPreTable();
            slot = preSlot(line);
        }
        pre_slots_[slot] = PreSlot{line, epoch_, index};
        pre_lines_.push_back(line);
        if (pre_bytes_.size() < pre_lines_.size() * kCrashLineBytes)
            pre_bytes_.resize(2 * pre_lines_.size() * kCrashLineBytes);
        // A line never crosses the page-aligned end of the mapping.
        std::memcpy(pre_bytes_.data() + index * kCrashLineBytes,
                    image_.data() + line * kCrashLineBytes,
                    kCrashLineBytes);
    }
    return first == last ? index : kNone;
}

void
PmPool::growPreTable()
{
    pre_slots_.assign(2 * pre_slots_.size(), PreSlot{});
    for (std::uint32_t i = 0; i < pre_lines_.size(); ++i)
        pre_slots_[preSlot(pre_lines_[i])] =
            PreSlot{pre_lines_[i], epoch_, i};
}

template <typename Fn>
void
PmPool::forEachPreImage(std::uint64_t addr, std::uint64_t size,
                        Fn &&fn) const
{
    if (pre_lines_.empty() || size == 0)
        return;
    const std::uint64_t first = addr / kCrashLineBytes;
    const std::uint64_t last = (addr + size - 1) / kCrashLineBytes;
    const auto visit = [&](std::uint64_t line, std::uint32_t i) {
        const std::uint64_t lo = std::max(addr, line * kCrashLineBytes);
        const std::uint64_t hi =
            std::min(addr + size, (line + 1) * kCrashLineBytes);
        fn(i, lo, hi - lo);
    };
    // Probe the range's lines or scan the table, whichever is shorter.
    if (last - first < pre_lines_.size()) {
        for (std::uint64_t line = first; line <= last; ++line) {
            const std::uint32_t i = findPreImage(line);
            if (i != kNone)
                visit(line, i);
        }
    } else {
        for (std::uint32_t i = 0; i < pre_lines_.size(); ++i)
            if (pre_lines_[i] >= first && pre_lines_[i] <= last)
                visit(pre_lines_[i], i);
    }
}

void
PmPool::refreshPreImages(std::uint64_t addr, std::uint64_t size)
{
    forEachPreImage(addr, size,
                    [&](std::uint32_t i, std::uint64_t lo, std::uint64_t n) {
                        std::memcpy(preImage(i, lo), image_.data() + lo, n);
                    });
}

void
PmPool::drain(std::uint64_t addr, std::uint64_t size, std::uint32_t pre)
{
    if (pre != kNone)
        std::memcpy(preImage(pre, addr), image_.data() + addr, size);
    else
        refreshPreImages(addr, size);
    ++stats_.extents_drained;
}

std::uint64_t
PmPool::drainEntry(std::uint32_t i)
{
    LogEntry &e = log_[i];
    drain(e.addr, e.size, e.pre);
    e.next = kDrained;
    --live_;
    return e.size;
}

std::uint32_t
PmPool::findOwner(OwnerId owner)
{
    if (last_slot_ != kNone && owners_[last_slot_].owner == owner)
        return last_slot_;
    return probeOwner(owner, false);
}

std::uint32_t
PmPool::claimOwner(OwnerId owner)
{
    if (last_slot_ != kNone && owners_[last_slot_].owner == owner)
        return last_slot_;
    return probeOwner(owner, true);
}

std::uint32_t
PmPool::probeOwner(OwnerId owner, bool claim)
{
    std::size_t mask = owners_.size() - 1;
    std::size_t i = slotHash(owner) & mask;
    for (; owners_[i].epoch == epoch_; i = (i + 1) & mask)
        if (owners_[i].owner == owner)
            return last_slot_ = static_cast<std::uint32_t>(i);
    if (!claim)
        return kNone;
    // Keep the load under 1/2 so every probe terminates.
    if ((owners_used_ + 1) * 2 > owners_.size()) {
        rehashOwners();
        mask = owners_.size() - 1;
        i = slotHash(owner) & mask;
        while (owners_[i].epoch == epoch_)
            i = (i + 1) & mask;
    }
    owners_[i] = OwnerSlot{owner, epoch_, kNone, kNone};
    ++owners_used_;
    return last_slot_ = static_cast<std::uint32_t>(i);
}

void
PmPool::rehashOwners()
{
    // Owners whose chains persists emptied give up their slots here;
    // the table grows only for owners that still have extents.
    std::size_t pending_owners = 0;
    for (const OwnerSlot &s : owners_)
        pending_owners += s.epoch == epoch_ && s.head != kNone;
    std::size_t n = owners_.size();
    while (n < (pending_owners + 1) * 4)
        n *= 2;
    std::vector<OwnerSlot> old =
        std::exchange(owners_, std::vector<OwnerSlot>(n));
    const std::size_t mask = n - 1;
    for (const OwnerSlot &s : old) {
        if (s.epoch != epoch_ || s.head == kNone)
            continue;
        std::size_t i = slotHash(s.owner) & mask;
        while (owners_[i].epoch == epoch_)
            i = (i + 1) & mask;
        owners_[i] = s;
    }
    owners_used_ = pending_owners;
    last_slot_ = kNone;
}

void
PmPool::compactLog()
{
    for (OwnerSlot &s : owners_)
        s.head = s.tail = kNone;
    std::uint32_t kept = 0;
    for (const LogEntry &e : log_) {
        if (e.next == kDrained)
            continue;
        OwnerSlot &o = owners_[findOwner(e.owner)];
        if (o.tail == kNone)
            o.head = kept;
        else
            log_[o.tail].next = kept;
        o.tail = kept;
        log_[kept++] = {e.addr, e.size, e.owner, kNone, e.pre};
    }
    log_.resize(kept);
}

void
PmPool::settleLog()
{
    if (live_ == 0) {
        log_.clear();
        ++epoch_;
        owners_used_ = 0;
        last_slot_ = kNone;
        pre_lines_.clear();
    } else if (log_.size() > 2 * live_ + 64) {
        compactLog();
    }
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
    const std::uint32_t slot = live_ ? findOwner(owner) : kNone;
    if (slot != kNone) {
        OwnerSlot &o = owners_[slot];
        for (std::uint32_t i = o.head; i != kNone;) {
            const std::uint32_t next = log_[i].next;
            drained += drainEntry(i);
            i = next;
        }
        o.head = o.tail = kNone;
        settleLog();
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
    const std::size_t live_before = live_;
    std::uint64_t drained = 0;
    for (std::uint32_t i = 0; i < log_.size(); ++i) {
        const LogEntry &e = log_[i];
        if (e.next != kDrained && e.addr < hi && e.addr + e.size > lo)
            drained += drainEntry(i);
    }
    // A drained extent may sit inside a chain: relink them all.
    if (live_ == 0)
        settleLog();
    else if (live_ != live_before)
        compactLog();
    if (recorder_)
        recorder_->flushRange(domain_, addr, size, drained);
}

void
PmPool::cpuWritePersist(OwnerId owner, std::uint64_t addr, const void *src,
                        std::uint64_t size, const WrittenRecords *written)
{
    checkRange(addr, size);
    if (written) {
        std::uint64_t end = 0;
        for (const std::uint64_t off : written->offsets) {
            GPM_REQUIRE(written->bytes > 0 && off >= end && off <= size &&
                            written->bytes <= size - off,
                        "written record [", off, ", +", written->bytes,
                        ") out of order or outside a ", size,
                        " B store");
            end = off + written->bytes;
        }
    }
    owner |= kCpuOwnerBase;
    if (recorder_)
        recorder_->store(domain_, owner, addr, size);
    image_.markDirty(addr, size);
    // The store needs no pre-image: the flush below makes the whole
    // range durable before the call returns.
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    std::uint8_t *image = image_.data() + addr;
    if (!written) {
        copyBytes(image, bytes, size);
    } else {
        for (const std::uint64_t off : written->offsets)
            copyBytes(image + off, bytes + off, written->bytes);
    }
    if (domain_ == PersistDomain::LlcDurable)
        refreshPreImages(addr, size);
    else
        appendExtent(owner, addr, size, kNone);
    persistRange(addr, size);
}

void
PmPool::persistAll()
{
    std::uint64_t drained = 0;
    for (std::uint32_t i = 0; i < log_.size(); ++i)
        if (log_[i].next != kDrained)
            drained += drainEntry(i);
    settleLog();
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
        // pending the image is the durable contents.
        persistAll();
    } else {
        // Lines roll owner-ascending, then in insertion order: owner by
        // owner, each down its chain. The owner table is emptied
        // afterwards, so its pending slots are sorted in place.
        std::size_t pending_owners = 0;
        for (const OwnerSlot &o : owners_)
            if (o.epoch == epoch_ && o.head != kNone)
                owners_[pending_owners++] = o;
        std::sort(owners_.begin(), owners_.begin() + pending_owners,
                  [](const OwnerSlot &a, const OwnerSlot &b) {
                      return a.owner < b.owner;
                  });
        // Survival is decided per 128 B cache line, not per pending
        // extent: an extent spanning lines can be torn, with some of
        // its lines evicted to the media before the failure and the
        // rest lost. Line boundaries come from alignDown so tearing is
        // address-stable regardless of how stores were batched.
        for (std::size_t k = 0; k < pending_owners; ++k) {
            for (std::uint32_t i = owners_[k].head; i != kNone;
                 i = log_[i].next) {
                const LogEntry &e = log_[i];
                const std::uint64_t end = e.addr + e.size;
                std::uint64_t lo = alignDown(e.addr, kCrashLineBytes);
                for (; lo < end; lo += kCrashLineBytes) {
                    const std::uint64_t a = std::max(lo, e.addr);
                    ++stats_.crash_sub_extents;
                    if (survive_prob > 0.0 && rng_.chance(survive_prob)) {
                        drain(a, std::min(lo + kCrashLineBytes, end) - a,
                              e.pre);
                        ++stats_.crash_survivors;
                    }
                }
            }
        }
        // Post-reboot: only durable contents remain visible. By the
        // class invariant only lines with a pre-image can differ, so
        // copying those back is the whole reset. It is a second pass:
        // restoring one line before an overlapping extent's surviving
        // part of it was drained would lose that part.
        for (std::uint32_t i = 0; i < pre_lines_.size(); ++i)
            std::memcpy(image_.data() + pre_lines_[i] * kCrashLineBytes,
                        pre_bytes_.data() + i * kCrashLineBytes,
                        kCrashLineBytes);
        if (span.armed())
            restored_bytes = pendingBytes();
        live_ = 0;
        settleLog();
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
    return live_;
}

std::uint64_t
PmPool::pendingBytes() const
{
    std::uint64_t n = 0;
    for (const LogEntry &e : log_)
        if (e.next != kDrained)
            n += e.size;
    return n;
}

void
PmPool::saveDurable(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    GPM_REQUIRE(os.good(), "cannot open '", path, "' for writing");

    const std::uint64_t cap = image_.size();
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
    os.write(reinterpret_cast<const char *>(durableRange(0, cap).data()),
             static_cast<std::streamsize>(cap));
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
        const auto at = pool.regionAt(name);
        if (at == pool.regions_.end() || at->first != name)
            pool.regions_.emplace(at, std::move(name), r);
    }
    pool.image_.markDirty(0, cap);
    is.read(reinterpret_cast<char *>(pool.image_.data()),
            static_cast<std::streamsize>(cap));
    GPM_REQUIRE(is.good(), "short read loading pool from '", path, "'");
    return pool;
}

} // namespace gpm
