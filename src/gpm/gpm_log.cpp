#include "gpm/gpm_log.hpp"

#include <algorithm>
#include <cstring>

#include "pmem/pm_events.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

namespace {

/**
 * Per-append accounting. Individual spans would swamp the timeline
 * (canonical workloads append tens of thousands of times), so every
 * append bumps a counter and only every 256th — per calling thread,
 * so parallel lanes never race on the sample cursor — drops an
 * instant marker.
 */
void
noteAppend(const char *name)
{
    telemetry::count(name);
    if (telemetry::enabled()) {
        static thread_local std::uint64_t n = 0;
        if ((n++ & 255u) == 0)
            telemetry::instant("log", name);
    }
}

} // namespace

namespace {

/** Pad an entry size to whole 4 B chunks (HCL's striping grain). */
std::uint32_t
padChunks(std::uint32_t entry_bytes)
{
    return static_cast<std::uint32_t>(alignUp(entry_bytes, 4));
}

} // namespace

GpmLog::GpmLog(Machine &m, PmRegion region, GpmLogHeader hdr)
    : m_(&m), region_(region), hdr_(hdr)
{
    if (hdr_.type == Conventional)
        conv_inserts_.assign(hdr_.n_partitions, 0);
}

std::uint32_t
GpmLog::warpsPerBlock() const
{
    return (hdr_.block_threads + hdr_.warp_size - 1) / hdr_.warp_size;
}

std::uint64_t
GpmLog::warpRegionBytes() const
{
    return std::uint64_t(hdr_.max_entries) * chunksPerEntry() *
           stripeBytes();
}

std::uint64_t
GpmLog::tailsOffset() const
{
    if (hdr_.type == Hcl) {
        return dataOffset() +
               std::uint64_t(hdr_.blocks) * warpsPerBlock() *
                   warpRegionBytes();
    }
    return dataOffset() +
           std::uint64_t(hdr_.n_partitions) * hdr_.partition_bytes;
}

std::uint64_t
GpmLog::tailAddr(std::uint64_t gtid) const
{
    return tailsOffset() + gtid * 4;
}

std::uint64_t
GpmLog::hclRegionBytes(std::uint32_t entry_bytes,
                       std::uint32_t max_entries, std::uint32_t blocks,
                       std::uint32_t block_threads,
                       std::uint32_t warp_size)
{
    const std::uint64_t chunks = padChunks(entry_bytes) / 4;
    const std::uint64_t warps_per_block =
        (block_threads + warp_size - 1) / warp_size;
    const std::uint64_t data = std::uint64_t(blocks) * warps_per_block *
                               max_entries * chunks * (warp_size * 4ull);
    const std::uint64_t tails =
        std::uint64_t(blocks) * block_threads * 4;
    return 256 + data + tails;
}

void
GpmLog::writeHeader(Machine &m)
{
    m.cpuWritePersist(region_.offset, &hdr_, sizeof(hdr_), 1);
}

/**
 * Tell an attached gpmcheck recorder what this log means for
 * durability: entries are data, tails are the commit sentinels, and
 * insert()'s protocol requires every entry chunk to be *strictly*
 * durable before the tail bump that publishes it — the same epoch
 * would let a crash tear the entry while the bumped tail survives.
 */
void
GpmLog::declareDurableIntent(const std::string &path) const
{
    PmEventRecorder *rec = m_->pool().recorder();
    if (!rec)
        return;
    const std::uint64_t tails = tailsOffset();
    const std::uint64_t tails_bytes =
        hdr_.type == Hcl
            ? std::uint64_t(hdr_.blocks) * hdr_.block_threads * 4
            : std::uint64_t(hdr_.n_partitions) * 4;
    rec->declareRange(path + ".entries", dataOffset(),
                      tails - dataOffset(), 0, PmRangeKind::Data);
    rec->declareRange(path + ".tails", tails, tails_bytes, 0,
                      PmRangeKind::Commit);
    rec->declareOrder(path + ".entries", path + ".tails",
                      /*strict=*/true);
}

GpmLog
GpmLog::createHcl(Machine &m, const std::string &path,
                  std::uint32_t entry_bytes,
                  std::uint32_t max_entries_per_thread,
                  std::uint32_t blocks, std::uint32_t block_threads)
{
    GPM_REQUIRE(entry_bytes > 0 && entry_bytes <= 1024,
                "HCL entry size ", entry_bytes, " out of range");
    GPM_REQUIRE(max_entries_per_thread > 0, "HCL needs capacity");

    const std::uint32_t warp_size =
        static_cast<std::uint32_t>(m.config().warp_size);
    GpmLogHeader hdr;
    hdr.magic = kMagic;
    hdr.type = Hcl;
    hdr.entry_bytes = padChunks(entry_bytes);
    hdr.max_entries = max_entries_per_thread;
    hdr.blocks = blocks;
    hdr.block_threads = block_threads;
    hdr.warp_size = warp_size;

    const std::uint64_t bytes =
        hclRegionBytes(entry_bytes, max_entries_per_thread, blocks,
                       block_threads, warp_size);
    PmRegion region = m.pool().map(path, bytes, /*create=*/true);
    GpmLog log(m, region, hdr);
    log.writeHeader(m);
    log.declareDurableIntent(path);
    return log;
}

GpmLog
GpmLog::createConv(Machine &m, const std::string &path,
                   std::uint64_t partition_bytes,
                   std::uint32_t n_partitions)
{
    GPM_REQUIRE(n_partitions > 0 && partition_bytes > 0,
                "conventional log needs partitions");
    GpmLogHeader hdr;
    hdr.magic = kMagic;
    hdr.type = Conventional;
    hdr.warp_size = static_cast<std::uint32_t>(m.config().warp_size);
    hdr.n_partitions = n_partitions;
    hdr.partition_bytes = partition_bytes;

    const std::uint64_t bytes =
        256 + n_partitions * partition_bytes + n_partitions * 4ull;
    PmRegion region = m.pool().map(path, bytes, /*create=*/true);
    GpmLog log(m, region, hdr);
    log.writeHeader(m);
    log.declareDurableIntent(path);
    return log;
}

GpmLog
GpmLog::open(Machine &m, const std::string &path)
{
    PmRegion region = m.pool().region(path);
    GpmLogHeader hdr;
    m.pool().read(region.offset, &hdr, sizeof(hdr));
    GPM_REQUIRE(hdr.magic == kMagic, "'", path, "' is not a gpmlog");
    m.advance(m.config().syscall_ns);
    GpmLog log(m, region, hdr);
    log.declareDurableIntent(path);
    return log;
}

void
GpmLog::close()
{
    m_->advance(m_->config().syscall_ns);
}

std::uint64_t
GpmLog::chunkAddr(std::uint64_t gtid, std::uint32_t row,
                  std::uint32_t k) const
{
    GPM_ASSERT(hdr_.type == Hcl);
    const std::uint64_t block = gtid / hdr_.block_threads;
    const std::uint64_t thread = gtid % hdr_.block_threads;
    const std::uint64_t warp =
        block * warpsPerBlock() + thread / hdr_.warp_size;
    const std::uint64_t lane = thread % hdr_.warp_size;
    return dataOffset() + warp * warpRegionBytes() +
           (std::uint64_t(row) * chunksPerEntry() + k) * stripeBytes() +
           lane * 4;
}

void
GpmLog::insert(ThreadCtx &ctx, const void *entry, std::uint32_t size,
               int partition)
{
    if (hdr_.type == Hcl) {
        noteAppend("log.hcl_appends");
        GPM_REQUIRE(size <= hdr_.entry_bytes, "entry of ", size,
                    " bytes exceeds HCL entry size ", hdr_.entry_bytes);
        const std::uint64_t gtid = ctx.globalId();
        const std::uint32_t tail = ctx.pmLoad<std::uint32_t>(
            tailAddr(gtid));
        GPM_REQUIRE(tail < hdr_.max_entries,
                    "HCL log full for thread ", gtid);

        // Stripe the entry: chunk k goes to stripe k at this lane's
        // 4 B slot (Fig 5). All lanes' chunk-k stores share one
        // coalesced 128 B transaction.
        const std::uint32_t chunks = chunksPerEntry();
        for (std::uint32_t k = 0; k < chunks; ++k) {
            std::uint32_t word = 0;
            const std::uint32_t off = k * 4;
            if (off < size) {
                std::memcpy(&word,
                            static_cast<const std::uint8_t *>(entry) + off,
                            std::min<std::uint32_t>(4, size - off));
            }
            ctx.pmStore(chunkAddr(gtid, tail, k), word);
        }
        ctx.threadfenceSystem();           // entry durable first...
        ctx.pmStore(tailAddr(gtid), tail + 1);
        ctx.threadfenceSystem();           // ...then the sentinel
        return;
    }

    // Conventional: append under the partition lock.
    noteAppend("log.conv_appends");
    const std::uint32_t p = partition >= 0
        ? static_cast<std::uint32_t>(partition)
        : static_cast<std::uint32_t>(ctx.globalId() % hdr_.n_partitions);
    GPM_REQUIRE(p < hdr_.n_partitions, "partition ", p, " out of range");

    const std::uint32_t tail =
        ctx.pmLoad<std::uint32_t>(tailAddr(p));
    GPM_REQUIRE(tail + size <= hdr_.partition_bytes,
                "conventional log partition ", p, " full");
    // The partition's tail region is one contiguous media stream no
    // matter which warp holds the append lock.
    ctx.pmWriteStream((std::uint64_t(1) << 48) | p,
                      dataOffset() +
                          std::uint64_t(p) * hdr_.partition_bytes +
                          tail, entry, size);
    ctx.threadfenceSystem();
    ctx.pmStore(tailAddr(p), tail + size);
    ctx.threadfenceSystem();
    ++conv_inserts_[p];
}

bool
GpmLog::read(ThreadCtx &ctx, void *out, std::uint32_t size,
             int partition)
{
    if (hdr_.type == Hcl) {
        const std::uint64_t gtid = ctx.globalId();
        const std::uint32_t tail =
            ctx.pmLoad<std::uint32_t>(tailAddr(gtid));
        if (tail == 0)
            return false;
        const std::uint32_t row = tail - 1;
        const std::uint32_t chunks = chunksPerEntry();
        for (std::uint32_t k = 0; k < chunks && k * 4 < size; ++k) {
            const std::uint32_t word =
                ctx.pmLoad<std::uint32_t>(chunkAddr(gtid, row, k));
            std::memcpy(static_cast<std::uint8_t *>(out) + k * 4, &word,
                        std::min<std::uint32_t>(4, size - k * 4));
        }
        return true;
    }

    const std::uint32_t p = partition >= 0
        ? static_cast<std::uint32_t>(partition)
        : static_cast<std::uint32_t>(ctx.globalId() % hdr_.n_partitions);
    const std::uint32_t tail = ctx.pmLoad<std::uint32_t>(tailAddr(p));
    if (tail < size)
        return false;
    ctx.pmRead(dataOffset() + std::uint64_t(p) * hdr_.partition_bytes +
                   tail - size, out, size);
    return true;
}

void
GpmLog::remove(ThreadCtx &ctx, std::uint32_t size, int partition)
{
    if (hdr_.type == Hcl) {
        (void)size;  // entries are fixed-size rows
        const std::uint64_t gtid = ctx.globalId();
        const std::uint32_t tail =
            ctx.pmLoad<std::uint32_t>(tailAddr(gtid));
        GPM_REQUIRE(tail > 0, "gpmlog_remove on empty thread log");
        ctx.pmStore(tailAddr(gtid), tail - 1);
        ctx.threadfenceSystem();
        return;
    }

    const std::uint32_t p = partition >= 0
        ? static_cast<std::uint32_t>(partition)
        : static_cast<std::uint32_t>(ctx.globalId() % hdr_.n_partitions);
    const std::uint32_t tail = ctx.pmLoad<std::uint32_t>(tailAddr(p));
    GPM_REQUIRE(tail >= size, "gpmlog_remove of ", size,
                " bytes from partition holding ", tail);
    ctx.pmStore(tailAddr(p), tail - size);
    ctx.threadfenceSystem();
}

void
GpmLog::clearAll()
{
    const std::uint64_t n = hdr_.type == Hcl
        ? std::uint64_t(hdr_.blocks) * hdr_.block_threads
        : hdr_.n_partitions;
    std::vector<std::uint32_t> zeros(n, 0);
    m_->cpuWritePersist(tailsOffset(), zeros.data(), n * 4, 1);
}

void
GpmLog::prefetchInsert(std::uint64_t gtid) const
{
    if (hdr_.type != Hcl ||
        gtid >= std::uint64_t(hdr_.blocks) * hdr_.block_threads)
        return;
    PmPool &pool = m_->pool();
    std::uint32_t tail = 0;
    std::memcpy(&tail, pool.visible() + tailAddr(gtid), sizeof(tail));
    if (tail >= hdr_.max_entries)
        return;
    for (std::uint32_t k = 0; k < chunksPerEntry(); ++k)
        pool.prefetch(chunkAddr(gtid, tail, k), 4);
    pool.prefetch(tailAddr(gtid), sizeof(tail));
}

std::uint32_t
GpmLog::tailOf(std::uint64_t gtid) const
{
    GPM_ASSERT(hdr_.type == Hcl);
    return m_->pool().load<std::uint32_t>(tailAddr(gtid));
}

std::uint64_t
GpmLog::entryCount() const
{
    GPM_ASSERT(hdr_.type == Hcl);
    std::uint64_t total = 0;
    const std::uint64_t n =
        std::uint64_t(hdr_.blocks) * hdr_.block_threads;
    for (std::uint64_t t = 0; t < n; ++t)
        total += tailOf(t);
    return total;
}

void
GpmLog::readEntryHost(std::uint64_t gtid, std::uint32_t row, void *out,
                      std::uint32_t size) const
{
    GPM_ASSERT(hdr_.type == Hcl);
    const std::uint32_t chunks = chunksPerEntry();
    for (std::uint32_t k = 0; k < chunks && k * 4 < size; ++k) {
        const std::uint32_t word =
            m_->pool().load<std::uint32_t>(chunkAddr(gtid, row, k));
        std::memcpy(static_cast<std::uint8_t *>(out) + k * 4, &word,
                    std::min<std::uint32_t>(4, size - k * 4));
    }
}

std::uint64_t
GpmLog::partitionBytesUsed(std::uint32_t p) const
{
    GPM_ASSERT(hdr_.type == Conventional);
    GPM_REQUIRE(p < hdr_.n_partitions, "partition out of range");
    return m_->pool().load<std::uint32_t>(tailAddr(p));
}

SimNs
GpmLog::consumeSerializationNs()
{
    if (hdr_.type != Conventional)
        return 0.0;
    std::uint64_t worst = 0;
    for (auto &count : conv_inserts_) {
        worst = std::max(worst, count);
        count = 0;
    }
    return static_cast<SimNs>(worst) * m_->config().conv_log_lock_ns;
}

} // namespace gpm
