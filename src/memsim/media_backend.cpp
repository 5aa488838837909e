#include "memsim/media_backend.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <deque>
#include <unordered_set>

#include "common/status.hpp"
#include "memsim/nvm_model.hpp"

namespace gpm {

namespace {

/**
 * Addresses striped across N DIMMs at a fixed granule; every DIMM is
 * a private single-DIMM NvmModel observing its de-interleaved local
 * address space, so per-DIMM run formation matches what each real
 * DIMM's write-combining buffer would see: a globally sequential
 * stream is locally sequential on every DIMM (granule-sized pieces
 * from stripes k, k+N, k+2N... are adjacent in local space), while
 * short runs straddling a stripe boundary split into per-DIMM
 * fragments too small to combine — interleaving really does defeat
 * the XPLine buffer at boundaries.
 *
 * recordWrite is the simulator's hottest call, so transactions are
 * not classified inline: they append to a per-DIMM pending buffer
 * (one streaming store) and drain in arrival order at any observation
 * point (closeRuns/bytes/bulk paths) or when a buffer fills. Draining
 * one DIMM's batch walks only that DIMM's StreamRuns table — a table
 * holding ~1/N of the streams, hot in cache for the whole batch —
 * which is where the N>=4 recordWrite-path speedup comes from
 * (BM_NvmModelInterleaved, simperf's media stage). Replay order per
 * DIMM equals arrival order, so at N=1 the single inner model sees
 * exactly the legacy call sequence: totals are bit-identical to
 * NvmModel by construction (the property suite pins this).
 */
class InterleavedNvm final : public MediaBackend
{
  public:
    InterleavedNvm(const SimConfig &cfg, int dimms, std::size_t granule)
        : cfg_(&cfg), n_(static_cast<unsigned>(dimms)),
          granule_(granule)
    {
        GPM_REQUIRE(dimms >= 1 && dimms <= 64 &&
                        std::has_single_bit(n_),
                    "interleave width must be a power of two in "
                    "[1, 64], got ", dimms);
        GPM_REQUIRE(std::has_single_bit(granule_) &&
                        granule_ >= cfg.xpline_bytes,
                    "interleave granule must be a power of two >= the "
                    "XPLine size, got ", granule_);
        gshift_ = static_cast<unsigned>(std::countr_zero(granule_));
        nshift_ = static_cast<unsigned>(std::countr_zero(n_));
        for (unsigned d = 0; d < n_; ++d)
            dimms_.emplace_back(cfg);
        pending_.resize(n_);
    }

    MediaKind kind() const override { return MediaKind::Interleaved; }

    void
    recordWrite(std::uint64_t stream, std::uint64_t addr,
                std::uint64_t size) override
    {
        GPM_REQUIRE(size > 0, "zero-size NVM write");
        ++write_txns_;
        if (n_ == 1) {
            push(0, stream, addr, size);
            return;
        }
        // Common case: the transaction sits inside one stripe.
        const std::uint64_t mask = granule_ - 1;
        if (((addr ^ (addr + size - 1)) >> gshift_) == 0) {
            push(dimmOf(addr), stream, localAddr(addr), size);
            return;
        }
        std::uint64_t a = addr;
        std::uint64_t left = size;
        while (left > 0) {
            const std::uint64_t piece =
                std::min(left, granule_ - (a & mask));
            push(dimmOf(a), stream, localAddr(a), piece);
            a += piece;
            left -= piece;
        }
    }

    void
    recordRun(std::uint64_t addr, std::uint64_t size,
              std::uint64_t txns) override
    {
        GPM_REQUIRE(size > 0 && txns > 0, "empty NVM run");
        drainAll();  // keep bulk writes ordered after buffered ones
        write_txns_ += txns;
        if (n_ == 1) {
            dimms_[0].recordRun(addr, size, txns);
            return;
        }
        // A contiguous global range covers, on each DIMM, a contiguous
        // local range (full stripes of one DIMM are locally adjacent,
        // and a partial edge stripe abuts its neighbour), so the run
        // splits into at most one local run per DIMM with transactions
        // shared out by byte coverage.
        struct Cover {
            std::uint64_t start = 0, end = 0;
            bool any = false;
        };
        std::array<Cover, 64> cover{};
        const std::uint64_t mask = granule_ - 1;
        std::uint64_t a = addr;
        std::uint64_t left = size;
        while (left > 0) {
            const std::uint64_t piece =
                std::min(left, granule_ - (a & mask));
            Cover &c = cover[dimmOf(a)];
            const std::uint64_t local = localAddr(a);
            if (!c.any) {
                c = {local, local + piece, true};
            } else {
                GPM_ASSERT(local == c.end);
                c.end = local + piece;
            }
            a += piece;
            left -= piece;
        }
        for (unsigned d = 0; d < n_; ++d) {
            if (!cover[d].any)
                continue;
            const std::uint64_t bytes = cover[d].end - cover[d].start;
            dimms_[d].recordRun(
                cover[d].start, bytes,
                std::max<std::uint64_t>(1, txns * bytes / size));
        }
    }

    void
    recordScattered(std::uint64_t bytes, std::uint64_t txns) override
    {
        // Addressless sparse-line traffic: account it at the aggregate
        // level (it never interacts with run formation). Ordering
        // still matters for nothing but the totals, which are
        // commutative adds — but drain anyway so bytes() observers
        // at this instant match the legacy model's view.
        drainAll();
        scattered_random_ += bytes;
        write_txns_ += txns;
    }

    void
    recordRead(std::uint64_t bytes) override
    {
        read_bytes_ += bytes;
        ++read_ops_;
    }

    void
    closeRuns() override
    {
        drainAll();
        for (NvmModel &d : dimms_)
            d.closeRuns();
    }

    const NvmTierBytes &
    bytes() const override
    {
        drainAll();
        agg_ = NvmTierBytes{0, 0, scattered_random_};
        for (const NvmModel &d : dimms_)
            agg_ += d.bytes();
        return agg_;
    }

    std::uint64_t writeTxns() const override { return write_txns_; }
    std::uint64_t readBytes() const override { return read_bytes_; }
    std::uint64_t readOps() const override { return read_ops_; }

    SimNs
    readTime(std::uint64_t bytes) const override
    {
        if (bytes == 0)
            return 0.0;
        return cfg_->nvm_read_latency_ns +
               transferNs(bytes, cfg_->nvm_read_gbps * scale());
    }

    void
    reset() override
    {
        for (auto &p : pending_)
            p.clear();
        for (NvmModel &d : dimms_)
            d.reset();
        agg_ = NvmTierBytes{};
        scattered_random_ = 0;
        write_txns_ = 0;
        read_bytes_ = 0;
        read_ops_ = 0;
    }

    void
    appendCounters(std::vector<MediaCounter> &out) const override
    {
        drainAll();
        out.push_back({"dimms", n_});
        for (unsigned d = 0; d < n_; ++d) {
            const std::string p = "dimm" + std::to_string(d) + ".";
            const NvmTierBytes &b = dimms_[d].bytes();
            out.push_back({p + "seq_aligned_bytes", b.seq_aligned});
            out.push_back({p + "seq_unaligned_bytes", b.seq_unaligned});
            out.push_back({p + "random_bytes", b.random});
        }
    }

  protected:
    SimNs
    writeTimeImpl(const NvmTierBytes &b,
                  double random_boost) const override
    {
        GPM_ASSERT(random_boost >= 1.0);
        // Ideal striping: every tier's rate scales with the DIMM
        // count (the real testbed's 8-DIMM interleave is what the
        // single-DIMM model's nvm_gpu_random_boost approximated).
        // scale() == 1.0 multiplies exactly, so N=1 reproduces the
        // legacy envelope bit for bit.
        return transferNs(b.seq_aligned,
                          cfg_->nvm_seq_aligned_gbps * scale()) +
               transferNs(b.seq_unaligned,
                          cfg_->nvm_seq_unaligned_gbps * scale()) +
               transferNs(b.random,
                          cfg_->nvm_random_gbps * random_boost *
                              scale());
    }

  private:
    struct Txn {
        std::uint64_t stream;
        std::uint64_t addr;  ///< DIMM-local (de-interleaved) address
        std::uint64_t size;
    };

    /** Buffered transactions per DIMM before a batch drain. */
    static constexpr std::size_t kDrainBatch = 8192;

    unsigned dimmOf(std::uint64_t addr) const
    {
        return static_cast<unsigned>((addr >> gshift_) & (n_ - 1));
    }

    /** Global address -> this DIMM's local byte offset. */
    std::uint64_t localAddr(std::uint64_t addr) const
    {
        const std::uint64_t stripe = addr >> gshift_;
        return ((stripe >> nshift_) << gshift_) |
               (addr & (granule_ - 1));
    }

    double scale() const { return static_cast<double>(n_); }

    void
    push(unsigned d, std::uint64_t stream, std::uint64_t local,
         std::uint64_t size)
    {
        pending_[d].push_back({stream, local, size});
        if (pending_[d].size() >= kDrainBatch)
            drainDimm(d);
    }

    void
    drainDimm(unsigned d) const
    {
        std::vector<Txn> &q = pending_[d];
        NvmModel &m = dimms_[d];
        for (const Txn &t : q)
            m.recordWrite(t.stream, t.addr, t.size);
        q.clear();
    }

    void
    drainAll() const
    {
        for (unsigned d = 0; d < n_; ++d) {
            if (!pending_[d].empty())
                drainDimm(d);
        }
    }

    const SimConfig *cfg_;
    unsigned n_;
    std::uint64_t granule_;
    unsigned gshift_ = 0;
    unsigned nshift_ = 0;
    // Logically-const maintenance: draining replays buffered calls a
    // strict (immediate-mode) implementation would already have made.
    // (deque: NvmModel is a non-movable MediaBackend.)
    mutable std::deque<NvmModel> dimms_;
    mutable std::vector<std::vector<Txn>> pending_;
    mutable NvmTierBytes agg_;
    std::uint64_t scattered_random_ = 0;
    std::uint64_t write_txns_ = 0;
    std::uint64_t read_bytes_ = 0;
    std::uint64_t read_ops_ = 0;
};

/**
 * CXL memory expander: cxl_dev_dimms PM channels interleaved inside
 * the device behind a fixed-bandwidth port. Aligned-sequential bursts
 * saturate the port (the aggregate media rate exceeds it), random
 * traffic stays media-bound, and every read pays the far-memory hop —
 * the envelope bench/ablation_cxl_projection.cpp projected as a
 * one-off, now a selectable backend. applyMediaConfig() pairs it with
 * the cxlAttachedPm() interconnect preset.
 */
class CxlNvm final : public MediaBackend
{
  public:
    explicit CxlNvm(const SimConfig &cfg)
        : cfg_(&cfg),
          media_(cfg, cfg.media.cxl_dev_dimms,
                 cfg.media.interleave_bytes)
    {
    }

    MediaKind kind() const override { return MediaKind::Cxl; }

    void
    recordWrite(std::uint64_t stream, std::uint64_t addr,
                std::uint64_t size) override
    {
        media_.recordWrite(stream, addr, size);
    }

    void
    recordRun(std::uint64_t addr, std::uint64_t size,
              std::uint64_t txns) override
    {
        media_.recordRun(addr, size, txns);
    }

    void
    recordScattered(std::uint64_t bytes, std::uint64_t txns) override
    {
        media_.recordScattered(bytes, txns);
    }

    void recordRead(std::uint64_t bytes) override
    {
        media_.recordRead(bytes);
    }

    void closeRuns() override { media_.closeRuns(); }
    const NvmTierBytes &bytes() const override { return media_.bytes(); }
    std::uint64_t writeTxns() const override { return media_.writeTxns(); }
    std::uint64_t readBytes() const override { return media_.readBytes(); }
    std::uint64_t readOps() const override { return media_.readOps(); }

    SimNs
    readTime(std::uint64_t bytes) const override
    {
        if (bytes == 0)
            return 0.0;
        return cfg_->media.cxl_read_extra_ns + media_.readTime(bytes);
    }

    void reset() override { media_.reset(); }

    void
    appendCounters(std::vector<MediaCounter> &out) const override
    {
        out.push_back({"cxl_dev_dimms",
                       static_cast<std::uint64_t>(
                           cfg_->media.cxl_dev_dimms)});
        media_.appendCounters(out);
    }

  protected:
    SimNs
    writeTimeImpl(const NvmTierBytes &b,
                  double random_boost) const override
    {
        // The slower of the in-device media and the port: the port is
        // a serial pipe every classified byte crosses.
        return std::max(media_.writeTime(b, random_boost),
                        transferNs(b.total(),
                                   cfg_->media.cxl_port_gbps));
    }

  private:
    const SimConfig *cfg_;
    InterleavedNvm media_;
};

/**
 * Battery-backed DRAM cache in front of the NVM (the NUMA-emulated
 * hybrid-memory shape of arXiv 1808.00064, with the front tier inside
 * the persistence domain so functional durability is untouched).
 * Write traffic is filtered at XPLine granularity through a
 * capacity-bounded FIFO directory; only capacity-evicted lines
 * migrate to the NVM model behind, fed through a dedicated migration
 * stream so spatially adjacent evictions still merge into sequential
 * runs. DRAM absorb time (80 GB/s) always hides under PCIe delivery
 * (13 GB/s), so cache hits cost no media time at all — the speedup a
 * reuse-heavy workload sees is the hit rate.
 */
class HybridDramNvm final : public MediaBackend
{
  public:
    explicit HybridDramNvm(const SimConfig &cfg)
        : cfg_(&cfg), nvm_(cfg), line_(cfg.xpline_bytes),
          lshift_(static_cast<unsigned>(std::countr_zero(line_))),
          capacity_lines_(
              std::max<std::size_t>(1, cfg.media.dram_cache_bytes /
                                           cfg.xpline_bytes))
    {
        GPM_REQUIRE(std::has_single_bit(line_),
                    "XPLine size must be a power of two");
    }

    MediaKind kind() const override { return MediaKind::Hybrid; }

    // The stream is unused: the DRAM cache routes every write through
    // its own stream.
    void
    recordWrite(std::uint64_t /*stream*/, std::uint64_t addr,
                std::uint64_t size) override
    {
        GPM_REQUIRE(size > 0, "zero-size NVM write");
        ++write_txns_;
        touchRange(addr, size);
    }

    void
    recordRun(std::uint64_t addr, std::uint64_t size,
              std::uint64_t txns) override
    {
        GPM_REQUIRE(size > 0 && txns > 0, "empty NVM run");
        write_txns_ += txns;
        touchRange(addr, size);
    }

    void
    recordScattered(std::uint64_t bytes, std::uint64_t txns) override
    {
        // Addressless sparse flushes can't be cached by line; they
        // bypass the DRAM tier and hit the media directly.
        nvm_.recordScattered(bytes, txns);
        write_txns_ += txns;
    }

    void
    recordRead(std::uint64_t bytes) override
    {
        nvm_.recordRead(bytes);
    }

    void closeRuns() override { nvm_.closeRuns(); }

    const NvmTierBytes &bytes() const override { return nvm_.bytes(); }

    std::uint64_t writeTxns() const override { return write_txns_; }
    std::uint64_t readBytes() const override { return nvm_.readBytes(); }
    std::uint64_t readOps() const override { return nvm_.readOps(); }

    SimNs
    readTime(std::uint64_t bytes) const override
    {
        return nvm_.readTime(bytes);
    }

    void
    reset() override
    {
        nvm_.reset();
        resident_.clear();
        fifo_.clear();
        hit_bytes_ = 0;
        miss_bytes_ = 0;
        writeback_bytes_ = 0;
        write_txns_ = 0;
    }

    void
    appendCounters(std::vector<MediaCounter> &out) const override
    {
        out.push_back({"dram_hit_bytes", hit_bytes_});
        out.push_back({"dram_miss_bytes", miss_bytes_});
        out.push_back({"dram_writeback_bytes", writeback_bytes_});
        out.push_back({"dram_resident_lines", fifo_.size()});
        out.push_back({"dram_capacity_lines", capacity_lines_});
    }

  protected:
    SimNs
    writeTimeImpl(const NvmTierBytes &b,
                  double random_boost) const override
    {
        // b is a delta of bytes(), i.e. writeback/bypass traffic that
        // actually reached the media; DRAM absorb is never the
        // bottleneck (it out-runs PCIe delivery), so hits are free.
        return nvm_.writeTime(b, random_boost);
    }

  private:
    /** Writer identity for capacity-evicted lines: FIFO order keeps
     *  insertion locality, so sequential working sets migrate as
     *  sequential runs on this stream. */
    static constexpr std::uint64_t kMigrationStream =
        0xFFFFFFFFFFFFFFF0ull;

    void
    touchRange(std::uint64_t addr, std::uint64_t size)
    {
        const std::uint64_t first = addr >> lshift_;
        const std::uint64_t last = (addr + size - 1) >> lshift_;
        for (std::uint64_t l = first; l <= last; ++l) {
            const std::uint64_t lo =
                std::max(addr, l << lshift_);
            const std::uint64_t hi =
                std::min(addr + size, (l + 1) << lshift_);
            if (resident_.contains(l)) {
                hit_bytes_ += hi - lo;
                continue;
            }
            miss_bytes_ += hi - lo;
            resident_.insert(l);
            fifo_.push_back(l);
            if (fifo_.size() > capacity_lines_) {
                const std::uint64_t victim = fifo_.front();
                fifo_.pop_front();
                resident_.erase(victim);
                nvm_.recordWrite(kMigrationStream, victim << lshift_,
                                 line_);
                writeback_bytes_ += line_;
            }
        }
    }

    const SimConfig *cfg_;
    NvmModel nvm_;
    std::uint64_t line_;
    unsigned lshift_;
    std::size_t capacity_lines_;
    std::unordered_set<std::uint64_t> resident_;
    std::deque<std::uint64_t> fifo_;  ///< resident lines, insert order
    std::uint64_t hit_bytes_ = 0;
    std::uint64_t miss_bytes_ = 0;
    std::uint64_t writeback_bytes_ = 0;
    std::uint64_t write_txns_ = 0;
};

/** Strict bounded decimal (the parseSweepJobs grammar). */
std::optional<long>
parseBounded(std::string_view s, long lo, long hi)
{
    if (s.empty() || s.size() > 5)
        return std::nullopt;
    long v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return std::nullopt;
        v = v * 10 + (c - '0');
    }
    if (v < lo || v > hi)
        return std::nullopt;
    return v;
}

} // namespace

std::optional<MediaConfig>
parseMediaConfig(std::string_view key)
{
    MediaConfig m;
    if (key == "nvm")
        return m;
    if (key == "cxl") {
        m.kind = MediaKind::Cxl;
        return m;
    }
    constexpr std::string_view kInter = "interleaved";
    constexpr std::string_view kHybrid = "hybrid";
    if (key.substr(0, kInter.size()) == kInter) {
        m.kind = MediaKind::Interleaved;
        std::string_view rest = key.substr(kInter.size());
        if (rest.empty())
            return m;
        if (rest.front() != ':')
            return std::nullopt;
        const auto v = parseBounded(rest.substr(1), 1, 64);
        if (!v || (*v & (*v - 1)) != 0)
            return std::nullopt;
        m.dimms = static_cast<int>(*v);
        return m;
    }
    if (key.substr(0, kHybrid.size()) == kHybrid) {
        m.kind = MediaKind::Hybrid;
        std::string_view rest = key.substr(kHybrid.size());
        if (rest.empty())
            return m;
        if (rest.front() != ':')
            return std::nullopt;
        const auto v = parseBounded(rest.substr(1), 1, 4096);
        if (!v)
            return std::nullopt;
        m.dram_cache_bytes = static_cast<std::size_t>(*v) << 20;
        return m;
    }
    return std::nullopt;
}

std::string
mediaKey(const MediaConfig &m)
{
    switch (m.kind) {
      case MediaKind::Nvm:
        return "nvm";
      case MediaKind::Interleaved:
        return "interleaved:" + std::to_string(m.dimms);
      case MediaKind::Cxl:
        return "cxl";
      case MediaKind::Hybrid:
        return "hybrid:" +
               std::to_string(m.dram_cache_bytes >> 20);
    }
    return "?";
}

const char *
mediaUsage()
{
    return "nvm, interleaved[:dimms], cxl, hybrid[:cache_mib]";
}

void
applyMediaConfig(SimConfig &cfg, const MediaConfig &m)
{
    cfg.media = m;
    if (m.kind == MediaKind::Cxl) {
        const SimConfig cxl = SimConfig::cxlAttachedPm();
        cfg.pcie_gbps = cxl.pcie_gbps;
        cfg.pcie_persist_op_ns = cxl.pcie_persist_op_ns;
        cfg.pcie_concurrency = cxl.pcie_concurrency;
        cfg.fence_mc_ns = cxl.fence_mc_ns;
        cfg.dma_init_ns = cxl.dma_init_ns;
    }
}

MediaConfig
mediaFromEnv(const MediaConfig &fallback)
{
    const char *s = std::getenv("GPM_MEDIA");
    if (s == nullptr)
        return fallback;
    return parseMediaConfig(s).value_or(fallback);
}

std::unique_ptr<MediaBackend>
makeMediaBackend(const SimConfig &cfg)
{
    switch (cfg.media.kind) {
      case MediaKind::Nvm:
        return std::make_unique<NvmModel>(cfg);
      case MediaKind::Interleaved:
        return std::make_unique<InterleavedNvm>(
            cfg, cfg.media.dimms, cfg.media.interleave_bytes);
      case MediaKind::Cxl:
        return std::make_unique<CxlNvm>(cfg);
      case MediaKind::Hybrid:
        return std::make_unique<HybridDramNvm>(cfg);
    }
    GPM_REQUIRE(false, "unreachable media kind");
    return nullptr;
}

} // namespace gpm
