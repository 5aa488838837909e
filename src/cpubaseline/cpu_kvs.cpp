#include "cpubaseline/cpu_kvs.hpp"

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"

namespace gpm {

namespace {

/** WAL record: key, value, and a committed marker word. */
struct WalRecord {
    std::uint64_t key;
    std::uint64_t value;
};

} // namespace

CpuPmKvs::CpuPmKvs(Machine &m, CpuKvsDesign design, const CpuKvsParams &p)
    : m_(&m), design_(design), p_(p)
{
    GPM_REQUIRE(m.kind() == PlatformKind::CpuOnly,
                "CPU KVS runs on the CpuOnly platform");
}

void
CpuPmKvs::setup()
{
    const std::uint64_t store_bytes =
        std::uint64_t(p_.n_sets) * GpKvsParams::kWays * sizeof(KvPair) +
        std::uint64_t(p_.batch_ops) * p_.batches * sizeof(KvPair);
    store_ = m_->pool().map("cpukvs.store", store_bytes, true);
    if (design_ != CpuKvsDesign::HashDirect) {
        wal_ = m_->pool().map(
            "cpukvs.wal",
            std::uint64_t(p_.batch_ops) * p_.batches *
                sizeof(WalRecord) + 64, true);
    }
}

void
CpuPmKvs::setHash(std::uint64_t key, std::uint64_t value)
{
    // Probe the 8-way set in place on PM, then write + flush + fence.
    const std::uint32_t set =
        static_cast<std::uint32_t>(GpKvs::hashKey(key) % p_.n_sets);
    std::uint32_t way = GpKvsParams::kWays;
    KvPair pair;
    for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
        m_->pool().read(store_.offset +
                            (std::uint64_t(set) * GpKvsParams::kWays +
                             w) * sizeof(KvPair),
                        &pair, sizeof(pair));
        if (pair.key == key || pair.key == 0) {
            way = w;
            break;
        }
    }
    if (way == GpKvsParams::kWays)
        return;  // set full: the SET fails, as in gpKVS

    const KvPair nv{key, value};
    const std::uint64_t addr =
        store_.offset +
        (std::uint64_t(set) * GpKvsParams::kWays + way) * sizeof(KvPair);
    m_->pool().cpuWritePersist(0, addr, &nv, sizeof(nv));
    // Scattered 256 B internal line write at the media.
    m_->nvm().recordScattered(m_->config().xpline_bytes, 1);
}

void
CpuPmKvs::spillMemtable()
{
    // Sorted run to PM; LsmWal rewrites more data per spill
    // (compaction into the lower level) than the matrix container.
    std::vector<KvPair> run;
    run.reserve(memtable_.size());
    for (const auto &[k, v] : memtable_) {
        run.emplace_back(k, v);
        spilled_[k] = v;
    }
    const double amplification =
        design_ == CpuKvsDesign::LsmWal ? 3.0 : 1.3;
    const std::uint64_t bytes = run.size() * sizeof(KvPair);
    m_->cpuWritePersist(store_.offset + run_tail_, run.data(), bytes,
                        p_.threads);
    // Compaction rewrites charged as extra sequential media traffic.
    m_->advance(transferNs(
        static_cast<std::uint64_t>(bytes * (amplification - 1.0)),
        m_->config().nvm_seq_unaligned_gbps));
    run_tail_ += bytes;
    memtable_.clear();

    // Truncate the WAL (one persisted tail store).
    wal_tail_ = 0;
    const std::uint64_t zero = 0;
    m_->cpuWritePersist(wal_.offset, &zero, 8, 1);
}

void
CpuPmKvs::setLsm(std::uint64_t key, std::uint64_t value)
{
    // WAL append: sequential, unaligned PM writes.
    const WalRecord rec{key, value};
    const std::uint64_t addr = wal_.offset + 64 + wal_tail_;
    m_->pool().cpuWritePersist(0, addr, &rec, sizeof(rec));
    m_->nvm().recordRun(addr, sizeof(rec), 1 + sizeof(rec) / 64);
    wal_tail_ += sizeof(rec);

    // Persist the WAL tail so recovery knows the committed prefix.
    const std::uint64_t tail = wal_tail_;
    m_->pool().cpuWritePersist(0, wal_.offset, &tail, 8);

    memtable_[key] = value;
    if (memtable_.size() >= p_.memtable_ops)
        spillMemtable();
}

WorkloadResult
CpuPmKvs::run()
{
    setup();
    WorkloadResult r;
    const SimNs t0 = m_->now();

    const SimNs sw_ns = design_ == CpuKvsDesign::HashDirect
        ? p_.sw_op_ns_hash
        : design_ == CpuKvsDesign::LsmWal ? p_.sw_op_ns_lsm
                                          : p_.sw_op_ns_matrix;

    for (std::uint32_t b = 0; b < p_.batches; ++b) {
        Rng rng = Rng(p_.seed).split(b);
        for (std::uint32_t i = 0; i < p_.batch_ops; ++i) {
            const std::uint64_t key = rng.next() | 1;
            const std::uint64_t value = rng.next() | 1;
            rng.uniform();  // keep the stream aligned with gpKVS ops
            if (design_ == CpuKvsDesign::HashDirect)
                setHash(key, value);
            else
                setLsm(key, value);
            committed_.push_back(KvPair{key, value});
            // Engine software path (locks, allocator, index).
            m_->advance(sw_ns + m_->config().cpu_sfence_ns);
        }
        r.ops_done += p_.batch_ops;
    }
    // Media time for the scattered / WAL traffic recorded above.
    m_->nvm().closeRuns();
    r.op_ns = m_->now() - t0;
    r.persisted_payload = m_->persistPayloadBytes();

    std::uint64_t v = 0;
    r.verified = !committed_.empty() &&
                 lookup(committed_.back().key, v) &&
                 v == committed_.back().value;
    return r;
}

bool
CpuPmKvs::lookup(std::uint64_t key, std::uint64_t &value_out) const
{
    if (design_ == CpuKvsDesign::HashDirect) {
        const std::uint32_t set = static_cast<std::uint32_t>(
            GpKvs::hashKey(key) % p_.n_sets);
        for (std::uint32_t w = 0; w < GpKvsParams::kWays; ++w) {
            const KvPair pair = m_->pool().load<KvPair>(
                store_.offset +
                (std::uint64_t(set) * GpKvsParams::kWays + w) *
                    sizeof(KvPair));
            if (pair.key == key) {
                value_out = pair.value;
                return true;
            }
        }
        return false;
    }
    auto it = memtable_.find(key);
    if (it != memtable_.end()) {
        value_out = it->second;
        return true;
    }
    it = spilled_.find(key);
    if (it != spilled_.end()) {
        value_out = it->second;
        return true;
    }
    return false;
}

bool
CpuPmKvs::crashAndRecover(double survive_prob)
{
    m_->pool().crash(survive_prob);

    if (design_ != CpuKvsDesign::HashDirect) {
        // Replay the committed WAL prefix into a fresh memtable.
        memtable_.clear();
        const std::uint64_t tail =
            m_->pool().load<std::uint64_t>(wal_.offset);
        for (std::uint64_t off = 0; off + sizeof(WalRecord) <= tail;
             off += sizeof(WalRecord)) {
            const auto rec = m_->pool().load<WalRecord>(
                wal_.offset + 64 + off);
            memtable_[rec.key] = rec.value;
        }
        m_->cpuPmRead(tail, 1);
    }

    // Every committed key must still map to its latest value.
    std::map<std::uint64_t, std::uint64_t> latest;
    for (const KvPair &pair : committed_)
        latest[pair.key] = pair.value;
    for (const auto &[key, value] : latest) {
        std::uint64_t v = 0;
        if (!lookup(key, v)) {
            // HashDirect legitimately rejects SETs into full sets.
            if (design_ == CpuKvsDesign::HashDirect)
                continue;
            return false;
        }
        if (v != value)
            return false;
    }
    return true;
}

} // namespace gpm
