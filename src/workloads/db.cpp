#include "workloads/db.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"
#include "pmem/pm_events.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {

namespace {

constexpr std::uint64_t kRowCountOff = 0;   ///< u64
constexpr std::uint64_t kTxnFlagOff = 8;    ///< u32
constexpr std::uint64_t kBatchIdOff = 12;   ///< u32

/** Undo record for one UPDATE: the whole old row + its index. */
struct RowLogEntry {
    std::uint64_t row_idx = 0;
    DbRow old_row;
    std::uint32_t batch = 0;
};

/** Row-content versions: initial load, INSERT batch b, UPDATE batch b. */
constexpr std::uint32_t kInitialVersion = 0;
constexpr std::uint32_t
insertVersion(std::uint32_t batch)
{
    return 1 + batch;
}
constexpr std::uint32_t
updateVersion(std::uint32_t batch)
{
    return 1000 + batch;
}

} // namespace

GpDb::GpDb(Machine &m, const GpDbParams &p) : m_(&m), p_(p)
{
    GPM_REQUIRE(p_.initial_rows > 0, "gpDB needs initial rows");
    GPM_REQUIRE(p_.update_rows <= p_.initial_rows,
                "more updates than rows");
}

std::uint64_t
GpDb::rowAddr(std::uint64_t idx) const
{
    return table_.offset + idx * GpDbParams::kRowBytes;
}

DbRow
GpDb::makeRow(std::uint64_t idx, std::uint32_t version) const
{
    Rng rng = Rng(p_.seed).split(idx * 4099 + version);
    DbRow row;
    row.id = static_cast<std::uint32_t>(idx + 1);
    for (std::size_t i = 0; i < sizeof(row.payload); i += 8) {
        const std::uint64_t v = rng.next();
        std::memcpy(row.payload + i, &v,
                    std::min<std::size_t>(8, sizeof(row.payload) - i));
    }
    return row;
}

std::vector<std::uint64_t>
GpDb::makeUpdateTargets(std::uint32_t batch,
                        std::uint64_t row_count) const
{
    Rng rng = Rng(p_.seed ^ 0xdbdbdbdbull).split(batch);
    std::unordered_set<std::uint64_t> seen;
    std::vector<std::uint64_t> targets;
    targets.reserve(p_.update_rows);
    while (targets.size() < p_.update_rows) {
        const std::uint64_t t = rng.below(row_count);
        if (seen.insert(t).second)
            targets.push_back(t);
    }
    return targets;
}

void
GpDb::setup()
{
    // Slack past the table end lets CAP's chunk-rounded transfers of
    // appended rows stay in bounds.
    table_ = gpmMap(*m_, "gpdb.table",
                    p_.tableBytes() + p_.cap_chunk_bytes, true);
    meta_ = gpmMap(*m_, "gpdb.meta", 256, true);

    if (PmEventRecorder *rec = m_->pool().recorder()) {
        // A row is the atomic unit; the durable row count (and, for
        // UPDATE batches, the txn flag) is the commit record that must
        // trail the rows it covers.
        rec->declareRange("gpdb.table", table_.offset,
                          p_.tableBytes() + p_.cap_chunk_bytes,
                          GpDbParams::kRowBytes, PmRangeKind::Data);
        rec->declareRange("gpdb.meta", meta_.offset, 16, 0,
                          PmRangeKind::Commit);
        rec->declareOrder("gpdb.table", "gpdb.meta", /*strict=*/false);
    }

    // Bulk-load the initial rows (setup; persisted from the CPU).
    mirror_.assign(p_.maxRows(), DbRow{});
    for (std::uint64_t i = 0; i < p_.initial_rows; ++i)
        mirror_[i] = makeRow(i, kInitialVersion);
    m_->cpuWritePersist(table_.offset, mirror_.data(),
                        std::uint64_t(p_.initial_rows) *
                            GpDbParams::kRowBytes, p_.cap_threads);
    const std::uint64_t count = p_.initial_rows;
    m_->cpuWritePersist(meta_.offset + kRowCountOff, &count, 8, 1);

    if (inKernelPersistence(m_->kind()) ||
        m_->kind() == PlatformKind::GpmNdp) {
        const std::uint32_t tpb = 256;
        const std::uint32_t blocks = static_cast<std::uint32_t>(
            ceilDiv(std::max(p_.insert_rows, p_.update_rows), tpb));
        if (p_.use_hcl) {
            log_.push_back(GpmLog::createHcl(
                *m_, "gpdb.log", sizeof(RowLogEntry),
                p_.update_batches + 1, blocks, tpb));
        } else {
            const std::uint64_t part_bytes =
                ceilDiv(std::uint64_t(p_.update_rows) *
                            (p_.update_batches + 1) *
                            sizeof(RowLogEntry),
                        p_.conv_partitions) + 4096;
            log_.push_back(GpmLog::createConv(*m_, "gpdb.log",
                                              part_bytes,
                                              p_.conv_partitions));
        }
    }
}

std::uint64_t
GpDb::durableRowCount() const
{
    return m_->pool().loadDurable<std::uint64_t>(meta_.offset +
                                                 kRowCountOff);
}

void
GpDb::mirrorInsert(std::uint32_t batch)
{
    std::uint64_t count = 0;
    for (const DbRow &row : mirror_) {
        if (row.id == 0)
            break;
        ++count;
    }
    for (std::uint32_t i = 0; i < p_.insert_rows; ++i)
        mirror_[count + i] = makeRow(count + i, insertVersion(batch));
}

void
GpDb::mirrorUpdate(std::uint32_t batch)
{
    std::uint64_t count = 0;
    for (const DbRow &row : mirror_) {
        if (row.id == 0)
            break;
        ++count;
    }
    for (const std::uint64_t t : makeUpdateTargets(batch, count))
        mirror_[t] = makeRow(t, updateVersion(batch));
}

void
GpDb::runInsertGpm(std::uint32_t batch, bool ndp)
{
    const std::uint64_t old_count =
        m_->pool().load<std::uint64_t>(meta_.offset + kRowCountOff);

    const std::uint32_t flag_and_batch[2] = {1u, batch};
    m_->cpuWritePersist(meta_.offset + kTxnFlagOff, flag_and_batch, 8,
                        1);

    const std::uint32_t tpb = 256;
    KernelDesc k;
    k.name = "gpdb_insert";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(p_.insert_rows, tpb));
    k.block_threads = tpb;
    k.phases.push_back([this, old_count, batch, ndp](ThreadCtx &ctx) {
        const std::uint64_t i = ctx.globalId();
        if (i >= p_.insert_rows)
            return;
        const DbRow row = makeRow(old_count + i, insertVersion(batch));
        ctx.work(30);
        ctx.pmWrite(rowAddr(old_count + i), &row, sizeof(row));
        if (!ndp)
            gpmPersist(ctx);
    });
    m_->runKernel(k);

    if (ndp) {
        m_->cpuPersistRange(rowAddr(old_count),
                            std::uint64_t(p_.insert_rows) *
                                GpDbParams::kRowBytes, p_.cap_threads);
    }

    // Commit: the durable row count advances only after the rows are.
    const std::uint64_t new_count = old_count + p_.insert_rows;
    if (!ndp) {
        const std::uint64_t count_addr = meta_.offset + kRowCountOff;
        KernelDesc commit;
        commit.name = "gpdb_insert_commit";
        commit.blocks = 1;
        commit.block_threads = 1;
        commit.phases.push_back([count_addr, new_count](ThreadCtx &ctx) {
            ctx.pmStore(count_addr, new_count);
            ctx.threadfenceSystem();
        });
        m_->runKernel(commit);
    } else {
        m_->cpuWritePersist(meta_.offset + kRowCountOff, &new_count, 8,
                            1);
    }

    const std::uint32_t zero = 0;
    m_->cpuWritePersist(meta_.offset + kTxnFlagOff, &zero, 4, 1);
}

void
GpDb::runUpdateGpm(std::uint32_t batch, bool ndp)
{
    const std::uint64_t count =
        m_->pool().load<std::uint64_t>(meta_.offset + kRowCountOff);
    const std::vector<std::uint64_t> targets =
        makeUpdateTargets(batch, count);

    const std::uint32_t flag_and_batch[2] = {1u, batch};
    m_->cpuWritePersist(meta_.offset + kTxnFlagOff, flag_and_batch, 8,
                        1);

    const std::uint32_t tpb = 256;
    KernelDesc k;
    k.name = "gpdb_update";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(p_.update_rows, tpb));
    k.block_threads = tpb;
    k.phases.push_back([this, &targets, batch](ThreadCtx &ctx) {
        const std::uint64_t i = ctx.globalId();
        if (i >= targets.size())
            return;
        const std::uint64_t row_idx = targets[i];
        ctx.work(40);
        // Same kernel under GPM and GPM-NDP (see kvs.cpp).
        RowLogEntry entry;
        entry.row_idx = row_idx;
        m_->pool().read(rowAddr(row_idx), &entry.old_row,
                        sizeof(DbRow));
        entry.batch = batch;
        log_.front().insert(ctx, &entry, sizeof(entry));
        const DbRow row = makeRow(row_idx, updateVersion(batch));
        ctx.pmWrite(rowAddr(row_idx), &row, sizeof(row));
        gpmPersist(ctx);
    });
    m_->runKernel(k);
    m_->advance(log_.front().consumeSerializationNs());
    if (ndp) {
        m_->cpuPersistScattered(std::uint64_t(p_.update_rows) * 4 *
                                    m_->config().cache_line,
                                p_.cap_threads);
    }

    const std::uint32_t zero = 0;
    m_->cpuWritePersist(meta_.offset + kTxnFlagOff, &zero, 4, 1);
}

void
GpDb::runInsertCap(std::uint32_t batch)
{
    const std::uint64_t old_count =
        m_->pool().load<std::uint64_t>(meta_.offset + kRowCountOff);

    // The kernel generates the rows into device-volatile memory.
    const std::uint32_t tpb = 256;
    KernelDesc k;
    k.name = "gpdb_insert_volatile";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(p_.insert_rows, tpb));
    k.block_threads = tpb;
    std::vector<DbRow> rows(p_.insert_rows);
    k.phases.push_back([this, old_count, batch, &rows](ThreadCtx &ctx) {
        const std::uint64_t i = ctx.globalId();
        if (i >= p_.insert_rows)
            return;
        rows[i] = makeRow(old_count + i, insertVersion(batch));
        ctx.work(30);
        ctx.hbmTraffic(sizeof(DbRow));
    });
    m_->runKernel(k);

    // Transfer the appended region rounded to the DMA chunk — the
    // modest write amplification of Table 4's gpDB (I).
    const std::uint64_t bytes = std::uint64_t(p_.insert_rows) *
                                GpDbParams::kRowBytes;
    const std::uint64_t chunked = alignUp(bytes, p_.cap_chunk_bytes);
    std::vector<std::uint8_t> staged(chunked, 0);
    std::memcpy(staged.data(), rows.data(), bytes);
    if (m_->kind() == PlatformKind::CapFs) {
        m_->capFsPersist(rowAddr(old_count), staged.data(), chunked, 1);
    } else {
        m_->capMmPersist(rowAddr(old_count), staged.data(), chunked,
                         p_.cap_threads);
    }
    const std::uint64_t new_count = old_count + p_.insert_rows;
    m_->cpuWritePersist(meta_.offset + kRowCountOff, &new_count, 8, 1);
}

void
GpDb::runUpdateCap(std::uint32_t batch)
{
    const std::uint64_t count =
        m_->pool().load<std::uint64_t>(meta_.offset + kRowCountOff);
    const std::vector<std::uint64_t> targets =
        makeUpdateTargets(batch, count);

    const std::uint32_t tpb = 256;
    KernelDesc k;
    k.name = "gpdb_update_volatile";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(p_.update_rows, tpb));
    k.block_threads = tpb;
    k.phases.push_back([this, &targets, batch](ThreadCtx &ctx) {
        const std::uint64_t i = ctx.globalId();
        if (i >= targets.size())
            return;
        mirror_[targets[i]] = makeRow(targets[i], updateVersion(batch));
        ctx.work(40);
        ctx.hbmTraffic(2 * sizeof(DbRow));
    });
    m_->runKernel(k);

    // Updated rows are scattered and unknown to the host: the whole
    // live table is transferred and persisted (Table 4's ~20x).
    const std::uint64_t bytes = count * GpDbParams::kRowBytes;
    if (m_->kind() == PlatformKind::CapFs) {
        m_->capFsPersist(table_.offset, mirror_.data(), bytes, 1);
    } else {
        m_->capMmPersist(table_.offset, mirror_.data(), bytes,
                         p_.cap_threads);
    }
}

WorkloadResult
GpDb::run(TxnKind kind)
{
    WorkloadResult r;
    if (m_->kind() == PlatformKind::Gpufs) {
        r.supported = false;
        return r;
    }
    setup();

    const SimNs t0 = m_->now();
    const std::uint64_t pcie0 = m_->pcieWriteBytes();
    const std::uint64_t pay0 = m_->persistPayloadBytes();

    const std::uint32_t batches = kind == TxnKind::Insert
        ? p_.insert_batches : p_.update_batches;
    for (std::uint32_t b = 0; b < batches; ++b) {
        const bool gpu_direct = inKernelPersistence(m_->kind()) ||
                                m_->kind() == PlatformKind::GpmNdp;
        if (m_->kind() == PlatformKind::Gpm)
            gpmPersistBegin(*m_);
        if (kind == TxnKind::Insert) {
            mirrorInsert(b);
            if (gpu_direct)
                runInsertGpm(b, m_->kind() == PlatformKind::GpmNdp);
            else
                runInsertCap(b);
            r.ops_done += p_.insert_rows;
        } else {
            mirrorUpdate(b);
            if (gpu_direct)
                runUpdateGpm(b, m_->kind() == PlatformKind::GpmNdp);
            else
                runUpdateCap(b);
            r.ops_done += p_.update_rows;
        }
        if (m_->kind() == PlatformKind::Gpm)
            gpmPersistEnd(*m_);
    }

    r.op_ns = m_->now() - t0;
    r.pcie_write_bytes = m_->pcieWriteBytes() - pcie0;
    r.persisted_payload = m_->persistPayloadBytes() - pay0;

    // Functional check against the mirror.
    const std::uint64_t live =
        m_->pool().load<std::uint64_t>(meta_.offset + kRowCountOff);
    if (inKernelPersistence(m_->kind()) ||
        m_->kind() == PlatformKind::GpmNdp) {
        r.verified = std::memcmp(m_->pool().visible() + table_.offset,
                                 mirror_.data(),
                                 live * GpDbParams::kRowBytes) == 0;
    } else {
        r.verified = true;  // mirror *is* the volatile table under CAP
    }
    return r;
}

std::pair<std::uint64_t, std::uint64_t>
GpDb::runSelect(double selectivity)
{
    GPM_REQUIRE(selectivity >= 0.0 && selectivity <= 1.0,
                "selectivity out of [0,1]");
    GPM_REQUIRE(!mirror_.empty(), "runSelect before setup/run");
    const std::uint64_t count =
        m_->pool().load<std::uint64_t>(meta_.offset + kRowCountOff);
    // 2^64 is not representable in uint64: clamp full selectivity.
    const std::uint64_t threshold = selectivity >= 1.0
        ? ~std::uint64_t(0)
        : static_cast<std::uint64_t>(selectivity * 0x1p64);

    std::uint64_t hits = 0, sum = 0;
    const std::uint32_t tpb = 256;
    KernelDesc k;
    k.name = "gpdb_select";
    k.blocks = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, ceilDiv(count, tpb)));
    k.block_threads = tpb;
    k.phases.push_back([this, count, threshold, &hits,
                        &sum](ThreadCtx &ctx) {
        const std::uint64_t i = ctx.globalId();
        if (i >= count)
            return;
        ctx.work(12);
        ctx.hbmTraffic(sizeof(DbRow));
        const DbRow &row = mirror_[i];
        // splitmix-style predicate hash over the row id.
        std::uint64_t z = row.id + 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z ^= z >> 27;
        if (z <= threshold) {
            ++hits;
            std::uint64_t word = 0;
            std::memcpy(&word, row.payload, sizeof(word));
            sum += word;
        }
    });
    m_->runKernel(k);
    return {hits, sum};
}

WorkloadResult
GpDb::run()
{
    WorkloadResult insert = run(TxnKind::Insert);
    if (!insert.supported)
        return insert;
    WorkloadResult update = run(TxnKind::Update);
    insert.op_ns += update.op_ns;
    insert.ops_done += update.ops_done;
    insert.pcie_write_bytes += update.pcie_write_bytes;
    insert.persisted_payload += update.persisted_payload;
    insert.verified = insert.verified && update.verified;
    return insert;
}

void
GpDb::recoverUpdate()
{
    telemetry::Span span("recovery", "gpdb_recover");
    telemetry::count("recovery.invocations");
    PmRecoveryScope rscope(m_->pool().recorder());
    const std::uint32_t crashed_batch =
        m_->pool().load<std::uint32_t>(meta_.offset + kBatchIdOff);
    const std::uint32_t tpb = 256;

    GpmLog log = GpmLog::open(*m_, "gpdb.log");
    KernelDesc k;
    k.name = "gpdb_recover";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(p_.update_rows, tpb));
    k.block_threads = tpb;
    k.phases.push_back([this, &log, crashed_batch](ThreadCtx &ctx) {
        RowLogEntry entry;
        if (!log.read(ctx, &entry, sizeof(entry)))
            return;
        if (entry.batch != crashed_batch)
            return;
        ctx.pmWrite(rowAddr(entry.row_idx), &entry.old_row,
                    sizeof(DbRow));
        gpmPersist(ctx);
        log.remove(ctx, sizeof(entry));
    });
    m_->runKernel(k);

    const std::uint32_t zero = 0;
    m_->cpuWritePersist(meta_.offset + kTxnFlagOff, &zero, 4, 1);
}

WorkloadResult
GpDb::runWithCrash(TxnKind kind, std::uint32_t crash_batch, double frac,
                   double survive_prob)
{
    const std::uint32_t tpb = 256;
    const std::uint32_t n = kind == TxnKind::Insert ? p_.insert_rows
                                                    : p_.update_rows;
    const std::uint64_t threads = ceilDiv(n, tpb) * tpb;
    WorkloadResult r;
    const CrashOutcome o = runCrashPoint(
        kind, crash_batch,
        CrashPoint::afterThreadPhases(static_cast<std::uint64_t>(
            frac * static_cast<double>(threads))),
        survive_prob, /*open_persist_window=*/true, &r);
    GPM_ASSERT(o.fired || frac >= 1.0, "crash point did not fire");
    return r;
}

CrashOutcome
GpDb::runCrashPoint(TxnKind kind, std::uint32_t crash_batch,
                    const CrashPoint &point, double survive_prob,
                    bool open_persist_window, WorkloadResult *result_out)
{
    GPM_REQUIRE(inKernelPersistence(m_->kind()),
                "crash recovery needs in-kernel persistence");
    GPM_REQUIRE(p_.use_hcl || kind == TxnKind::Insert,
                "per-thread undo recovery requires the HCL log");

    setup();
    WorkloadResult r;
    CrashOutcome o;
    const bool window =
        open_persist_window && m_->kind() == PlatformKind::Gpm;

    // Persistence window stays open through crash and recovery.
    if (window)
        gpmPersistBegin(*m_);

    const SimNs t0 = m_->now();
    for (std::uint32_t b = 0; b < crash_batch; ++b) {
        if (kind == TxnKind::Insert) {
            mirrorInsert(b);
            runInsertGpm(b, false);
        } else {
            mirrorUpdate(b);
            runUpdateGpm(b, false);
        }
    }
    const SimNs clean_ns = m_->now() - t0;

    // Reference durable state: everything before the crashed batch —
    // and the batch applied on top, the other legal atomic outcome
    // when the armed point never fires.
    std::vector<DbRow> reference = mirror_;
    const std::uint64_t ref_count =
        m_->pool().load<std::uint64_t>(meta_.offset + kRowCountOff);
    std::vector<DbRow> committed = mirror_;
    {
        std::vector<DbRow> saved = std::move(mirror_);
        mirror_ = committed;
        if (kind == TxnKind::Insert)
            mirrorInsert(crash_batch);
        else
            mirrorUpdate(crash_batch);
        committed = std::move(mirror_);
        mirror_ = std::move(saved);
    }

    // Arm and run the doomed batch.
    const std::uint32_t batch = crash_batch;
    const std::uint32_t flag_and_batch[2] = {1u, batch};
    m_->cpuWritePersist(meta_.offset + kTxnFlagOff, flag_and_batch, 8,
                        1);

    const std::uint32_t tpb = 256;
    const std::uint32_t n = kind == TxnKind::Insert ? p_.insert_rows
                                                    : p_.update_rows;
    const std::vector<std::uint64_t> targets =
        kind == TxnKind::Update ? makeUpdateTargets(batch, ref_count)
                                : std::vector<std::uint64_t>{};
    KernelDesc k;
    k.name = "gpdb_crashing";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(n, tpb));
    k.block_threads = tpb;
    k.crash = point;
    if (kind == TxnKind::Insert) {
        k.phases.push_back([this, ref_count, batch](ThreadCtx &ctx) {
            const std::uint64_t i = ctx.globalId();
            if (i >= p_.insert_rows)
                return;
            const DbRow row =
                makeRow(ref_count + i, insertVersion(batch));
            ctx.pmWrite(rowAddr(ref_count + i), &row, sizeof(row));
            gpmPersist(ctx);
        });
    } else {
        k.phases.push_back([this, &targets, batch](ThreadCtx &ctx) {
            const std::uint64_t i = ctx.globalId();
            if (i >= targets.size())
                return;
            RowLogEntry entry;
            entry.row_idx = targets[i];
            m_->pool().read(rowAddr(targets[i]), &entry.old_row,
                            sizeof(DbRow));
            entry.batch = batch;
            log_.front().insert(ctx, &entry, sizeof(entry));
            const DbRow row = makeRow(targets[i], updateVersion(batch));
            ctx.pmWrite(rowAddr(targets[i]), &row, sizeof(row));
            gpmPersist(ctx);
        });
    }
    try {
        m_->runKernel(k);
    } catch (const KernelCrashed &) {
        o.fired = true;
    }
    m_->pool().crash(survive_prob);

    const SimNs r0 = m_->now();
    if (m_->pool().load<std::uint32_t>(meta_.offset + kTxnFlagOff) ==
        1) {
        if (!window && m_->kind() == PlatformKind::Gpm)
            gpmPersistBegin(*m_);  // reboot-time recovery persists
        if (kind == TxnKind::Update) {
            recoverUpdate();
        } else {
            // The durable row count never advanced: partial rows are
            // invisible; just clear the flag (Table 5's gpDB (I)).
            const std::uint32_t zero = 0;
            m_->cpuWritePersist(meta_.offset + kTxnFlagOff, &zero, 4,
                                1);
        }
        if (!window && m_->kind() == PlatformKind::Gpm)
            gpmPersistEnd(*m_);
        o.recovery_ran = true;
    }
    r.recovery_ns = m_->now() - r0;
    r.op_ns = clean_ns;
    r.ops_done = static_cast<double>(crash_batch) * n;

    const std::uint64_t count = durableRowCount();
    o.strict_ok =
        (count == ref_count && durableEquals(reference)) ||
        (!o.fired && count == ref_count + (kind == TxnKind::Insert
                                               ? p_.insert_rows
                                               : 0) &&
         durableEquals(committed));
    o.state_hash = fnv1aU64(
        count, fnv1a(m_->pool().durable() + table_.offset,
                     count * GpDbParams::kRowBytes));
    r.verified = o.strict_ok;
    if (result_out)
        *result_out = r;
    return o;
}

bool
GpDb::durableEquals(const std::vector<DbRow> &mirror) const
{
    const std::uint64_t count = durableRowCount();
    return std::memcmp(m_->pool().durable() + table_.offset,
                       mirror.data(),
                       count * GpDbParams::kRowBytes) == 0;
}

} // namespace gpm
