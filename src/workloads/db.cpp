#include "workloads/db.hpp"

#include <algorithm>
#include <cstring>

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

GpDb::GpDb(const GpDbParams &p) : p_(p)
{
    GPM_REQUIRE(p_.initial_rows > 0, "gpDB needs initial rows");
    GPM_REQUIRE(p_.update_rows <= p_.initial_rows,
                "more updates than rows");
}

GpDb::GpDb(Machine &m, const GpDbParams &p) : GpDb(p)
{
    m_ = &m;
}

std::uint64_t
GpDb::rowAddr(std::uint64_t idx) const
{
    return table_.offset + idx * GpDbParams::kRowBytes;
}

DbRow
GpDb::makeRow(std::uint64_t idx, std::uint32_t version) const
{
    static_assert(sizeof(DbRow::payload) % 8 == 0,
                  "the payload is whole RNG words");
    Rng rng = Rng(p_.seed).split(idx * 4099 + version);
    DbRow row;
    row.id = static_cast<std::uint32_t>(idx + 1);
    for (std::size_t i = 0; i < sizeof(row.payload); i += 8) {
        const std::uint64_t v = rng.next();
        std::memcpy(row.payload + i, &v, 8);
    }
    return row;
}

std::vector<std::uint64_t>
GpDb::makeUpdateTargets(std::uint32_t batch,
                        std::uint64_t row_count) const
{
    Rng rng = Rng(p_.seed ^ 0xdbdbdbdbull).split(batch);
    std::vector<std::uint64_t> seen(ceilDiv(row_count, 64), 0);
    std::vector<std::uint64_t> targets;
    targets.reserve(p_.update_rows);
    while (targets.size() < p_.update_rows) {
        const std::uint64_t t = rng.below(row_count);
        std::uint64_t &word = seen[t / 64];
        const std::uint64_t bit = std::uint64_t(1) << (t % 64);
        if (word & bit)
            continue;
        word |= bit;
        targets.push_back(t);
    }
    return targets;
}

void
GpDb::setup()
{
    mirrorInitial();
    setupFrom(mirror_.data());
}

void
GpDb::setupFrom(const void *initial_rows)
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
    m_->cpuWritePersist(table_.offset, initial_rows,
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
GpDb::mirrorInitial()
{
    // Rows are generated in place; only the insert tail is zeroed.
    mirror_.clear();
    mirror_.reserve(p_.maxRows());
    for (std::uint64_t i = 0; i < p_.initial_rows; ++i)
        mirror_.push_back(makeRow(i, kInitialVersion));
    mirror_.resize(p_.maxRows());
    mirror_rows_ = p_.initial_rows;
}

void
GpDb::mirrorInsert(std::uint32_t batch)
{
    const std::uint64_t count = mirror_rows_;
    for (std::uint32_t i = 0; i < p_.insert_rows; ++i)
        mirror_[count + i] = makeRow(count + i, insertVersion(batch));
    mirror_rows_ += p_.insert_rows;
}

void
GpDb::mirrorUpdate(std::uint32_t batch)
{
    for (const std::uint64_t t :
         makeUpdateTargets(batch, mirrorRowCount()))
        mirror_[t] = makeRow(t, updateVersion(batch));
}

void
GpDb::runInsertGpm(std::uint32_t batch, bool ndp,
                   const std::optional<CrashPoint> &crash)
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
    k.crash = crash;
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
    if (crash)
        return;  // a doomed batch never commits, fired or not

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
GpDb::runUpdateGpm(std::uint32_t batch, bool ndp,
                   const std::optional<CrashPoint> &crash)
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
    k.crash = crash;
    k.phases.push_back([this, &targets, batch](ThreadCtx &ctx) {
        const std::uint64_t i = ctx.globalId();
        if (i >= targets.size())
            return;
        const std::uint64_t row_idx = targets[i];
        ctx.work(40);
        if (i + kPrefetchAhead < targets.size())
            m_->pool().prefetch(rowAddr(targets[i + kPrefetchAhead]),
                                sizeof(DbRow));
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
    if (crash)
        return;  // a doomed batch never commits, fired or not
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

    // The kernel generates the rows into device-volatile memory
    // rounded to the DMA chunk. Transferring the zero-padded tail is
    // the modest write amplification of Table 4's gpDB (I).
    const std::uint64_t bytes = std::uint64_t(p_.insert_rows) *
                                GpDbParams::kRowBytes;
    const std::uint64_t chunked = alignUp(bytes, p_.cap_chunk_bytes);
    std::vector<std::uint8_t> staged(chunked, 0);
    const std::uint32_t tpb = 256;
    KernelDesc k;
    k.name = "gpdb_insert_volatile";
    k.blocks = static_cast<std::uint32_t>(ceilDiv(p_.insert_rows, tpb));
    k.block_threads = tpb;
    k.phases.push_back([this, old_count, batch, &staged](ThreadCtx &ctx) {
        const std::uint64_t i = ctx.globalId();
        if (i >= p_.insert_rows)
            return;
        const DbRow row = makeRow(old_count + i, insertVersion(batch));
        std::memcpy(&staged[i * GpDbParams::kRowBytes], &row, sizeof row);
        ctx.work(30);
        ctx.hbmTraffic(sizeof(DbRow));
    });
    m_->runKernel(k);

    m_->capPersist(rowAddr(old_count), staged.data(), chunked,
                   p_.cap_threads);
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
    // live table is transferred and persisted (Table 4's ~20x). The
    // host copies only the updated rows; PM already holds the rest,
    // since setup and every batch persist the whole table.
    std::vector<std::uint64_t> rows(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i)
        rows[i] = targets[i] * GpDbParams::kRowBytes;
    std::sort(rows.begin(), rows.end());
    const WrittenRecords written{rows, GpDbParams::kRowBytes};
    const std::uint64_t bytes = count * GpDbParams::kRowBytes;
    m_->capPersist(table_.offset, mirror_.data(), bytes,
                   p_.cap_threads, &written);
}

WorkloadResult
GpDb::run(TxnKind kind)
{
    WorkloadResult r;
    if (!m_->supports(WriteGrain::Thread)) {
        r.supported = false;
        return r;
    }
    const char *key = kind == TxnKind::Insert ? "dbi" : "dbu";
    {
        WorkloadSpan span("setup", key);
        setup();
    }

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

    // Functional check: the durable row count and table equal the
    // mirror on every platform (under CAP the mirror is also the
    // volatile table the persists copied from).
    WorkloadSpan verify("verify", key);
    const std::uint64_t live = durableRowCount();
    r.verified = live == mirrorRowCount() &&
                 std::memcmp(m_->pool()
                                 .durableRange(table_.offset,
                                               live * GpDbParams::kRowBytes)
                                 .data(),
                             mirror_.data(),
                             live * GpDbParams::kRowBytes) == 0;
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
    undoLogRecover<RowLogEntry>(
        *m_, "gpdb_recover", "gpdb.log", p_.update_rows,
        meta_.offset + kBatchIdOff, meta_.offset + kTxnFlagOff,
        [this](ThreadCtx &ctx, const RowLogEntry &entry) {
            ctx.pmWrite(rowAddr(entry.row_idx), &entry.old_row,
                        sizeof(DbRow));
        });
}

std::uint64_t
GpDb::doomedThreadPhases(const GpDbParams &p, TxnKind kind)
{
    const std::uint32_t rows =
        kind == TxnKind::Insert ? p.insert_rows : p.update_rows;
    return alignUp(std::uint64_t(rows), 256);
}

WorkloadResult
GpDb::runWithCrash(TxnKind kind, std::uint32_t crash_batch, double frac,
                   double survive_prob)
{
    WorkloadResult r;
    const CrashOutcome o = runCrashPoint(
        kind, crashReference(p_, kind, crash_batch),
        CrashPoint::afterFraction(frac, doomedThreadPhases(p_, kind)),
        survive_prob, /*open_persist_window=*/true, &r);
    GPM_ASSERT(o.fired || frac >= 1.0, "crash point did not fire");
    return r;
}

CrashReference
GpDb::crashReference(const GpDbParams &p, TxnKind kind,
                     std::uint32_t crash_batch)
{
    const bool insert = kind == TxnKind::Insert;
    GPM_REQUIRE(crash_batch <
                    (insert ? p.insert_batches : p.update_batches),
                "crash batch out of range");
    telemetry::Span span("oracle", "reference");
    span.arg("workload", insert ? "db-insert" : "db-update");
    GpDb model(p);
    model.mirrorInitial();
    const auto image = [&model] {
        const std::uint64_t rows = model.mirrorRowCount();
        return CrashImage(model.mirror_.data(),
                          rows * GpDbParams::kRowBytes, rows);
    };
    const auto apply = [&model, insert](std::uint32_t b) {
        if (insert)
            model.mirrorInsert(b);
        else
            model.mirrorUpdate(b);
    };
    CrashReference ref;
    ref.crash_batch = crash_batch;
    const auto *rows =
        reinterpret_cast<const std::uint8_t *>(model.mirror_.data());
    ref.initial.assign(rows, rows + std::uint64_t(p.initial_rows) *
                                        GpDbParams::kRowBytes);
    for (std::uint32_t b = 0; b < crash_batch; ++b)
        apply(b);
    ref.pre_crash = image();
    apply(crash_batch);
    ref.committed = image();
    return ref;
}

CrashOutcome
GpDb::runCrashPoint(TxnKind kind, const CrashReference &ref,
                    const CrashPoint &point, double survive_prob,
                    bool open_persist_window, WorkloadResult *result_out)
{
    const bool insert = kind == TxnKind::Insert;
    GPM_REQUIRE(p_.use_hcl || insert,
                "per-thread undo recovery requires the HCL log");
    GPM_REQUIRE(ref.initial.size() == std::uint64_t(p_.initial_rows) *
                                          GpDbParams::kRowBytes,
                "crash reference built for other params");
    CrashSteps s;
    s.workload = CrashWorkload::Db;
    s.crash_step = ref.crash_batch;
    s.setup = [this, &ref] { setupFrom(ref.initial.data()); };
    s.step = [this, insert, &ref](std::uint32_t b,
                                  const std::optional<CrashPoint> &armed) {
        if (armed) {
            // The clean batches must have committed exactly the rows
            // the reference expects: the doomed batch and the oracle
            // both build on that count, so a lost commit must not go
            // unnoticed here.
            const std::uint64_t live =
                m_->pool().load<std::uint64_t>(meta_.offset +
                                               kRowCountOff);
            GPM_ASSERT(live == ref.pre_crash.rows, "gpDB holds ", live,
                       " rows before crash batch ", b,
                       ", the reference expects ", ref.pre_crash.rows);
        }
        if (insert)
            runInsertGpm(b, false, armed);
        else
            runUpdateGpm(b, false, armed);
    };
    s.in_flight = [this] {
        return m_->pool().load<std::uint32_t>(meta_.offset +
                                              kTxnFlagOff) == 1;
    };
    s.recover = [this, insert] {
        if (!insert) {
            recoverUpdate();
            return;
        }
        // The durable row count never advanced: partial rows are
        // invisible; just clear the flag (Table 5's gpDB (I)).
        const std::uint32_t zero = 0;
        m_->cpuWritePersist(meta_.offset + kTxnFlagOff, &zero, 4, 1);
    };
    s.ops_done = [this, insert, &ref] {
        return static_cast<double>(ref.crash_batch) *
               (insert ? p_.insert_rows : p_.update_rows);
    };
    s.check = [this, &ref](CrashOutcome &o) {
        const std::uint64_t count = durableRowCount();
        const std::uint64_t bytes = count * GpDbParams::kRowBytes;
        o.state_hash = fnv1aU64(
            count,
            ref.check(o,
                      m_->pool().durableRange(table_.offset, bytes).data(),
                      bytes, count));
        return o.strict_ok;
    };
    return runCrashSequence(*m_, s, point, survive_prob,
                            open_persist_window, result_out);
}

} // namespace gpm
