#include "workloads/bfs.hpp"

#include <algorithm>
#include <cstring>
#include <deque>

#include "common/rng.hpp"
#include "gpm/gpm_runtime.hpp"
#include "gpusim/kernel.hpp"

namespace gpm {

namespace {
constexpr std::uint64_t kLevelOff = 0;  ///< u32 last durable level
constexpr std::uint64_t kSizeOff = 4;   ///< u32 frontier size
constexpr std::uint64_t kQueueOff = 8;  ///< u32 nodes[]
constexpr std::uint32_t kLevelTpb = 128; ///< bfs_level block size

/** Threads (one phase each) of bfs_level over @p frontier nodes. */
std::uint64_t
levelThreads(std::uint64_t frontier)
{
    return std::max<std::uint64_t>(1, ceilDiv(frontier, kLevelTpb)) *
           kLevelTpb;
}
} // namespace

GpBfs::GpBfs(Machine &m, const BfsParams &p)
    : m_(&m), p_(p), graph_(makeRoadGraph(p))
{
    GPM_REQUIRE(p_.nodes() > 0 && p_.source < p_.nodes(),
                "bad BFS configuration");
}

std::uint64_t
GpBfs::costAddr(std::uint32_t v) const
{
    return cost_.offset + std::uint64_t(v) * 4;
}

CsrGraph
makeRoadGraph(const BfsParams &p)
{
    // Lattice + shortcut edges, undirected, deduplicated via sort.
    const std::uint32_t n = p.nodes();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    auto id = [&](std::uint32_t x, std::uint32_t y) {
        return y * p.grid_w + x;
    };
    for (std::uint32_t y = 0; y < p.grid_h; ++y) {
        for (std::uint32_t x = 0; x < p.grid_w; ++x) {
            if (x + 1 < p.grid_w)
                edges.emplace_back(id(x, y), id(x + 1, y));
            if (y + 1 < p.grid_h)
                edges.emplace_back(id(x, y), id(x, y + 1));
        }
    }
    Rng rng(p.seed);
    for (std::uint32_t s = 0; s < p.shortcuts; ++s) {
        const auto a = static_cast<std::uint32_t>(rng.below(n));
        const auto b = static_cast<std::uint32_t>(rng.below(n));
        if (a != b)
            edges.emplace_back(std::min(a, b), std::max(a, b));
    }

    std::vector<std::vector<std::uint32_t>> adj(n);
    for (const auto &[a, b] : edges) {
        adj[a].push_back(b);
        adj[b].push_back(a);
    }
    CsrGraph g;
    g.row_off.assign(n + 1, 0);
    for (std::uint32_t v = 0; v < n; ++v) {
        std::sort(adj[v].begin(), adj[v].end());
        adj[v].erase(std::unique(adj[v].begin(), adj[v].end()),
                     adj[v].end());
        g.row_off[v + 1] = g.row_off[v] +
            static_cast<std::uint32_t>(adj[v].size());
        g.col.insert(g.col.end(), adj[v].begin(), adj[v].end());
    }
    return g;
}

std::vector<std::uint32_t>
bfsReference(const CsrGraph &g, std::uint32_t source)
{
    std::vector<std::uint32_t> dist(g.nodes(), GpBfs::kInf);
    std::deque<std::uint32_t> q{source};
    dist[source] = 0;
    while (!q.empty()) {
        const std::uint32_t u = q.front();
        q.pop_front();
        for (std::uint32_t e = g.row_off[u]; e < g.row_off[u + 1];
             ++e) {
            const std::uint32_t v = g.col[e];
            if (dist[v] == GpBfs::kInf) {
                dist[v] = dist[u] + 1;
                q.push_back(v);
            }
        }
    }
    return dist;
}

void
GpBfs::setup()
{
    const std::uint32_t n = p_.nodes();

    cost_ = gpmMap(*m_, "bfs.cost", std::uint64_t(n) * 4, true);
    frontier_ = gpmMap(*m_, "bfs.frontier", 8 + std::uint64_t(n) * 4,
                       true);

    // Initialize costs to INF durably (setup, CPU-persisted), source
    // to 0, and the frontier to {source} at level 0.
    std::vector<std::uint32_t> inf(n, kInf);
    inf[p_.source] = 0;
    m_->cpuWritePersist(cost_.offset, inf.data(),
                        std::uint64_t(n) * 4, p_.cap_threads);
    const std::uint32_t head[3] = {0u, 1u, p_.source};
    m_->cpuWritePersist(frontier_.offset, head, 12, 1);
    host_cost_ = std::move(inf);

    if (!inKernelPersistence(m_->kind())) {
        // CAP persists a compact per-level update record (new costs +
        // queue) into a staging area rather than scattering into the
        // cost array — the CPU cannot address the scattered updates.
        cap_stage_ = gpmMap(*m_, "bfs.capstage",
                            std::uint64_t(n) * 8 + 64, true);
    }
}

std::vector<std::uint32_t>
GpBfs::runLevel(const std::vector<std::uint32_t> &frontier,
                std::uint32_t level, bool first_level,
                const std::optional<CrashPoint> &crash)
{
    const bool gpu_direct = inKernelPersistence(m_->kind()) ||
                            m_->kind() == PlatformKind::GpmNdp;
    const bool in_kernel = inKernelPersistence(m_->kind());
    const std::uint32_t tpb = kLevelTpb;

    std::uint64_t marked = 0;
    // Every neighbour at distance level+1, whether this kernel marks
    // it or it was marked before (by a level cut short by a crash).
    std::vector<std::uint32_t> next;
    KernelDesc k;
    k.name = "bfs_level";
    k.blocks = static_cast<std::uint32_t>(levelThreads(frontier.size()) /
                                          tpb);
    k.block_threads = tpb;
    k.crash = crash;
    // GPM runs BFS as a persistent kernel: only the first level pays
    // the launch; CAP relaunches (and DMAs) every level.
    k.no_launch_overhead = in_kernel && !first_level;
    k.phases.push_back([this, &frontier, level, gpu_direct, in_kernel,
                        &marked, &next](ThreadCtx &ctx) {
        const std::uint64_t i = ctx.globalId();
        if (i >= frontier.size())
            return;
        const std::uint32_t u = frontier[i];
        const std::uint32_t begin = graph_.row_off[u];
        const std::uint32_t end = graph_.row_off[u + 1];
        ctx.hbmTraffic((end - begin + 2) * 4);
        ctx.work(4 * (end - begin) + 8);
        bool wrote = false;
        for (std::uint32_t e = begin; e < end; ++e) {
            const std::uint32_t v = graph_.col[e];
            if (host_cost_[v] == kInf) {
                host_cost_[v] = level + 1;
                ++marked;
                if (gpu_direct) {
                    ctx.pmStore(costAddr(v), level + 1);
                    wrote = true;
                }
            }
            if (host_cost_[v] == level + 1)
                next.push_back(v);
        }
        if (wrote && in_kernel)
            ctx.threadfenceSystem();
    });
    m_->runKernel(k);
    if (crash)
        return {};  // a doomed level never persists its frontier

    // Next frontier: every node at distance level+1 (idempotent under
    // re-execution; see header comment), in node order, as the
    // on-device scan over all nodes charged below finds them. Each is
    // a neighbour of this level's frontier.
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    chargeGpuCompute(*m_, static_cast<double>(p_.nodes()),
                     std::uint64_t(p_.nodes()) * 4,
                     /*charge_launch=*/!in_kernel);

    // Persist the frontier + level sentinel.
    if (in_kernel) {
        KernelDesc q;
        q.name = "bfs_persist_frontier";
        q.blocks = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(1, ceilDiv(next.size(), tpb)));
        q.block_threads = tpb;
        q.no_launch_overhead = true;
        const std::uint32_t next_level = level + 1;
        q.phases.push_back([this, &next, next_level](ThreadCtx &ctx) {
            const std::uint64_t i = ctx.globalId();
            if (i < next.size()) {
                ctx.pmStore(frontier_.offset + kQueueOff + i * 4,
                            next[i]);
                ctx.threadfenceSystem();
            }
            if (i == 0) {
                // Sentinel after the queue entries of *this* thread;
                // cross-thread ordering is given by the level scan
                // being idempotent.
                const std::uint32_t meta[2] = {
                    next_level,
                    static_cast<std::uint32_t>(next.size())};
                ctx.pmWrite(frontier_.offset + kLevelOff, meta, 8);
                ctx.threadfenceSystem();
            }
        });
        m_->runKernel(q);
    } else {
        // CAP / NDP: the compact updates leave the device in bulk —
        // the level record is {level, size, queue[], new_costs[]}.
        std::vector<std::uint32_t> record;
        record.reserve(2 + 2 * next.size());
        record.push_back(level + 1);
        record.push_back(static_cast<std::uint32_t>(next.size()));
        record.insert(record.end(), next.begin(), next.end());
        record.insert(record.end(), next.size(), level + 1);
        if (m_->kind() == PlatformKind::GpmNdp) {
            // Sweep the scattered cost lines + the queue.
            m_->cpuPersistScattered(marked * m_->config().cache_line +
                                        next.size() * 4, p_.cap_threads);
            std::vector<std::uint32_t> meta_and_queue;
            meta_and_queue.push_back(level + 1);
            meta_and_queue.push_back(
                static_cast<std::uint32_t>(next.size()));
            meta_and_queue.insert(meta_and_queue.end(), next.begin(),
                                  next.end());
            m_->cpuWritePersist(frontier_.offset,
                                meta_and_queue.data(),
                                meta_and_queue.size() * 4,
                                p_.cap_threads);
        } else {
            // Two files: the queue and the cost record (2 fsyncs on
            // CAP-fs).
            m_->capPersist(cap_stage_.offset, record.data(),
                           (2 + next.size()) * 4, p_.cap_threads);
            if (!next.empty()) {
                m_->capPersist(cap_stage_.offset + (2 + next.size()) * 4,
                               record.data() + 2 + next.size(),
                               next.size() * 4, p_.cap_threads);
            }
        }
    }
    return next;
}

std::uint32_t
GpBfs::traverse(std::vector<std::uint32_t> frontier,
                std::uint32_t level)
{
    const std::uint32_t start = level;
    for (; !frontier.empty(); ++level)
        frontier = runLevel(frontier, level, level == start);
    return level - start;
}

WorkloadResult
GpBfs::run()
{
    WorkloadResult r;
    if (!m_->supports(WriteGrain::Thread)) {
        r.supported = false;  // fine-grain writes deadlock GPUfs
        return r;
    }
    {
        WorkloadSpan span("setup", "bfs");
        setup();
    }

    if (m_->kind() == PlatformKind::Gpm)
        gpmPersistBegin(*m_);
    const SimNs t0 = m_->now();
    const std::uint64_t pcie0 = m_->pcieWriteBytes();
    const std::uint64_t pay0 = m_->persistPayloadBytes();

    traverse({p_.source}, 0);

    r.op_ns = m_->now() - t0;
    r.pcie_write_bytes = m_->pcieWriteBytes() - pcie0;
    r.persisted_payload = m_->persistPayloadBytes() - pay0;
    if (m_->kind() == PlatformKind::Gpm)
        gpmPersistEnd(*m_);

    WorkloadSpan verify("verify", "bfs");
    const std::vector<std::uint32_t> ref = referenceCosts();
    r.verified = host_cost_ == ref;
    r.ops_done = static_cast<double>(p_.nodes());
    return r;
}

WorkloadResult
GpBfs::runWithCrash(double progress_frac, double survive_prob)
{
    GPM_REQUIRE(progress_frac >= 0.0 && progress_frac <= 1.0,
                "bad BFS progress fraction");
    const std::vector<std::uint32_t> ref = referenceCosts();
    const auto crash_level = static_cast<std::uint32_t>(
        progress_frac * *std::max_element(ref.begin(), ref.end()));
    // The doomed level's frontier is every node at distance
    // crash_level, never empty up to the diameter; its marking kernel
    // dies half-way through.
    const CrashPoint point = CrashPoint::afterThreadPhases(
        levelThreads(static_cast<std::uint64_t>(
            std::count(ref.begin(), ref.end(), crash_level))) /
        2);

    std::vector<std::uint32_t> frontier{p_.source};
    std::uint32_t durable_level = 0;
    std::uint32_t resumed = 0;  // levels run after the reboot
    WorkloadResult r;
    CrashSteps s;
    s.workload = CrashWorkload::Bfs;
    s.crash_step = crash_level;
    s.setup = [this] { setup(); };
    s.step = [this, &frontier](std::uint32_t level,
                               const std::optional<CrashPoint> &armed) {
        frontier = runLevel(frontier, level, level == 0, armed);
    };
    s.recover = [this, &frontier, &durable_level] {
        // Reload the durable costs and the persisted frontier (no
        // separate recovery kernel: the resumption IS the recovery,
        // section 5.4).
        const std::uint64_t bytes = std::uint64_t(p_.nodes()) * 4;
        host_cost_.assign(p_.nodes(), 0);
        m_->pool().read(cost_.offset, host_cost_.data(), bytes);
        m_->cpuPmRead(bytes, p_.cap_threads);
        durable_level =
            m_->pool().load<std::uint32_t>(frontier_.offset + kLevelOff);
        frontier.resize(
            m_->pool().load<std::uint32_t>(frontier_.offset + kSizeOff));
        m_->pool().read(frontier_.offset + kQueueOff, frontier.data(),
                        frontier.size() * 4);
    };
    s.resume = [this, &frontier, &durable_level, &resumed] {
        // Half-marked nodes of the crashed level need no scrub:
        // re-executing the level re-derives them.
        resumed = traverse(std::move(frontier), durable_level);
    };
    s.ops_done = [&resumed] { return resumed; };
    s.check = [this, &ref, &durable_level, crash_level](CrashOutcome &o) {
        o.strict_ok = host_cost_ == ref;
        return o.strict_ok && durable_level >= crash_level;
    };
    const CrashOutcome o = runCrashSequence(
        *m_, s, point, survive_prob, /*open_persist_window=*/true, &r);
    GPM_ASSERT(o.fired, "BFS crash point did not fire");
    return r;
}

std::vector<std::uint32_t>
GpBfs::referenceCosts() const
{
    return bfsReference(graph_, p_.source);
}

std::uint32_t
GpBfs::durableCost(std::uint32_t v) const
{
    return m_->pool().loadDurable<std::uint32_t>(costAddr(v));
}

} // namespace gpm
