#include "simt/graph.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>

#include "simt/counters.hpp"
#include "simt/device.hpp"
#include "simt/sanitize/shadow.hpp"

namespace simt {

namespace {

/// Scheduler scratch shared between Device::submit and GraphCtx for the
/// duration of one run.  Ready nodes drain in ascending id order so the
/// execution sequence (and therefore the kernel log) is deterministic.
struct ExecState {
    std::priority_queue<Graph::NodeId, std::vector<Graph::NodeId>,
                        std::greater<Graph::NodeId>>
        ready;
    GraphStats stats;
};

ExecState& exec_of(void* p) { return *static_cast<ExecState*>(p); }

}  // namespace

// ---------------------------------------------------------------------------
// Graph construction

void Graph::check_node_id(NodeId id, const char* what) const {
    if (id >= nodes_.size()) {
        throw GraphError(std::string("graph: ") + what + " names unknown node " +
                         std::to_string(id) + " (graph has " +
                         std::to_string(nodes_.size()) + " node(s))");
    }
}

Graph::NodeId Graph::add_node(Node node, std::vector<NodeId> deps, bool dynamic) {
    if (executing_ && !dynamic) {
        throw GraphError("graph: cannot mutate a graph while it is executing; "
                         "host nodes enqueue through their GraphCtx");
    }
    for (const NodeId d : deps) check_node_id(d, "dependency edge");
    const NodeId id = nodes_.size();
    node.dynamic = dynamic;
    // Dependencies already settled (possible for dynamic nodes) are not
    // counted as unmet; edges only ever point from older nodes to newer
    // ones, so dynamic enqueue cannot create a cycle.
    for (const NodeId d : deps) {
        if (nodes_[d].state == State::Pending) ++node.unmet;
        nodes_[d].succs.push_back(id);
    }
    node.deps = std::move(deps);
    const std::size_t unmet = node.unmet;
    nodes_.push_back(std::move(node));
    if (!dynamic) {
        static_nodes_ = nodes_.size();
    } else {
        auto& exec = exec_of(exec_state_);
        ++exec.stats.device_enqueued;
        if (unmet == 0) exec.ready.push(id);
    }
    return id;
}

Graph::NodeId Graph::add_kernel(LaunchConfig cfg, KernelBody body,
                                std::vector<NodeId> deps) {
    Node n;
    n.kind = Kind::Kernel;
    n.cfg = std::move(cfg);
    n.body = std::move(body);
    return add_node(std::move(n), std::move(deps), /*dynamic=*/false);
}

Graph::NodeId Graph::add_kernel_if(LaunchConfig cfg, KernelBody body, Predicate pred,
                                   std::vector<NodeId> deps) {
    Node n;
    n.kind = Kind::Kernel;
    n.cfg = std::move(cfg);
    n.body = std::move(body);
    n.pred = std::move(pred);
    return add_node(std::move(n), std::move(deps), /*dynamic=*/false);
}

Graph::NodeId Graph::add_host(std::string name, HostFn fn, std::vector<NodeId> deps) {
    Node n;
    n.kind = Kind::Host;
    n.cfg.name = std::move(name);
    n.host = std::move(fn);
    return add_node(std::move(n), std::move(deps), /*dynamic=*/false);
}

void Graph::add_edge(NodeId from, NodeId to) {
    if (executing_) {
        throw GraphError("graph: cannot add edges while the graph is executing");
    }
    check_node_id(from, "edge source");
    check_node_id(to, "edge target");
    if (from == to) {
        throw GraphError("graph: self-edge on node " + std::to_string(to) + " ('" +
                         nodes_[to].cfg.name + "') would deadlock");
    }
    nodes_[from].succs.push_back(to);
    nodes_[to].deps.push_back(from);
}

void Graph::validate() const {
    // Edges from an older node to a newer one cannot close a cycle, and only
    // add_edge can point backwards: without such an edge the graph is a DAG.
    bool backward = false;
    for (NodeId i = 0; i < nodes_.size() && !backward; ++i) {
        for (const NodeId s : nodes_[i].succs) backward = backward || s < i;
    }
    if (!backward) return;
    // Kahn's algorithm over the static nodes; anything left with unmet
    // dependencies after the drain sits on a cycle.
    std::vector<std::size_t> unmet(nodes_.size(), 0);
    for (const Node& n : nodes_) {
        for (const NodeId s : n.succs) ++unmet[s];
    }
    std::vector<NodeId> ready;
    for (NodeId i = 0; i < nodes_.size(); ++i) {
        if (unmet[i] == 0) ready.push_back(i);
    }
    std::size_t settled = 0;
    while (!ready.empty()) {
        const NodeId id = ready.back();
        ready.pop_back();
        ++settled;
        for (const NodeId s : nodes_[id].succs) {
            if (--unmet[s] == 0) ready.push_back(s);
        }
    }
    if (settled != nodes_.size()) {
        for (NodeId i = 0; i < nodes_.size(); ++i) {
            if (unmet[i] != 0) {
                throw GraphError("graph: dependency cycle through node " +
                                 std::to_string(i) + " ('" + nodes_[i].cfg.name +
                                 "'); " + std::to_string(nodes_.size() - settled) +
                                 " node(s) can never become ready");
            }
        }
    }
}

void Graph::reset_runtime() {
    if (static_nodes_ < nodes_.size()) {
        // Drop the previous run's dynamic nodes, and every edge that
        // pointed at them, so a resubmitted graph starts from its static
        // shape.
        nodes_.resize(static_nodes_);
        for (Node& n : nodes_) {
            std::erase_if(n.succs, [&](NodeId s) { return s >= static_nodes_; });
            std::erase_if(n.deps, [&](NodeId d) { return d >= static_nodes_; });
        }
    }
    for (Node& n : nodes_) {
        n.state = State::Pending;
        n.unmet = 0;
        n.stats = {};
    }
    for (const Node& n : nodes_) {
        for (const NodeId s : n.succs) ++nodes_[s].unmet;
    }
    stats_ = {};
}

bool Graph::executed(NodeId id) const {
    check_node_id(id, "executed() query");
    return nodes_[id].state == State::Done;
}

bool Graph::pruned(NodeId id) const {
    check_node_id(id, "pruned() query");
    return nodes_[id].state == State::Pruned;
}

const KernelStats& Graph::kernel_stats(NodeId id) const {
    check_node_id(id, "kernel_stats() query");
    const Node& n = nodes_[id];
    if (n.kind != Kind::Kernel) {
        throw GraphError("graph: node " + std::to_string(id) + " ('" + n.cfg.name +
                         "') is a host node; it has no KernelStats");
    }
    if (n.state != State::Done) {
        throw GraphError("graph: kernel node " + std::to_string(id) + " ('" +
                         n.cfg.name + "') did not execute");
    }
    return n.stats;
}

// ---------------------------------------------------------------------------
// GraphCtx — the dynamic-enqueue surface handed to host nodes

Graph::NodeId GraphCtx::enqueue_kernel(LaunchConfig cfg, Graph::KernelBody body,
                                       std::vector<Graph::NodeId> deps) {
    if (deps.empty()) deps.push_back(self_);
    Graph::Node n;
    n.kind = Graph::Kind::Kernel;
    n.cfg = std::move(cfg);
    n.body = std::move(body);
    return graph_.add_node(std::move(n), std::move(deps), /*dynamic=*/true);
}

Graph::NodeId GraphCtx::enqueue_kernel_if(LaunchConfig cfg, Graph::KernelBody body,
                                          Graph::Predicate pred,
                                          std::vector<Graph::NodeId> deps) {
    if (deps.empty()) deps.push_back(self_);
    Graph::Node n;
    n.kind = Graph::Kind::Kernel;
    n.cfg = std::move(cfg);
    n.body = std::move(body);
    n.pred = std::move(pred);
    return graph_.add_node(std::move(n), std::move(deps), /*dynamic=*/true);
}

Graph::NodeId GraphCtx::enqueue_host(std::string name, Graph::HostFn fn,
                                     std::vector<Graph::NodeId> deps) {
    if (deps.empty()) deps.push_back(self_);
    Graph::Node n;
    n.kind = Graph::Kind::Host;
    n.cfg.name = std::move(name);
    n.host = std::move(fn);
    return graph_.add_node(std::move(n), std::move(deps), /*dynamic=*/true);
}

void GraphCtx::prune(std::size_t count) {
    exec_of(graph_.exec_state_).stats.pruned += count;
}

// ---------------------------------------------------------------------------
// The block executor.  Device::submit runs a whole DAG through it;
// Device::launch runs a one-node graph through it.

namespace detail {

/// Per-block cost record, indexed by block id so aggregation order (and
/// therefore the modeled time) is identical for any worker count.  The
/// sanitizer's per-block result rides along for the same reason: findings
/// are merged in block order no matter which worker ran the block.
struct BlockRecord {
    double cycles = 0.0;
    double traffic = 0.0;
    double warp_max_cycles = 0.0;
    double warp_mean_cycles = 0.0;
    LaneCounters totals;
    std::size_t shared_high_water = 0;
    sanitize::SlotShadow::BlockResult san;
};

}  // namespace detail

namespace {

void run_block(const std::function<void(BlockCtx&)>& body, BlockCtx& ctx,
               const CostModel& model, unsigned block, detail::BlockRecord& rec) {
    ctx.begin_block(block);
    body(ctx);
    const BlockCost cost = model.block_cost(ctx.lanes());
    rec.cycles = cost.cycles;
    rec.traffic = cost.traffic_bytes;
    rec.warp_max_cycles = cost.warp_max_cycles;
    rec.warp_mean_cycles = cost.warp_mean_cycles;
    for (const LaneCounters& lane : ctx.lanes()) rec.totals += lane;
    rec.shared_high_water = ctx.shared_high_water();
    if (sanitize::SlotShadow* shadow = ctx.sanitizer()) {
        shadow->end_block();
        rec.san = shadow->take_block_result();
    }
}

/// Shared state of the worker team.  One execution holds its team in a
/// single ThreadPool::run for the whole graph: the coordinator (worker 0)
/// publishes each kernel node through the packed `dispenser` word
/// ((epoch << 32) | blocks-remaining), every worker — the coordinator
/// included — claims blocks by CAS on that word, and a node is finished the
/// moment `completed` reaches its grid size.  Nobody touches a condition
/// variable until the graph is drained, and a worker that never claims a
/// block never handshakes at all.  A team of one is the coordinator alone,
/// running inline on the calling thread.
struct Team {
    std::atomic<std::uint64_t> dispenser{0};  ///< (epoch << 32) | remaining
    std::atomic<unsigned> completed{0};       ///< blocks finished this epoch
    std::atomic<unsigned> joined{0};          ///< workers that joined this epoch
    std::atomic<bool> stop{false};

    // Published by the coordinator before each dispenser store (release) and
    // read by workers only after a successful claim: the CAS proves the
    // claimed epoch was still current at claim time, and the coordinator
    // cannot republish until `completed` reaches the grid size — which
    // needs every claimed block, ours included, to finish first.
    const LaunchConfig* cfg = nullptr;
    const std::function<void(BlockCtx&)>* body = nullptr;
    std::vector<detail::BlockRecord>* records = nullptr;

    std::mutex error_mutex;
    std::exception_ptr error;
    std::atomic<bool> failed{false};  ///< set with `error`; claims drain fast

    static std::uint64_t pack(std::uint32_t epoch, std::uint32_t remaining) {
        return (static_cast<std::uint64_t>(epoch) << 32) | remaining;
    }

    /// Claims one block of the current epoch; returns false when nothing is
    /// published or every block of the current epoch is already claimed.
    /// On success `epoch` names the claimed node's epoch and `remaining` the
    /// pre-claim count (block id = grid_dim - remaining, computed by the
    /// caller after reading the published grid — safe post-claim).
    bool try_claim(std::uint32_t& epoch, std::uint32_t& remaining) {
        std::uint64_t packed = dispenser.load(std::memory_order_acquire);
        for (;;) {
            epoch = static_cast<std::uint32_t>(packed >> 32);
            remaining = static_cast<std::uint32_t>(packed);
            if (epoch == 0 || remaining == 0) return false;
            if (dispenser.compare_exchange_weak(packed, pack(epoch, remaining - 1),
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
                return true;
            }
        }
    }
};

double ms_between(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

KernelStats Device::finish_launch(const LaunchConfig& cfg,
                                  std::vector<detail::BlockRecord>& records,
                                  double wall_ms) {
    KernelStats stats;
    stats.name = cfg.name;
    stats.grid_dim = cfg.grid_dim;
    stats.block_dim = cfg.block_dim;
    stats.wall_ms = wall_ms;

    // Deterministic aggregation in block order.
    std::vector<double> block_cycles(cfg.grid_dim);
    double traffic = 0.0;
    for (unsigned b = 0; b < cfg.grid_dim; ++b) {
        block_cycles[b] = records[b].cycles;
        traffic += records[b].traffic;
        stats.totals += records[b].totals;
        stats.warp_max_cycles += records[b].warp_max_cycles;
        stats.warp_mean_cycles += records[b].warp_mean_cycles;
        stats.shared_bytes_per_block =
            std::max(stats.shared_bytes_per_block, records[b].shared_high_water);
    }
    stats.imbalance =
        stats.warp_mean_cycles > 0.0 ? stats.warp_max_cycles / stats.warp_mean_cycles : 1.0;

    cost_model_.finalize(stats, block_cycles, traffic);
    kernel_log_.push_back(stats);

    if (sanitize_options_.any()) {
        // Merge per-block sanitizer results in block order (deterministic
        // for any worker count), capped at max_findings per launch.
        sanitize::LaunchSanitizeStats ls;
        ls.kernel = cfg.name;
        ls.grid_dim = cfg.grid_dim;
        ls.block_dim = cfg.block_dim;
        std::size_t launch_findings = 0;
        for (unsigned b = 0; b < cfg.grid_dim; ++b) {
            sanitize::SlotShadow::BlockResult& san = records[b].san;
            ls.tracked_accesses += san.tracked_accesses;
            ls.bank_conflict_cycles += san.bank_conflict_cycles;
            ls.worst_bank_degree = std::max(ls.worst_bank_degree, san.worst_bank_degree);
            sanitize_report_.suppressed += san.suppressed;
            for (sanitize::Finding& f : san.findings) {
                if (launch_findings < sanitize_options_.max_findings) {
                    sanitize_report_.findings.push_back(std::move(f));
                    ++launch_findings;
                } else {
                    ++sanitize_report_.suppressed;
                }
            }
        }
        ls.findings = launch_findings;
        sanitize_report_.launches.push_back(std::move(ls));
        if (sanitize_options_.strict && launch_findings > 0) {
            throw SanitizeError(cfg.name, launch_findings);
        }
    }
    bump_progress();  // heartbeat: the launch retired
    return stats;
}

void Device::execute(Graph& graph) {
    if (submitting_) {
        throw GraphError("device: launch or submit called while this device is "
                         "executing a graph; host nodes enqueue through their GraphCtx");
    }
    if (graph.executing_) {
        throw GraphError("graph: already executing (Device::submit is not reentrant)");
    }
    graph.validate();
    graph.reset_runtime();

    ExecState exec;
    for (Graph::NodeId i = 0; i < graph.nodes_.size(); ++i) {
        if (graph.nodes_[i].unmet == 0) exec.ready.push(i);
    }
    graph.exec_state_ = &exec;
    graph.executing_ = true;
    submitting_ = true;
    struct ExecGuard {
        Device& d;
        Graph& g;
        ~ExecGuard() {
            g.executing_ = false;
            g.exec_state_ = nullptr;
            d.submitting_ = false;
        }
    } exec_guard{*this, graph};

    // Team size: no node can keep more workers busy than its grid has
    // blocks, so the widest static kernel node bounds the team.  A host node
    // may enqueue wider nodes mid-run, so any host node wakes the whole pool.
    unsigned team_size = 1;
    for (const Graph::Node& n : graph.nodes_) {
        if (n.kind == Graph::Kind::Host) {
            team_size = host_workers_;
            break;
        }
        team_size = std::max(team_size, n.cfg.grid_dim);
    }
    team_size = std::min(team_size, host_workers_);

    const bool sanitizing = sanitize_options_.any();
    ThreadPool& workers_pool = pool();
    Team team;

    // The one block-claiming loop, run by every team member on the node the
    // coordinator published.  A worker configures its BlockCtx only for a
    // node it actually claims a block of, taking the next slot number in
    // join order: slot() stays below the node's grid however large the team
    // (kernels size per-slot scratch by that bound).  A kernel-body
    // exception is captured so the drain stays deterministic, and the
    // coordinator rethrows the first one.  Returns whether any block was
    // claimed.
    const auto claim_blocks = [&](unsigned w, std::uint32_t& configured) {
        bool claimed = false;
        std::uint32_t epoch = 0;
        std::uint32_t remaining = 0;
        while (team.try_claim(epoch, remaining)) {
            claimed = true;
            const LaunchConfig& cfg = *team.cfg;
            BlockCtx& ctx = workers_pool.block_ctx(w);
            if (epoch != configured) {
                const unsigned slot = team.joined.fetch_add(1, std::memory_order_relaxed);
                ctx.configure(cfg.block_dim, cfg.grid_dim, props_.shared_memory_per_block,
                              thread_order_, slot, exec_mode_, props_.warp_size);
                if (sanitizing) {
                    ctx.enable_sanitize(sanitize_options_, cfg.name);
                } else {
                    ctx.disable_sanitize();
                }
                configured = epoch;
            }
            if (!team.failed.load(std::memory_order_relaxed)) {
                const unsigned block = cfg.grid_dim - remaining;
                try {
                    run_block(*team.body, ctx, cost_model_, block, (*team.records)[block]);
                } catch (...) {
                    const std::scoped_lock lock(team.error_mutex);
                    if (!team.error) team.error = std::current_exception();
                    team.failed.store(true, std::memory_order_release);
                }
            }
            team.completed.fetch_add(1, std::memory_order_release);
        }
        return claimed;
    };

    // Settling a node (Done or Pruned) releases its dependents; pruning
    // skips the node's own work only.
    std::size_t settled = 0;
    const auto settle = [&](Graph::NodeId id, Graph::State state) {
        Graph::Node& n = graph.nodes_[id];
        n.state = state;
        ++settled;
        bump_progress();  // node-granular heartbeat for watchdogs
        for (const Graph::NodeId s : n.succs) {
            if (--graph.nodes_[s].unmet == 0) exec.ready.push(s);
        }
    };

    // The coordinator: drains the DAG in ascending ready-id order, running
    // host nodes and predicates itself and publishing each kernel node to
    // the team, working as block-puller 0 on it.
    std::uint32_t epoch_seq = 0;
    std::uint32_t coordinator_configured = 0;
    std::vector<detail::BlockRecord> records;  // reused node to node
    const auto run_kernel = [&](Graph::Node& n) {
        check_launch(n.cfg);
        records.assign(n.cfg.grid_dim, {});
        team.cfg = &n.cfg;
        team.body = &n.body;
        team.records = &records;
        team.completed.store(0, std::memory_order_relaxed);
        team.joined.store(0, std::memory_order_relaxed);
        const auto k0 = std::chrono::steady_clock::now();
        team.dispenser.store(Team::pack(++epoch_seq, n.cfg.grid_dim),
                             std::memory_order_release);
        claim_blocks(0, coordinator_configured);
        while (team.completed.load(std::memory_order_acquire) != n.cfg.grid_dim) {
            std::this_thread::yield();
        }
        const auto k1 = std::chrono::steady_clock::now();
        if (team.failed.load(std::memory_order_acquire)) {
            const std::scoped_lock lock(team.error_mutex);
            std::rethrow_exception(std::exchange(team.error, nullptr));
        }
        return finish_launch(n.cfg, records, ms_between(k0, k1));
    };
    const auto coordinate = [&] {
        // Whatever happens, the team must be stopped before the coordinator
        // returns or ThreadPool::run would wait forever on the residents.
        struct StopTeam {
            Team& team;
            ~StopTeam() { team.stop.store(true, std::memory_order_release); }
        } stop_team{team};
        while (!exec.ready.empty()) {
            const Graph::NodeId id = exec.ready.top();
            exec.ready.pop();
            Graph::Node& n = graph.nodes_[id];
            if (n.pred && !n.pred()) {
                ++exec.stats.pruned;
                settle(id, Graph::State::Pruned);
                continue;
            }
            if (n.kind == Graph::Kind::Kernel) {
                n.stats = run_kernel(n);
                ++exec.stats.kernel_nodes;
                exec.stats.modeled_ms += n.stats.modeled_ms;
            } else {
                // A host node that enqueues may reallocate graph.nodes_,
                // `n` included: run a copy so the callable and its captures
                // outlive the call.
                const Graph::HostFn host = n.host;
                GraphCtx ctx(graph, id);
                host(ctx);
                ++exec.stats.host_nodes;
            }
            settle(id, Graph::State::Done);
        }
        if (settled != graph.nodes_.size()) {
            throw GraphError("graph: deadlock — " +
                             std::to_string(graph.nodes_.size() - settled) +
                             " node(s) never became ready (dependency on a node "
                             "that never settled)");
        }
    };
    // A resident worker claims blocks whenever the dispenser has some, and
    // otherwise yields until the coordinator stops the team.
    const auto reside = [&](unsigned w) {
        std::uint32_t configured = 0;
        for (;;) {
            if (claim_blocks(w, configured)) continue;
            if (team.stop.load(std::memory_order_acquire)) return;
            std::this_thread::yield();
        }
    };

    const auto t0 = std::chrono::steady_clock::now();
    workers_pool.run(team_size, [&](unsigned w) { w == 0 ? coordinate() : reside(w); });
    const auto t1 = std::chrono::steady_clock::now();

    exec.stats.nodes_executed = exec.stats.kernel_nodes + exec.stats.host_nodes;
    exec.stats.wall_ms = ms_between(t0, t1);
    graph.stats_ = exec.stats;
}

GraphStats Device::submit(Graph& graph) {
    execute(graph);
    const GraphStats& stats = graph.stats_;
    graph_telemetry_.graphs += 1;
    graph_telemetry_.nodes += stats.nodes_executed;
    graph_telemetry_.kernel_nodes += stats.kernel_nodes;
    graph_telemetry_.host_nodes += stats.host_nodes;
    graph_telemetry_.device_enqueued += stats.device_enqueued;
    graph_telemetry_.pruned += stats.pruned;
    return stats;
}

KernelStats Device::launch(const LaunchConfig& cfg,
                           const std::function<void(BlockCtx&)>& body) {
    Graph graph;
    graph.add_kernel(cfg, body);
    execute(graph);
    return std::move(graph.nodes_.front().stats);
}

}  // namespace simt
