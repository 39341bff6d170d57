#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "simt/cost_model.hpp"
#include "simt/error.hpp"
#include "simt/kernel.hpp"

namespace simt {

class Device;
class GraphCtx;

/// A kernel launch described but not yet executed — exactly the
/// (LaunchConfig, body) pair Device::launch takes, packaged so a caller can
/// either launch it directly or add it as a Graph node.  Spec bodies must
/// capture their state by value (spans, scalars, copies of option structs):
/// a graph node may run long after the builder's stack frame is gone.
struct KernelSpec {
    LaunchConfig cfg;
    std::function<void(BlockCtx&)> body;
};

/// Thrown on malformed graphs: dependency edges naming unknown nodes,
/// dependency cycles, mutation while a submit is in flight, or results
/// queried for a node that never ran.
class GraphError : public DeviceError {
  public:
    using DeviceError::DeviceError;
};

/// What one Device::submit executed.  `pruned` counts both predicate-gated
/// nodes whose gate evaluated false and passes a host node skipped via
/// GraphCtx::prune (the device-side analog of a degenerate radix pass).
struct GraphStats {
    std::size_t nodes_executed = 0;   ///< kernel + host nodes that ran
    std::size_t kernel_nodes = 0;     ///< kernel nodes that ran
    std::size_t host_nodes = 0;       ///< host (decision) nodes that ran
    std::size_t device_enqueued = 0;  ///< nodes enqueued during execution
    std::size_t pruned = 0;           ///< nodes skipped by gate or prune()
    double modeled_ms = 0.0;          ///< sum over executed kernel nodes
    double wall_ms = 0.0;             ///< whole submit (one round-trip)
};

/// A work graph: kernel launches and tiny host decisions with explicit
/// dependency edges, executed by Device::submit in one scheduling
/// round-trip over the persistent worker pool.
///
/// The model follows the D3D12 work-graph shape: static nodes encode the
/// known pipeline (phase1 -> phase2 -> phase3), while a *host node* — the
/// launcher-node analog — can emit successor records dynamically through
/// its GraphCtx (enqueue_kernel / enqueue_host), so data-dependent chains
/// like "only the non-degenerate radix scatter passes" never return to a
/// per-launch host round-trip.  Kernel nodes may also carry a predicate
/// (add_kernel_if): a conditional node whose gate is evaluated once its
/// dependencies settle; a false gate prunes the node's work but still
/// releases its dependents.
///
/// Determinism contract: nodes execute one at a time, ready nodes in
/// ascending node-id order, and Device::launch is a one-node graph through
/// the same executor.  A chain-shaped graph therefore produces a kernel log
/// bit-identical (bytes and every deterministic KernelStats field) to the
/// equivalent loop of launches, for any worker count and exec mode.
class Graph {
  public:
    using NodeId = std::size_t;
    using KernelBody = std::function<void(BlockCtx&)>;
    using HostFn = std::function<void(GraphCtx&)>;
    using Predicate = std::function<bool()>;

    /// Adds a kernel node (a LaunchConfig + body, exactly what
    /// Device::launch takes) depending on `deps`.  Throws GraphError if a
    /// dependency id is unknown — the "missing edge" diagnostic.
    NodeId add_kernel(LaunchConfig cfg, KernelBody body, std::vector<NodeId> deps = {});

    /// KernelSpec convenience: add_kernel over a prebuilt spec.
    NodeId add_kernel(KernelSpec spec, std::vector<NodeId> deps = {}) {
        return add_kernel(std::move(spec.cfg), std::move(spec.body), std::move(deps));
    }

    /// Conditional kernel node: `pred` is evaluated on the scheduling
    /// thread once every dependency has settled.  False skips the launch
    /// (counted in GraphStats::pruned) and releases dependents.
    NodeId add_kernel_if(LaunchConfig cfg, KernelBody body, Predicate pred,
                         std::vector<NodeId> deps = {});

    /// Adds a host decision node: `fn` runs on the scheduling thread (the
    /// worker pool stays resident) and may enqueue successor nodes through
    /// its GraphCtx.  Host nodes must not call Device::launch or
    /// Device::submit (the device throws GraphError) — they describe work,
    /// the graph executes it.
    NodeId add_host(std::string name, HostFn fn, std::vector<NodeId> deps = {});

    /// Adds the dependency edge from -> to.  Throws GraphError on unknown
    /// ids or self-edges.
    void add_edge(NodeId from, NodeId to);

    /// Checks the static graph for dependency cycles; throws GraphError
    /// naming a node on the cycle.  Device::submit calls this first.
    void validate() const;

    /// Nodes currently in the graph (dynamic nodes included after a run).
    [[nodiscard]] std::size_t size() const { return nodes_.size(); }

    // --- results of the most recent Device::submit ---

    [[nodiscard]] bool executed(NodeId id) const;
    [[nodiscard]] bool pruned(NodeId id) const;
    /// Per-node stats, identical to what Device::launch would have
    /// returned for the same kernel.  Throws GraphError if `id` is not a
    /// kernel node or did not execute.
    [[nodiscard]] const KernelStats& kernel_stats(NodeId id) const;
    [[nodiscard]] const GraphStats& stats() const { return stats_; }

  private:
    friend class Device;
    friend class GraphCtx;

    enum class Kind { Kernel, Host };
    enum class State { Pending, Done, Pruned };

    struct Node {
        Kind kind = Kind::Kernel;
        LaunchConfig cfg;     ///< kernel nodes
        KernelBody body;      ///< kernel nodes
        HostFn host;          ///< host nodes
        Predicate pred;       ///< optional conditional gate
        std::vector<NodeId> deps;
        std::vector<NodeId> succs;
        std::size_t unmet = 0;  ///< unsettled dependencies (runtime)
        State state = State::Pending;
        KernelStats stats;  ///< kernel nodes, after execution
        bool dynamic = false;
    };

    /// Shared add path: validates deps, wires edges, returns the id.
    NodeId add_node(Node node, std::vector<NodeId> deps, bool dynamic);
    void check_node_id(NodeId id, const char* what) const;
    /// Drops dynamic nodes from a previous run and resets runtime state so
    /// a graph can be resubmitted.
    void reset_runtime();

    std::vector<Node> nodes_;
    std::size_t static_nodes_ = 0;  ///< nodes added outside execution
    GraphStats stats_;
    bool executing_ = false;
    void* exec_state_ = nullptr;  ///< scheduler scratch, set during submit
};

/// Handed to host nodes while the graph runs: the dynamic-enqueue surface
/// (the PassRecord analog) plus prune accounting.  Valid only for the
/// duration of the host node's callback.
class GraphCtx {
  public:
    /// Enqueues a kernel node.  Empty `deps` means "after the enqueuing
    /// node", i.e. the new node becomes ready as soon as this host
    /// callback returns; explicit deps replace that default.
    Graph::NodeId enqueue_kernel(LaunchConfig cfg, Graph::KernelBody body,
                                 std::vector<Graph::NodeId> deps = {});
    Graph::NodeId enqueue_kernel(KernelSpec spec, std::vector<Graph::NodeId> deps = {}) {
        return enqueue_kernel(std::move(spec.cfg), std::move(spec.body), std::move(deps));
    }
    Graph::NodeId enqueue_kernel_if(LaunchConfig cfg, Graph::KernelBody body,
                                    Graph::Predicate pred,
                                    std::vector<Graph::NodeId> deps = {});
    Graph::NodeId enqueue_host(std::string name, Graph::HostFn fn,
                               std::vector<Graph::NodeId> deps = {});

    /// Records `count` passes this node decided to skip (e.g. a radix pass
    /// whose histogram proves every key shares one digit).  Pure
    /// accounting: shows up in GraphStats::pruned and serve telemetry.
    void prune(std::size_t count = 1);

    /// The node id of the host node this context was handed to.
    [[nodiscard]] Graph::NodeId self() const { return self_; }

  private:
    friend class Device;
    GraphCtx(Graph& graph, Graph::NodeId self) : graph_(graph), self_(self) {}

    Graph& graph_;
    Graph::NodeId self_;
};

}  // namespace simt
