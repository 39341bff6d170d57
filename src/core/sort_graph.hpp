#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/options.hpp"
#include "core/plan.hpp"
#include "core/sort_stats.hpp"
#include "simt/device.hpp"
#include "simt/device_buffer.hpp"
#include "simt/graph.hpp"

namespace gas {

/// The uniform sort pipeline as one built-once, submit-many simt::Graph
/// (DESIGN.md section 13): (negate) -> phase1 -> phase2 -> dispatch ->
/// phase3 (-> negate), or (negate) -> small-array sort (-> negate) when the
/// plan has a single bucket.  Phase 3's launch is emitted by a host decision
/// node only after phase 2's Z row has settled, so the whole chain runs in
/// one scheduling round-trip.
///
/// sort_arrays_on_device builds one per call and submits it once.  The serve
/// layer holds one per shard (UniformSortGraph) and resubmits it for
/// consecutive batches with the same shape: Device::submit resets the
/// graph's runtime state, the dispatch host node re-enqueues phase 3 from
/// settled bucket sizes each run, and the S/Z/scratch temporaries stay
/// allocated between runs.  Every run executes the exact node sequence of a
/// fresh build over the same spans, so the sorted bytes and every
/// deterministic KernelStats field match call-for-call
/// (tests/tune/test_tune.cpp pins this through the serve cache).
///
/// run() covers the kernels only: host-side validation, verify_output and
/// collect_bucket_sizes are sort_arrays_on_device's job, so a reused holder
/// must not be asked for them.  Descending order needs a floating-point T
/// (implemented via IEEE negation); std::invalid_argument otherwise, and for
/// an empty batch.
template <typename T>
class SortGraph {
  public:
    /// Builds the pipeline over `data` (device span, holding at least
    /// num_arrays x array_size elements starting where the caller will stage
    /// every subsequent batch).
    SortGraph(simt::Device& device, std::span<T> data, std::size_t num_arrays,
              std::size_t array_size, const Options& opts);

    SortGraph(const SortGraph&) = delete;
    SortGraph& operator=(const SortGraph&) = delete;

    /// Submits the graph over the current contents of the data span and
    /// returns its SortStats (phases, bucket diagnostics, peak device bytes).
    SortStats run();

    /// True when this holder was built for exactly this shape: same device
    /// span (data pointer AND size), geometry and sort-shaping options — the
    /// serve cache-hit predicate.
    [[nodiscard]] bool matches(const simt::Device& device, std::span<const T> data,
                               std::size_t num_arrays, std::size_t array_size,
                               const Options& opts) const;

    /// Z after the last run (N rows of the plan's bucket count); empty on the
    /// small-array path.
    [[nodiscard]] std::span<const std::uint32_t> bucket_sizes() const {
        return bucket_sizes_.span();
    }

  private:
    simt::Device* device_;
    std::span<T> span_;
    std::size_t num_arrays_;
    std::size_t array_size_;
    Options opts_;
    SortPlan plan_;

    // Temporaries alive for the holder's lifetime (the reuse win: no
    // realloc per batch).  Empty on the small-array path.
    simt::DeviceBuffer<T> splitters_;
    simt::DeviceBuffer<std::uint32_t> bucket_sizes_;
    simt::DeviceBuffer<T> scratch_;

    simt::Graph graph_;
    // The node whose stats are phase 3: the small-array sort, or the kernel
    // the dispatch node enqueued (filled in during each run).
    std::shared_ptr<simt::Graph::NodeId> sort_node_;
    simt::Graph::NodeId n1_ = 0;
    simt::Graph::NodeId n2_ = 0;
    // Descending order's negate passes (pre, and post once enqueued).
    std::vector<simt::Graph::NodeId> pre_negate_;
    std::shared_ptr<simt::Graph::NodeId> post_negate_;
};

/// The serve layer's per-shard reuse cache holds float pipelines.
using UniformSortGraph = SortGraph<float>;

extern template class SortGraph<float>;
extern template class SortGraph<double>;
extern template class SortGraph<std::uint32_t>;
extern template class SortGraph<std::int32_t>;

}  // namespace gas
