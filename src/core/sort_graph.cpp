#include "core/sort_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "core/device_ops.hpp"
#include "core/phases.hpp"

namespace gas {

namespace {

PhaseStats to_phase_stats(const simt::KernelStats& k) { return {k.modeled_ms, k.wall_ms}; }

/// The sort-shaping subset compatible batches share (serve pins the
/// server-owned knobs before constructing the holder, so comparing them too
/// is safe and keeps the predicate honest).
bool same_opts(const Options& a, const Options& b) {
    return a.bucket_target == b.bucket_target && a.sampling_rate == b.sampling_rate &&
           a.strategy == b.strategy && a.order == b.order &&
           a.threads_per_bucket == b.threads_per_bucket &&
           a.hybrid_phase3 == b.hybrid_phase3 &&
           a.phase3_small_cutoff == b.phase3_small_cutoff &&
           a.phase3_bitonic_cutoff == b.phase3_bitonic_cutoff &&
           a.validate == b.validate && a.verify_output == b.verify_output &&
           a.collect_bucket_sizes == b.collect_bucket_sizes;
}

}  // namespace

template <typename T>
SortGraph<T>::SortGraph(simt::Device& device, std::span<T> data, std::size_t num_arrays,
                        std::size_t array_size, const Options& opts)
    : device_(&device),
      span_(data.subspan(0, std::min(data.size(), num_arrays * array_size))),
      num_arrays_(num_arrays),
      array_size_(array_size),
      opts_(opts),
      plan_(make_plan(array_size, opts, device.props(), sizeof(T))),
      sort_node_(std::make_shared<simt::Graph::NodeId>(0)),
      post_negate_(std::make_shared<simt::Graph::NodeId>(0)) {
    if (num_arrays == 0 || array_size == 0) {
        throw std::invalid_argument("SortGraph: empty batch");
    }
    if (data.size() < num_arrays * array_size) {
        throw std::invalid_argument("SortGraph: span smaller than N x n");
    }
    const bool descending = opts.order == SortOrder::Descending;
    if (descending && !std::is_floating_point_v<T>) {
        throw std::invalid_argument(
            "SortGraph: descending order requires a floating-point element type "
            "(implemented via IEEE negation)");
    }
    // Descending order: negate, sort ascending, negate back (IEEE negation
    // reverses float total order exactly).
    const auto add_negate = [&](std::vector<simt::Graph::NodeId> deps) {
        if constexpr (std::is_floating_point_v<T>) {
            auto ns = negate_spec(span_);
            return graph_.add_kernel(ns.cfg, std::move(ns.body), std::move(deps));
        } else {
            return simt::Graph::NodeId{0};  // unreachable: rejected above
        }
    };
    if (descending) pre_negate_.push_back(add_negate({}));

    if (plan_.buckets == 1) {
        auto s = detail::small_array_sort_spec<T>(span_, num_arrays_, array_size_);
        *sort_node_ = graph_.add_kernel(s.cfg, std::move(s.body), pre_negate_);
        if (descending) *post_negate_ = add_negate({*sort_node_});
        return;
    }

    // Run-time temporaries: S (splitters) and Z (bucket sizes) only — the
    // algorithm's in-place property.  A global scratch row per *resident*
    // block is added only for arrays too large to stage in shared memory.
    splitters_ = simt::DeviceBuffer<T>(device, num_arrays_ * plan_.splitters_per_array);
    bucket_sizes_ = simt::DeviceBuffer<std::uint32_t>(device, num_arrays_ * plan_.buckets);
    const std::size_t scratch_rows = detail::scratch_rows(device, plan_, num_arrays_);
    if (scratch_rows > 0) {
        scratch_ = simt::DeviceBuffer<T>(device, scratch_rows * array_size_);
    }

    auto s1 = detail::splitter_phase_spec<T>(span_, num_arrays_, plan_, splitters_.span());
    n1_ = graph_.add_kernel(s1.cfg, std::move(s1.body), pre_negate_);
    auto s2 = detail::bucket_phase_spec<T>(span_, num_arrays_, plan_, opts_,
                                           splitters_.span(), bucket_sizes_.span(),
                                           scratch_.span(), scratch_rows);
    n2_ = graph_.add_kernel(s2.cfg, std::move(s2.body), {n1_});

    auto s3 = detail::sort_phase_spec<T>(device.props(), span_, num_arrays_, plan_,
                                         bucket_sizes_.span(), opts_);
    // The dispatch node re-enqueues phase 3 on every submit, so the spec is
    // captured by value and only copied out (never moved from).
    graph_.add_host(
        "gas.phase3_dispatch",
        [s3 = std::move(s3), span = span_, n3 = sort_node_, post = post_negate_,
         descending](simt::GraphCtx& ctx) {
            *n3 = ctx.enqueue_kernel(s3.cfg, s3.body);
            if constexpr (std::is_floating_point_v<T>) {
                if (descending) {
                    auto ns = negate_spec(span);
                    *post = ctx.enqueue_kernel(ns.cfg, std::move(ns.body), {*n3});
                }
            } else {
                (void)span, (void)post, (void)descending;
            }
        },
        {n2_});
}

template <typename T>
SortStats SortGraph<T>::run() {
    SortStats stats;
    stats.num_arrays = num_arrays_;
    stats.array_size = array_size_;
    stats.data_bytes = num_arrays_ * array_size_ * sizeof(T);
    stats.buckets_per_array = plan_.buckets;
    stats.sample_size = plan_.sample_size;

    device_->submit(graph_);

    if (plan_.buckets > 1) {
        stats.phase1 = to_phase_stats(graph_.kernel_stats(n1_));
        stats.phase2 = to_phase_stats(graph_.kernel_stats(n2_));
    }
    const simt::KernelStats& k3 = graph_.kernel_stats(*sort_node_);
    stats.phase3 = to_phase_stats(k3);
    stats.phase3_imbalance = k3.imbalance;
    if (!pre_negate_.empty()) {
        const simt::KernelStats& kp = graph_.kernel_stats(pre_negate_.front());
        const simt::KernelStats& kq = graph_.kernel_stats(*post_negate_);
        stats.extra.modeled_ms += kp.modeled_ms + kq.modeled_ms;
        stats.extra.wall_ms += kp.wall_ms + kq.wall_ms;
    }
    stats.peak_device_bytes = device_->memory().peak_bytes_in_use();

    const auto z = bucket_sizes_.span();
    if (z.empty()) {  // small-array path: one bucket of n per array
        stats.min_bucket = static_cast<std::uint32_t>(array_size_);
        stats.max_bucket = static_cast<std::uint32_t>(array_size_);
        stats.avg_bucket = static_cast<double>(array_size_);
        return stats;
    }
    std::uint32_t mn = z[0];
    std::uint32_t mx = z[0];
    std::uint64_t sum = 0;
    for (const std::uint32_t v : z) {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        sum += v;
    }
    stats.min_bucket = mn;
    stats.max_bucket = mx;
    stats.avg_bucket = static_cast<double>(sum) / static_cast<double>(z.size());
    return stats;
}

template <typename T>
bool SortGraph<T>::matches(const simt::Device& device, std::span<const T> data,
                           std::size_t num_arrays, std::size_t array_size,
                           const Options& opts) const {
    return device_ == &device && span_.data() == data.data() &&
           num_arrays_ == num_arrays && array_size_ == array_size &&
           data.size() >= num_arrays * array_size && same_opts(opts_, opts);
}

template class SortGraph<float>;
template class SortGraph<double>;
template class SortGraph<std::uint32_t>;
template class SortGraph<std::int32_t>;

}  // namespace gas
