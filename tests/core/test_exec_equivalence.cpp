// Execution-mode equivalence sweeps.
//
// 1. ExecEquivalence: every paper kernel must be bit-identical between the
//    scalar reference interpreter and the warp-vectorized fast path
//    (SIMT_EXEC=warp) — identical output bytes AND identical KernelStats
//    (every deterministic field; only wall_ms may differ).
// 2. GraphEquivalence: gpu_array_sort, which submits its pipeline as one
//    work graph, must be bit-identical to a loop of Device::launch calls
//    over the same kernel specs (the reference below), and the radix
//    chain's graph form (RadixOptions::graph_launch, the default) to its
//    host loop, in both exec modes.
//
// 3. WorkerEquivalence: every workload at 2, 4 and hardware_concurrency
//    host workers must be bit-identical to its 1-worker run, in both exec
//    modes: the team size the executor picks per graph, and which worker
//    claims which block, must never show in bytes or KernelStats.
//
// The first two sweeps cross both ThreadOrders and sanitizer off/strict, so
// the warp fast paths' tracked fallbacks, the analytic counter charges, and
// the graph executor's resident-team protocol are all exercised.  Together
// they close the square: loop/scalar == loop/warp == graph/scalar ==
// graph/warp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/device_ops.hpp"
#include "core/gpu_array_sort.hpp"
#include "core/pair_sort.hpp"
#include "core/phases.hpp"
#include "core/plan.hpp"
#include "core/ragged_sort.hpp"
#include "core/resilient.hpp"
#include "simt/device.hpp"
#include "thrustlite/device_vector.hpp"
#include "thrustlite/radix_sort.hpp"
#include "workload/generators.hpp"

namespace {

/// Compares every deterministic KernelStats field.  wall_ms is the only
/// field allowed to differ between execution modes — it measures host time,
/// which the fast path exists to change.
void expect_logs_equal(const std::vector<simt::KernelStats>& scalar,
                       const std::vector<simt::KernelStats>& warp) {
    ASSERT_EQ(scalar.size(), warp.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        const auto& s = scalar[i];
        const auto& w = warp[i];
        SCOPED_TRACE("kernel #" + std::to_string(i) + ": " + s.name);
        EXPECT_EQ(s.name, w.name);
        EXPECT_EQ(s.grid_dim, w.grid_dim);
        EXPECT_EQ(s.block_dim, w.block_dim);
        EXPECT_EQ(s.shared_bytes_per_block, w.shared_bytes_per_block);
        EXPECT_EQ(s.totals.ops, w.totals.ops);
        EXPECT_EQ(s.totals.shared_accesses, w.totals.shared_accesses);
        EXPECT_EQ(s.totals.coalesced_bytes, w.totals.coalesced_bytes);
        EXPECT_EQ(s.totals.random_accesses, w.totals.random_accesses);
        EXPECT_EQ(s.traffic_bytes, w.traffic_bytes);
        EXPECT_EQ(s.compute_ms, w.compute_ms);
        EXPECT_EQ(s.memory_ms, w.memory_ms);
        EXPECT_EQ(s.modeled_ms, w.modeled_ms);
        EXPECT_EQ(s.warp_max_cycles, w.warp_max_cycles);
        EXPECT_EQ(s.warp_mean_cycles, w.warp_mean_cycles);
        EXPECT_EQ(s.imbalance, w.imbalance);
    }
}

void configure_sweep_device(simt::Device& dev, simt::ThreadOrder order,
                            simt::ExecMode mode, bool sanitized) {
    dev.set_thread_order(order);
    dev.set_exec_mode(mode);
    if (sanitized) {
        auto opts = simt::sanitize::SanitizeOptions::all();
        opts.strict = true;  // any finding fails the launch loudly
        dev.set_sanitize_options(opts);
    }
}

/// Runs `fn(device, graph)` under scalar and warp execution (graph path
/// both times), for both ThreadOrders and with the sanitizer off and
/// strict-all, asserting identical payload bytes and identical kernel logs.
template <typename F>
void exec_sweep(F fn) {
    for (const auto order : {simt::ThreadOrder::Forward, simt::ThreadOrder::Reverse}) {
        for (const bool sanitized : {false, true}) {
            const auto run = [&](simt::ExecMode mode) {
                simt::Device dev(simt::tiny_device(256 << 20));
                configure_sweep_device(dev, order, mode, sanitized);
                auto payload = fn(dev, /*graph=*/true);
                return std::pair{std::move(payload), dev.kernel_log()};
            };
            SCOPED_TRACE(std::string(order == simt::ThreadOrder::Forward ? "Forward"
                                                                         : "Reverse") +
                         (sanitized ? " sanitized" : " unsanitized"));
            const auto scalar = run(simt::ExecMode::Scalar);
            const auto warp = run(simt::ExecMode::Warp);
            EXPECT_EQ(scalar.first, warp.first);
            expect_logs_equal(scalar.second, warp.second);
        }
    }
}

/// Runs `fn(device, graph)` with the loop-of-launches reference and the
/// graph path, in both exec modes, both ThreadOrders, sanitizer off and
/// strict: the graph executor's contract is zero byte drift and zero
/// deterministic-KernelStats drift against the loop it replaces.
template <typename F>
void graph_vs_loop_sweep(F fn) {
    for (const auto order : {simt::ThreadOrder::Forward, simt::ThreadOrder::Reverse}) {
        for (const bool sanitized : {false, true}) {
            for (const auto mode : {simt::ExecMode::Scalar, simt::ExecMode::Warp}) {
                const auto run = [&](bool graph) {
                    simt::Device dev(simt::tiny_device(256 << 20));
                    configure_sweep_device(dev, order, mode, sanitized);
                    auto payload = fn(dev, graph);
                    return std::pair{std::move(payload), dev.kernel_log()};
                };
                SCOPED_TRACE(
                    std::string(order == simt::ThreadOrder::Forward ? "Forward"
                                                                    : "Reverse") +
                    (sanitized ? " sanitized" : " unsanitized") +
                    (mode == simt::ExecMode::Warp ? " warp" : " scalar"));
                const auto loop = run(false);
                const auto graph = run(true);
                EXPECT_EQ(loop.first, graph.first);
                expect_logs_equal(loop.second, graph.second);
            }
        }
    }
}

/// Runs `fn(device, graph)` on the graph path at 1 host worker and at 2, 4
/// and hardware_concurrency workers, in both exec modes, asserting payload
/// bytes and kernel logs identical to the 1-worker run.
template <typename F>
void worker_sweep(F fn) {
    const std::set<unsigned> workers = {2u, 4u,
                                        std::max(std::thread::hardware_concurrency(), 1u)};
    for (const auto mode : {simt::ExecMode::Scalar, simt::ExecMode::Warp}) {
        const auto run = [&](unsigned w) {
            simt::Device dev(simt::tiny_device(256 << 20));
            dev.set_exec_mode(mode);
            dev.set_host_workers(w);
            auto payload = fn(dev, /*graph=*/true);
            return std::pair{std::move(payload), dev.kernel_log()};
        };
        const auto reference = run(1);
        for (const unsigned w : workers) {
            if (w == 1) continue;
            SCOPED_TRACE(std::to_string(w) + " workers, " +
                         (mode == simt::ExecMode::Warp ? "warp" : "scalar"));
            const auto parallel = run(w);
            EXPECT_EQ(reference.first, parallel.first);
            expect_logs_equal(reference.second, parallel.second);
        }
    }
}

/// The loop-of-launches reference for gpu_array_sort: the kernel specs its
/// graph submits — negate, phases 1-3 or the small-array sort, negate,
/// verify — each issued through Device::launch, over the same device
/// buffers allocated in the same order.
template <typename T>
void loop_array_sort(simt::Device& dev, std::span<T> host, std::size_t num_arrays,
                     std::size_t array_size, const gas::Options& opts) {
    simt::DeviceBuffer<T> data(dev, num_arrays * array_size);
    simt::copy_to_device(std::span<const T>(host), data);
    const auto span = data.span();
    std::vector<std::uint64_t> expected;
    if (opts.verify_output) {
        expected = gas::resilient::host_row_checksums<T>(span, num_arrays, array_size);
    }
    const auto negate = [&] {
        if constexpr (std::is_floating_point_v<T>) {
            if (opts.order == gas::SortOrder::Descending) gas::negate_on_device(dev, span);
        }
    };
    negate();
    const auto plan = gas::make_plan(array_size, opts, dev.props(), sizeof(T));
    simt::DeviceBuffer<T> splitters;
    simt::DeviceBuffer<std::uint32_t> sizes;
    simt::DeviceBuffer<T> scratch;
    if (plan.buckets == 1) {
        auto spec = gas::detail::small_array_sort_spec<T>(span, num_arrays, array_size);
        dev.launch(spec.cfg, spec.body);
    } else {
        splitters = simt::DeviceBuffer<T>(dev, num_arrays * plan.splitters_per_array);
        sizes = simt::DeviceBuffer<std::uint32_t>(dev, num_arrays * plan.buckets);
        const std::size_t rows = gas::detail::scratch_rows(dev, plan, num_arrays);
        if (rows > 0) scratch = simt::DeviceBuffer<T>(dev, rows * array_size);
        gas::detail::splitter_phase<T>(dev, span, num_arrays, plan, splitters.span());
        gas::detail::bucket_phase<T>(dev, span, num_arrays, plan, opts, splitters.span(),
                                     sizes.span(), scratch.span(), rows);
        gas::detail::sort_phase<T>(dev, span, num_arrays, plan, sizes.span(), opts);
    }
    negate();
    if (opts.verify_output) {
        gas::resilient::verify_rows_on_device<T>(dev, span, num_arrays, array_size,
                                                 opts.order, expected);
    }
    simt::copy_to_host(data, host);
}

/// gpu_array_sort (graph) or its loop reference, over the same input.
template <typename T>
void sort_rows(simt::Device& dev, std::vector<T>& values, std::size_t num_arrays,
               std::size_t array_size, const gas::Options& opts, bool graph) {
    if (graph) {
        gas::gpu_array_sort(dev, std::span<T>(values), num_arrays, array_size, opts);
    } else {
        loop_array_sort(dev, std::span<T>(values), num_arrays, array_size, opts);
    }
}

// --- the 15 sweep workloads, shared by both sweeps -------------------------
//
// The pair and ragged sorters have a single launch path; their workloads
// take the `graph` flag only to share the sweep signature.

std::vector<float> wl_array_sort_verify(simt::Device& dev, bool graph) {
    auto ds = workload::make_dataset(16, 500);
    gas::Options opts;
    opts.verify_output = true;  // covers the gas.verify* streaming kernels
    sort_rows(dev, ds.values, ds.num_arrays, ds.array_size, opts, graph);
    return ds.values;
}

std::vector<std::uint32_t> wl_array_sort_u32(simt::Device& dev, bool graph) {
    auto ds = workload::make_dataset(8, 300);
    std::vector<std::uint32_t> data(ds.values.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint32_t>(ds.values[i] * 1e6f);
    }
    sort_rows(dev, data, ds.num_arrays, ds.array_size, gas::Options{}, graph);
    return data;
}

std::vector<float> wl_array_sort_descending(simt::Device& dev, bool graph) {
    auto ds = workload::make_dataset(8, 300, workload::Distribution::Normal);
    gas::Options opts;
    opts.order = gas::SortOrder::Descending;
    sort_rows(dev, ds.values, ds.num_arrays, ds.array_size, opts, graph);
    return ds.values;
}

std::vector<float> wl_array_sort_binary_search(simt::Device& dev, bool graph) {
    auto ds = workload::make_dataset(8, 500);
    gas::Options opts;
    opts.strategy = gas::BucketingStrategy::BinarySearch;
    sort_rows(dev, ds.values, ds.num_arrays, ds.array_size, opts, graph);
    return ds.values;
}

std::vector<float> wl_array_sort_tpb(simt::Device& dev, bool graph) {
    // tpb > 1 strides each bucket over several lanes — the warp fast path
    // must take its reference fallback and still match exactly.
    auto ds = workload::make_dataset(8, 500);
    gas::Options opts;
    opts.threads_per_bucket = 2;
    sort_rows(dev, ds.values, ds.num_arrays, ds.array_size, opts, graph);
    return ds.values;
}

std::vector<float> wl_small_array(simt::Device& dev, bool graph) {
    auto ds = workload::make_dataset(32, 8);
    sort_rows(dev, ds.values, ds.num_arrays, ds.array_size, gas::Options{}, graph);
    return ds.values;
}

std::vector<float> wl_global_scratch(simt::Device& dev, bool graph) {
    auto ds = workload::make_dataset(2, 20000);  // 80 KB rows: > 48 KB shared
    sort_rows(dev, ds.values, ds.num_arrays, ds.array_size, gas::Options{}, graph);
    return ds.values;
}

std::vector<float> wl_pair_sort(simt::Device& dev, bool /*graph*/) {
    auto keys = workload::make_dataset(8, 400, workload::Distribution::Uniform, 7);
    auto vals = workload::make_dataset(8, 400, workload::Distribution::Uniform, 8);
    gas::gpu_pair_sort(dev, keys.values, vals.values, 8, 400);
    auto out = keys.values;
    out.insert(out.end(), vals.values.begin(), vals.values.end());
    return out;
}

std::vector<float> wl_ragged_sort(simt::Device& dev, bool /*graph*/) {
    auto ds = workload::make_ragged_dataset(12, 16, 512);
    std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
    gas::gpu_ragged_sort(dev, ds.values, offsets);
    return ds.values;
}

std::vector<float> wl_ragged_pair_sort(simt::Device& dev, bool /*graph*/) {
    auto ds =
        workload::make_ragged_dataset(10, 16, 256, workload::Distribution::Uniform, 5);
    auto vs = ds.values;
    std::reverse(vs.begin(), vs.end());
    std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
    gas::gpu_ragged_pair_sort(dev, std::span<float>(ds.values), std::span<float>(vs),
                              offsets);
    auto out = ds.values;
    out.insert(out.end(), vs.begin(), vs.end());
    return out;
}

gas::Options hybrid_forced() {
    gas::Options opts;
    opts.phase3_small_cutoff = 16;
    opts.phase3_bitonic_cutoff = 64;
    return opts;
}

std::vector<float> wl_hybrid_skew_array(simt::Device& dev, bool graph) {
    auto ds = workload::make_dataset(8, 600, workload::Distribution::ZipfHot, 3);
    sort_rows(dev, ds.values, ds.num_arrays, ds.array_size, hybrid_forced(), graph);
    return ds.values;
}

std::vector<float> wl_hybrid_skew_ragged(simt::Device& dev, bool /*graph*/) {
    auto ds = workload::make_ragged_dataset(10, 64, 512, workload::Distribution::ZipfHot, 6);
    std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
    gas::gpu_ragged_sort(dev, ds.values, offsets, hybrid_forced());
    return ds.values;
}

std::vector<float> wl_hybrid_skew_pair(simt::Device& dev, bool /*graph*/) {
    auto keys = workload::make_dataset(6, 500, workload::Distribution::ZipfHot, 7);
    auto vals = workload::make_dataset(6, 500, workload::Distribution::Uniform, 8);
    gas::gpu_pair_sort(dev, keys.values, vals.values, 6, 500, hybrid_forced());
    auto out = keys.values;
    out.insert(out.end(), vals.values.begin(), vals.values.end());
    return out;
}

std::vector<std::uint32_t> pseudo_u32(std::size_t count, std::uint64_t seed) {
    std::vector<std::uint32_t> v(count);
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
    for (auto& x : v) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        x = static_cast<std::uint32_t>(state >> 32);
    }
    return v;
}

template <bool kPrune>
std::vector<std::uint32_t> wl_radix_u32(simt::Device& dev, bool graph) {
    thrustlite::device_vector<std::uint32_t> keys(dev, pseudo_u32(10001, 1));
    thrustlite::RadixOptions opts;
    opts.prune_passes = kPrune;
    opts.graph_launch = graph;
    thrustlite::stable_sort(dev, keys.span(), opts);
    return keys.to_host();
}

std::vector<std::uint32_t> wl_radix_by_key(simt::Device& dev, bool graph) {
    const auto host_keys = pseudo_u32(9000, 3);
    std::vector<std::uint32_t> host_vals(host_keys.size());
    for (std::size_t i = 0; i < host_vals.size(); ++i) {
        host_vals[i] = static_cast<std::uint32_t>(i);
    }
    thrustlite::device_vector<std::uint32_t> keys(dev, host_keys);
    thrustlite::device_vector<std::uint32_t> vals(dev, host_vals);
    thrustlite::RadixOptions opts;
    opts.graph_launch = graph;
    thrustlite::stable_sort_by_key(dev, keys.span(), vals.span(), opts);
    auto out = keys.to_host();
    const auto v = vals.to_host();
    out.insert(out.end(), v.begin(), v.end());
    return out;
}

// --- scalar vs warp (graph path) -------------------------------------------

TEST(ExecEquivalence, ArraySortFloatWithVerify) { exec_sweep(wl_array_sort_verify); }
TEST(ExecEquivalence, ArraySortUint32) { exec_sweep(wl_array_sort_u32); }
TEST(ExecEquivalence, ArraySortDescending) { exec_sweep(wl_array_sort_descending); }
TEST(ExecEquivalence, ArraySortBinarySearchStrategy) {
    exec_sweep(wl_array_sort_binary_search);
}
TEST(ExecEquivalence, ArraySortThreadsPerBucket) { exec_sweep(wl_array_sort_tpb); }
TEST(ExecEquivalence, SmallArrayFastPath) { exec_sweep(wl_small_array); }
TEST(ExecEquivalence, GlobalScratchFallback) { exec_sweep(wl_global_scratch); }
TEST(ExecEquivalence, PairSort) { exec_sweep(wl_pair_sort); }
TEST(ExecEquivalence, RaggedSort) { exec_sweep(wl_ragged_sort); }
TEST(ExecEquivalence, RaggedPairSort) { exec_sweep(wl_ragged_pair_sort); }
TEST(ExecEquivalence, HybridSkewArraySort) { exec_sweep(wl_hybrid_skew_array); }
TEST(ExecEquivalence, HybridSkewRaggedSort) { exec_sweep(wl_hybrid_skew_ragged); }
TEST(ExecEquivalence, HybridSkewPairSort) { exec_sweep(wl_hybrid_skew_pair); }
TEST(ExecEquivalence, RadixSortU32) {
    exec_sweep(wl_radix_u32<false>);
    exec_sweep(wl_radix_u32<true>);
}
TEST(ExecEquivalence, RadixSortByKey) { exec_sweep(wl_radix_by_key); }

// --- graph vs loop of launches, both exec modes ----------------------------
// Uniform workloads and the radix chain: the pair and ragged sorters have
// no loop form to compare against.

TEST(GraphEquivalence, ArraySortFloatWithVerify) {
    graph_vs_loop_sweep(wl_array_sort_verify);
}
TEST(GraphEquivalence, ArraySortUint32) { graph_vs_loop_sweep(wl_array_sort_u32); }
TEST(GraphEquivalence, ArraySortDescending) {
    graph_vs_loop_sweep(wl_array_sort_descending);
}
TEST(GraphEquivalence, ArraySortBinarySearchStrategy) {
    graph_vs_loop_sweep(wl_array_sort_binary_search);
}
TEST(GraphEquivalence, ArraySortThreadsPerBucket) {
    graph_vs_loop_sweep(wl_array_sort_tpb);
}
TEST(GraphEquivalence, SmallArrayFastPath) { graph_vs_loop_sweep(wl_small_array); }
TEST(GraphEquivalence, GlobalScratchFallback) { graph_vs_loop_sweep(wl_global_scratch); }
TEST(GraphEquivalence, HybridSkewArraySort) {
    graph_vs_loop_sweep(wl_hybrid_skew_array);
}
TEST(GraphEquivalence, RadixSortU32) {
    graph_vs_loop_sweep(wl_radix_u32<false>);
    graph_vs_loop_sweep(wl_radix_u32<true>);
}
TEST(GraphEquivalence, RadixSortByKey) { graph_vs_loop_sweep(wl_radix_by_key); }

// --- 1 worker vs 2, 4 and hardware_concurrency workers (graph path) --------

TEST(WorkerEquivalence, ArraySortFloatWithVerify) { worker_sweep(wl_array_sort_verify); }
TEST(WorkerEquivalence, ArraySortUint32) { worker_sweep(wl_array_sort_u32); }
TEST(WorkerEquivalence, ArraySortDescending) { worker_sweep(wl_array_sort_descending); }
TEST(WorkerEquivalence, ArraySortBinarySearchStrategy) {
    worker_sweep(wl_array_sort_binary_search);
}
TEST(WorkerEquivalence, ArraySortThreadsPerBucket) { worker_sweep(wl_array_sort_tpb); }
TEST(WorkerEquivalence, SmallArrayFastPath) { worker_sweep(wl_small_array); }
TEST(WorkerEquivalence, GlobalScratchFallback) { worker_sweep(wl_global_scratch); }
TEST(WorkerEquivalence, PairSort) { worker_sweep(wl_pair_sort); }
TEST(WorkerEquivalence, RaggedSort) { worker_sweep(wl_ragged_sort); }
TEST(WorkerEquivalence, RaggedPairSort) { worker_sweep(wl_ragged_pair_sort); }
TEST(WorkerEquivalence, HybridSkewArraySort) { worker_sweep(wl_hybrid_skew_array); }
TEST(WorkerEquivalence, HybridSkewRaggedSort) { worker_sweep(wl_hybrid_skew_ragged); }
TEST(WorkerEquivalence, HybridSkewPairSort) { worker_sweep(wl_hybrid_skew_pair); }
TEST(WorkerEquivalence, RadixSortU32) {
    worker_sweep(wl_radix_u32<false>);
    worker_sweep(wl_radix_u32<true>);
}
TEST(WorkerEquivalence, RadixSortByKey) { worker_sweep(wl_radix_by_key); }

}  // namespace
