// The fused row sorter behind the ragged, pair and ragged-pair front ends
// (core/ragged_sort.hpp, core/pair_sort.hpp): one block sorts one row from
// sampling through the final bucket sort, the paper's three phases fused
// into one kernel whose splitters, counts and cursors never leave shared
// memory.  Two compile-time policies shape it: the row layout (uniform
// stride or CSR offsets) and the payload (keys only, or keys plus a value
// plane permuted alongside).

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/device_ops.hpp"
#include "core/hybrid_phase3.hpp"
#include "core/insertion_sort.hpp"
#include "core/pair_sort.hpp"
#include "core/phases.hpp"
#include "core/plan.hpp"
#include "core/ragged_sort.hpp"
#include "core/resilient.hpp"
#include "core/warp_bucket.hpp"

namespace gas {

namespace {

/// Location of one row inside the flat buffers.
struct Extent {
    std::size_t base;
    std::size_t n;
};

/// Row layout: uniform geometry, row a spans [a * row_size, (a + 1) * row_size).
struct UniformRows {
    std::size_t num_rows = 0;
    std::size_t row_size = 0;

    Extent operator()(std::size_t a) const { return {a * row_size, row_size}; }
    [[nodiscard]] std::size_t count() const { return num_rows; }
    [[nodiscard]] std::size_t elements() const { return num_rows * row_size; }
    [[nodiscard]] std::size_t longest(const char* /*who*/) const { return row_size; }

    // Uniform rows only ever carry pairs here: keys-only uniform rows run
    // the paper's three-kernel pipeline (gpu_array_sort).
    template <typename T>
    std::vector<std::uint64_t> checksums(std::span<const T> keys,
                                         std::span<const T> values) const {
        return resilient::host_pair_row_checksums<T>(keys, values, num_rows, row_size);
    }
    template <typename T>
    resilient::VerifyCounts verify(simt::Device& device, std::span<const T> keys,
                                   std::span<const T> values, SortOrder order,
                                   std::span<const std::uint64_t> expected) const {
        return resilient::verify_pair_rows_on_device<T>(device, keys, values, num_rows,
                                                        row_size, order, expected);
    }
};

/// Row layout: CSR, row a spans [offsets[a], offsets[a + 1]).
struct CsrRows {
    std::span<const std::uint64_t> offsets;

    Extent operator()(std::size_t a) const { return {offsets[a], offsets[a + 1] - offsets[a]}; }
    [[nodiscard]] std::size_t count() const {
        return offsets.size() < 2 ? 0 : offsets.size() - 1;
    }
    [[nodiscard]] std::size_t elements() const { return count() == 0 ? 0 : offsets.back(); }
    /// Longest row; throws when the offsets are not ascending.
    [[nodiscard]] std::size_t longest(const char* who) const {
        std::size_t max_n = 0;
        for (std::size_t a = 0; a < count(); ++a) {
            if (offsets[a + 1] < offsets[a]) {
                throw std::invalid_argument(std::string(who) + ": offsets not ascending");
            }
            max_n = std::max<std::size_t>(max_n, offsets[a + 1] - offsets[a]);
        }
        return max_n;
    }

    /// Host-side multiset checksums per row (`values` empty for keys only).
    template <typename T>
    std::vector<std::uint64_t> checksums(std::span<const T> keys,
                                         std::span<const T> values) const {
        return values.empty() ? resilient::host_csr_checksums<T>(keys, offsets)
                              : resilient::host_pair_csr_checksums<T>(keys, values, offsets);
    }
    template <typename T>
    resilient::VerifyCounts verify(simt::Device& device, std::span<const T> keys,
                                   std::span<const T> values, SortOrder order,
                                   std::span<const std::uint64_t> expected) const {
        return values.empty()
                   ? resilient::verify_csr_on_device<T>(device, keys, offsets, order, expected)
                   : resilient::verify_pair_csr_on_device<T>(device, keys, values, offsets,
                                                             order, expected);
    }
};

/// The fused sample-sort kernel: one block per row, ascending, in place.
/// With kPairs the value row is staged and permuted alongside the keys and
/// every data-movement charge counts both planes.  `max_n` is the longest
/// row; it sizes the block (one lane per bucket) and the shared budget.
template <typename T, bool kPairs, typename Rows>
simt::KernelStats fused_row_sort(simt::Device& device, std::span<T> keys, std::span<T> values,
                                 const Rows& rows, std::size_t max_n, const Options& opts) {
    constexpr const char* kKernel = kPairs ? "gas.pair_sort_fused" : "gas.ragged_fused";
    constexpr std::uint64_t kPlanes = kPairs ? 2 : 1;
    const auto& props = device.props();
    const std::size_t max_p =
        std::clamp<std::size_t>(max_n / opts.bucket_target, 1, props.max_threads_per_block);
    const auto block_threads = static_cast<unsigned>(max_p);

    const std::size_t shared_need =
        staged_row_bytes(max_n, kPlanes, sizeof(T), max_p + 1, block_threads);
    if (shared_need > props.shared_memory_per_block) {
        throw std::invalid_argument(
            std::string(kKernel) + ": a row is too large for shared-memory staging (" +
            std::to_string(max_n) + " elements need " + std::to_string(shared_need) +
            " B of " + std::to_string(props.shared_memory_per_block) + " B)");
    }

    simt::LaunchConfig cfg{kKernel, static_cast<unsigned>(rows.count()), block_threads};
    return device.launch(cfg, [&](simt::BlockCtx& blk) {
        const Extent ext = rows(blk.block_idx());
        const std::size_t n = ext.n;
        // Same geometry rules as make_plan, evaluated per row.
        std::size_t p = 1;
        std::size_t sample_size = 1;
        if (n > 0) {
            p = std::clamp<std::size_t>(n / opts.bucket_target, 1, block_threads);
            sample_size = static_cast<std::size_t>(
                std::llround(opts.sampling_rate * static_cast<double>(n)));
            sample_size = std::min(std::max(sample_size, p), n);
        }

        auto sh_splitters = blk.shared_alloc<T>(p + 1);
        auto counts = blk.shared_alloc<std::uint32_t>(block_threads);
        auto starts = blk.shared_alloc<std::uint32_t>(block_threads);
        auto staged_k = blk.shared_alloc<T>(std::max<std::size_t>(n, 1));
        decltype(staged_k) staged_v;
        if constexpr (kPairs) staged_v = blk.shared_alloc<T>(std::max<std::size_t>(n, 1));
        if (n == 0) return;
        T* key_row = keys.data() + ext.base;
        T* val_row = kPairs ? values.data() + ext.base : nullptr;

        // Phase 1 (fused): sample the keys, insertion-sort the sample, pick
        // splitters — all in shared memory, one thread (paper section 5.1).
        blk.single_thread([&](simt::ThreadCtx& tc) {
            const std::size_t stride = n / sample_size;
            // The key staging area doubles as the sample buffer before the
            // row itself is staged.
            std::span<T> sample = staged_k.subspan(0, sample_size);
            for (std::size_t s = 0; s < sample_size; ++s) sample[s] = key_row[s * stride];
            tc.global_random(sample_size);
            tc.shared(sample_size);
            const InsertionCost cost = insertion_sort(sample);
            tc.ops(cost.compares + cost.moves);
            tc.shared(2 * (cost.compares + cost.moves));
            sh_splitters[0] = detail::low_sentinel<T>();
            const std::size_t sstride = sample_size / p;
            for (std::size_t j = 0; j + 1 < p; ++j) {
                sh_splitters[j + 1] = sample[(j + 1) * sstride];
            }
            sh_splitters[p] = detail::high_sentinel<T>();
            tc.shared(2 * p);
            tc.ops(p);
        });

        // Stage the row(s) (cooperative, coalesced).
        const auto stage_lane = [&](simt::ThreadCtx& tc) {
            std::uint64_t copied = 0;
            for (std::size_t i = tc.tid(); i < n; i += block_threads) {
                staged_k[i] = key_row[i];
                if constexpr (kPairs) staged_v[i] = val_row[i];
                ++copied;
            }
            tc.global_coalesced(kPlanes * copied * sizeof(T));
            tc.shared(kPlanes * copied);
            tc.ops(copied);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) {
            if (wc.tracked()) {
                wc.for_lanes(stage_lane);
                return;
            }
            detail::warp_stage_rows(key_row, staged_k.data(), n, block_threads,
                                    wc.lane_begin(), wc.width());
            if constexpr (kPairs) {
                detail::warp_stage_rows(val_row, staged_v.data(), n, block_threads,
                                        wc.lane_begin(), wc.width());
            }
            for (unsigned l = wc.lane_begin(); l < wc.lane_end(); ++l) {
                const std::uint64_t copied = detail::strided_count(n, l, block_threads);
                wc.coalesced_lane(l, kPlanes * copied * sizeof(T));
                wc.shared_lane(l, kPlanes * copied);
                wc.ops_lane(l, copied);
            }
        });

        // Phase 2 (fused): count per splitter pair, scan, write back in
        // place — keys decide the bucket, values ride along.
        const auto count_lane = [&](simt::ThreadCtx& tc) {
            if (tc.tid() >= p) return;  // idle lanes on short rows
            const T lo = sh_splitters[tc.tid()];
            const T hi = sh_splitters[tc.tid() + 1];
            std::uint32_t c = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const T x = staged_k[i];
                c += detail::in_bucket(x, lo, hi, tc.tid() == 0) ? 1u : 0u;
            }
            counts[tc.tid()] = c;
            tc.shared(n + 3);
            tc.ops(n * 3);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) {
            if (wc.tracked()) {
                wc.for_lanes(count_lane);
                return;
            }
            const unsigned wb = wc.lane_begin();
            if (wb >= p) return;  // fully idle warp on short rows
            const auto w = static_cast<unsigned>(std::min<std::size_t>(wc.lane_end(), p)) - wb;
            detail::warp_count_buckets(staged_k.data(), n, sh_splitters.data(), wb, w,
                                       counts.data());
            for (unsigned k2 = 0; k2 < w; ++k2) {
                wc.shared_lane(wb + k2, n + 3);
                wc.ops_lane(wb + k2, n * 3);
            }
        });
        std::uint32_t k_max = 0;
        blk.single_thread([&](simt::ThreadCtx& tc) {
            std::uint32_t running = 0;
            std::uint64_t sum = 0;
            for (std::size_t j = 0; j < p; ++j) {
                starts[j] = running;
                const std::uint32_t c = counts[j];
                running += c;
                sum += c;
                if (opts.hybrid_phase3) k_max = std::max(k_max, c);
            }
#ifndef NDEBUG
            if (sum != n) {
                throw std::logic_error(std::string(kKernel) + ": bucket counts of row " +
                                       std::to_string(blk.block_idx()) + " sum to " +
                                       std::to_string(sum) + ", expected " +
                                       std::to_string(n));
            }
#else
            (void)sum;
#endif
            tc.ops(opts.hybrid_phase3 ? 2 * p : p);
            tc.shared(2 * p);
        });
        const auto scatter_lane = [&](simt::ThreadCtx& tc) {
            if (tc.tid() >= p) return;
            const T lo = sh_splitters[tc.tid()];
            const T hi = sh_splitters[tc.tid() + 1];
            std::uint32_t cursor = starts[tc.tid()];
            for (std::size_t i = 0; i < n; ++i) {
                const T x = staged_k[i];
                if (detail::in_bucket(x, lo, hi, tc.tid() == 0)) {
                    key_row[cursor] = x;
                    if constexpr (kPairs) val_row[cursor] = staged_v[i];
                    ++cursor;
                }
            }
            const std::uint64_t written = cursor - starts[tc.tid()];
            tc.shared(kPlanes * n + 2);
            tc.ops(n * 3);
            tc.global_coalesced(kPlanes * written * sizeof(T));
            tc.global_random(written > 0 ? kPlanes : 0);  // one run start per plane
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) {
            if (wc.tracked()) {
                wc.for_lanes(scatter_lane);
                return;
            }
            const unsigned wb = wc.lane_begin();
            if (wb >= p) return;
            const auto w = static_cast<unsigned>(std::min<std::size_t>(wc.lane_end(), p)) - wb;
            std::array<std::uint32_t, simt::kMaxWarpLanes> cur;
            for (unsigned k2 = 0; k2 < w; ++k2) cur[k2] = starts[wb + k2];
            const T* sk = staged_k.data();
            const T* sv = staged_v.data();
            detail::warp_scatter_buckets(sk, n, sh_splitters.data(), p, wb, w, cur.data(),
                                         [&](std::uint32_t dst, std::size_t i) {
                                             key_row[dst] = sk[i];
                                             if constexpr (kPairs) val_row[dst] = sv[i];
                                         });
            for (unsigned k2 = 0; k2 < w; ++k2) {
                const std::uint64_t written = cur[k2] - starts[wb + k2];
                wc.shared_lane(wb + k2, kPlanes * n + 2);
                wc.ops_lane(wb + k2, n * 3);
                wc.coalesced_lane(wb + k2, kPlanes * written * sizeof(T));
                wc.random_lane(wb + k2, written > 0 ? kPlanes : 0);
            }
        });

        // Phase 3 (fused).  Skewed blocks hand over to the hybrid sorter
        // (size-binned scheduling + cooperative bitonic, see
        // hybrid_phase3.hpp; values ride along); balanced blocks keep the
        // paper's one-lane-per-bucket insertion sort.
        if (opts.hybrid_phase3 && k_max > opts.phase3_small_cutoff) {
            detail::hybrid_phase3_block<kPairs, T>(
                blk, props, blk.global_view(std::span<T>{key_row, n}),
                kPairs ? blk.global_view(std::span<T>{val_row, n})
                       : simt::sanitize::TrackedSpan<T>{},
                p,
                [&](std::size_t j) -> std::uint32_t {
                    return j < p ? starts[j] : static_cast<std::uint32_t>(n);
                },
                opts);
            return;
        }
        const auto insert_lane = [&](simt::ThreadCtx& tc) {
            if (tc.tid() >= p) return;
            const std::uint32_t begin = starts[tc.tid()];
            const std::uint32_t end =
                tc.tid() + 1 < p ? starts[tc.tid() + 1] : static_cast<std::uint32_t>(n);
            const std::span<T> bucket{key_row + begin, key_row + end};
            InsertionCost cost;
            if constexpr (kPairs) {
                cost = insertion_sort_pairs(bucket, std::span<T>{val_row + begin, val_row + end});
            } else {
                cost = insertion_sort(bucket);
            }
            tc.ops(cost.compares + cost.moves);
            tc.global_random(2 * kPlanes * bucket.size());  // load & store per plane
            tc.shared(2);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(insert_lane); });
    });
}

/// The one on-device entry of the fused sorter: validates the options and
/// the layout, takes host-side checksums (Options::verify_output), negates
/// the keys around the ascending kernel for SortOrder::Descending, and
/// verifies the result in the requested order.  `who` names the public
/// entry point in errors.
template <typename T, bool kPairs, typename Rows>
SortStats sort_rows_on_device(simt::Device& device, std::span<T> keys, std::span<T> values,
                              const Rows& rows, const Options& opts, const char* who) {
    validate(opts);
    SortStats stats;
    stats.num_arrays = rows.count();
    if (stats.num_arrays == 0) return stats;
    stats.array_size = rows.longest(who);
    const std::size_t total = rows.elements();
    if (keys.size() < total || (kPairs && values.size() < total)) {
        throw std::invalid_argument(std::string(who) + ": device buffers smaller than the rows");
    }
    stats.data_bytes = (kPairs ? 2 : 1) * total * sizeof(T);
    if (stats.array_size == 0) return stats;
    keys = keys.first(total);
    if constexpr (kPairs) values = values.first(total);

    // Checksums come from the buffers before any launch or mutation (the
    // descending negation included), so no injected fault can poison the
    // baseline — see resilient::host_csr_checksums.
    std::vector<std::uint64_t> expected;
    if (opts.verify_output) {
        expected = rows.template checksums<T>(keys, values);
    }
    const bool descending = opts.order == SortOrder::Descending;
    const auto negate_keys = [&] {
        const auto k = negate_on_device(device, keys);
        stats.extra.modeled_ms += k.modeled_ms;
        stats.extra.wall_ms += k.wall_ms;
    };
    if (descending) negate_keys();
    const simt::KernelStats k =
        fused_row_sort<T, kPairs>(device, keys, values, rows, stats.array_size, opts);
    stats.buckets_per_array = k.block_dim;  // one lane per bucket of the longest row
    stats.phase2 = {k.modeled_ms, k.wall_ms};  // the fused kernel reports as one phase
    stats.phase3_imbalance = k.imbalance;
    stats.peak_device_bytes = device.memory().peak_bytes_in_use();
    if (descending) negate_keys();

    if (opts.verify_output) {
        const auto vc = rows.template verify<T>(device, keys, values, opts.order, expected);
        stats.verify.modeled_ms += vc.modeled_ms;
        stats.verify.wall_ms += vc.wall_ms;
        if (!vc.ok()) throw resilient::VerifyError(who, vc.unsorted, vc.mismatched);
    }
    return stats;
}

/// Host wrapper: upload the key (and value) plane, sort, download.
template <typename T, bool kPairs, typename Rows>
SortStats sort_host_rows(simt::Device& device, std::span<T> host_keys, std::span<T> host_values,
                         const Rows& rows, const Options& opts, const char* who) {
    const std::size_t total = rows.elements();
    if (host_keys.size() < total || (kPairs && host_values.size() < total)) {
        throw std::invalid_argument(std::string(who) + ": host spans smaller than the rows");
    }
    // Nothing to upload; a zero-element DeviceBuffer would still allocate.
    if (total == 0) return sort_rows_on_device<T, kPairs>(device, {}, {}, rows, opts, who);
    simt::DeviceBuffer<T> keys(device, total);
    simt::DeviceBuffer<T> values;
    double h2d = simt::copy_to_device(std::span<const T>(host_keys), keys);
    if constexpr (kPairs) {
        values = simt::DeviceBuffer<T>(device, total);
        h2d += simt::copy_to_device(std::span<const T>(host_values), values);
    }
    SortStats stats =
        sort_rows_on_device<T, kPairs>(device, keys.span(), values.span(), rows, opts, who);
    stats.h2d_ms = h2d;
    stats.d2h_ms = simt::copy_to_host(keys, host_keys);
    if constexpr (kPairs) stats.d2h_ms += simt::copy_to_host(values, host_values);
    return stats;
}

}  // namespace

SortStats sort_ragged_on_device(simt::Device& device, simt::DeviceBuffer<float>& values,
                                std::span<const std::uint64_t> offsets, const Options& opts) {
    return sort_rows_on_device<float, false>(device, values.span(), {}, CsrRows{offsets}, opts,
                                             "gpu_ragged_sort");
}

SortStats gpu_ragged_sort(simt::Device& device, std::span<float> host_values,
                          std::span<const std::uint64_t> offsets, const Options& opts) {
    return sort_host_rows<float, false>(device, host_values, {}, CsrRows{offsets}, opts,
                                        "gpu_ragged_sort");
}

template <typename T>
SortStats sort_pairs_on_device(simt::Device& device, simt::DeviceBuffer<T>& keys,
                               simt::DeviceBuffer<T>& values, std::size_t num_arrays,
                               std::size_t array_size, const Options& opts) {
    return sort_rows_on_device<T, true>(device, keys.span(), values.span(),
                                        UniformRows{num_arrays, array_size}, opts,
                                        "gpu_pair_sort");
}

template <typename T>
SortStats gpu_pair_sort(simt::Device& device, std::span<T> host_keys,
                        std::span<T> host_values, std::size_t num_arrays,
                        std::size_t array_size, const Options& opts) {
    return sort_host_rows<T, true>(device, host_keys, host_values,
                                   UniformRows{num_arrays, array_size}, opts, "gpu_pair_sort");
}

template <typename T>
SortStats sort_ragged_pairs_on_device(simt::Device& device, simt::DeviceBuffer<T>& keys,
                                      simt::DeviceBuffer<T>& values,
                                      std::span<const std::uint64_t> offsets,
                                      const Options& opts) {
    return sort_rows_on_device<T, true>(device, keys.span(), values.span(), CsrRows{offsets},
                                        opts, "gpu_ragged_pair_sort");
}

template <typename T>
SortStats gpu_ragged_pair_sort(simt::Device& device, std::span<T> host_keys,
                               std::span<T> host_values,
                               std::span<const std::uint64_t> offsets, const Options& opts) {
    return sort_host_rows<T, true>(device, host_keys, host_values, CsrRows{offsets}, opts,
                                   "gpu_ragged_pair_sort");
}

#define GAS_INSTANTIATE_PAIR(T)                                                            \
    template SortStats sort_pairs_on_device<T>(simt::Device&, simt::DeviceBuffer<T>&,      \
                                               simt::DeviceBuffer<T>&, std::size_t,        \
                                               std::size_t, const Options&);               \
    template SortStats gpu_pair_sort<T>(simt::Device&, std::span<T>, std::span<T>,         \
                                        std::size_t, std::size_t, const Options&);         \
    template SortStats sort_ragged_pairs_on_device<T>(                                     \
        simt::Device&, simt::DeviceBuffer<T>&, simt::DeviceBuffer<T>&,                     \
        std::span<const std::uint64_t>, const Options&);                                   \
    template SortStats gpu_ragged_pair_sort<T>(simt::Device&, std::span<T>, std::span<T>,  \
                                               std::span<const std::uint64_t>,             \
                                               const Options&);
GAS_INSTANTIATE_PAIR(float)
GAS_INSTANTIATE_PAIR(double)
#undef GAS_INSTANTIATE_PAIR

}  // namespace gas
