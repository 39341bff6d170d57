#include "core/plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gas {

void validate(const Options& opts) {
    if (opts.bucket_target == 0) throw std::invalid_argument("bucket_target must be >= 1");
    if (!(opts.sampling_rate > 0.0) || opts.sampling_rate > 1.0) {
        throw std::invalid_argument("sampling_rate must be in (0, 1]");
    }
    if (opts.threads_per_bucket == 0) throw std::invalid_argument("threads_per_bucket must be >= 1");
}

SortPlan make_plan(std::size_t n, const Options& opts, const simt::DeviceProperties& props,
                   std::size_t elem_size) {
    validate(opts);

    SortPlan plan;
    plan.array_size = n;
    if (n == 0) return plan;

    // Definition 2: p = floor(n / bucket_target) buckets, at least one.
    std::size_t p = std::max<std::size_t>(1, n / opts.bucket_target);

    // A block cannot host more threads than the device allows.
    const std::size_t max_threads =
        std::max<std::size_t>(1, props.max_threads_per_block / opts.threads_per_bucket);
    p = std::min(p, max_threads);

    // Regular sampling (section 5.1): 10% of the array by default, but never
    // fewer samples than buckets (we need p - 1 splitters at stride >= 1) and
    // never more than the array or the shared-memory staging area.
    std::size_t sample =
        static_cast<std::size_t>(std::llround(opts.sampling_rate * static_cast<double>(n)));
    sample = std::max(sample, p);
    sample = std::min(sample, n);
    const std::size_t shared_elems = props.shared_memory_per_block / elem_size;
    sample = std::min(sample, shared_elems);
    p = std::min(p, sample);  // keep stride >= 1 even after clamping

    plan.buckets = p;
    plan.sample_size = sample;
    plan.splitters_per_array = p + 1;  // q = p - 1 interior + 2 sentinels
    plan.block_threads = static_cast<unsigned>(p) * opts.threads_per_bucket;

    // Phase 2 stages the array, the splitters and the bucket cursors in
    // shared memory when they fit (the paper's assumption for <= 4000-peak
    // spectra); otherwise the driver falls back to a global scratch row.
    plan.array_fits_shared = staged_row_bytes(n, 1, elem_size, plan.splitters_per_array,
                                              plan.block_threads) <=
                             props.shared_memory_per_block;
    return plan;
}

}  // namespace gas
