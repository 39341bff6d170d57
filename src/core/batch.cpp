#include "core/batch.hpp"

#include "core/gpu_array_sort.hpp"
#include "core/plan.hpp"
#include "simt/device_memory.hpp"

namespace gas {

std::size_t batch_footprint_bytes(std::size_t total_arrays, std::size_t array_size,
                                  const Options& opts, const simt::DeviceProperties& props,
                                  std::size_t buffers) {
    // Pairs fuse into a single kernel with zero global temporaries, so their
    // footprint is just both data planes; the uniform path's temporaries (S,
    // Z, oversized-array scratch) come from the capacity model.
    if (buffers >= 2) {
        const std::size_t plane = total_arrays * array_size * sizeof(float);
        auto aligned = [](std::size_t b) {
            return (b + simt::DeviceMemory::kAlignment - 1) / simt::DeviceMemory::kAlignment *
                   simt::DeviceMemory::kAlignment;
        };
        return buffers * aligned(plane);
    }
    return device_footprint_bytes(total_arrays, array_size, opts, props, sizeof(float));
}

bool ragged_row_fits_shared(std::size_t n, const Options& opts,
                            const simt::DeviceProperties& props, std::size_t buffers) {
    if (n == 0) return true;
    // The fused kernel's own shared budget, at the worst-case block width
    // the whole batch could reach (p grows with the largest fused row), so a
    // row admitted here can never make the fused launch throw regardless of
    // what it is batched with.
    (void)opts;
    const std::size_t worst_threads = props.max_threads_per_block;
    return staged_row_bytes(n, buffers, sizeof(float), worst_threads + 1, worst_threads) <=
           props.shared_memory_per_block;
}

}  // namespace gas
