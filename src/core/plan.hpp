#pragma once

#include <cstddef>
#include <cstdint>

#include "core/options.hpp"
#include "simt/device_properties.hpp"

namespace gas {

/// Derived launch geometry for sorting arrays of one size (Definitions 2-3
/// of the paper: p = floor(n / bucket_target) buckets, q = p - 1 interior
/// splitters, plus the two +-infinity sentinels of Definition 5).
struct SortPlan {
    std::size_t array_size = 0;          ///< n
    std::size_t buckets = 1;             ///< p
    std::size_t sample_size = 1;         ///< |samples| per array (regular sampling)
    std::size_t splitters_per_array = 2; ///< p + 1 (q interior + 2 sentinels)
    unsigned block_threads = 1;          ///< phase 2/3 threads per block
    bool array_fits_shared = true;       ///< can the array stage into 48 KB?

    [[nodiscard]] std::size_t interior_splitters() const { return buckets - 1; }
};

/// Throws std::invalid_argument on options no sorter can run: a zero
/// bucket_target or threads_per_bucket, or a sampling_rate outside (0, 1].
void validate(const Options& opts);

/// Shared-memory bytes a block needs to sort one row of `n` elements in
/// place: `planes` staged rows (keys, plus values for pairs), `splitters`
/// splitter slots and the two u32 count/cursor arrays of `lanes` entries.
[[nodiscard]] constexpr std::size_t staged_row_bytes(std::size_t n, std::size_t planes,
                                                     std::size_t elem_size,
                                                     std::size_t splitters,
                                                     std::size_t lanes) {
    return planes * n * elem_size + splitters * elem_size + 2 * lanes * sizeof(std::uint32_t);
}

/// Computes the plan for arrays of `n` elements of `elem_size` bytes under
/// `opts` on a device with `props` (element size drives the shared-memory
/// staging decisions).  Throws per validate() on unusable options.
[[nodiscard]] SortPlan make_plan(std::size_t n, const Options& opts,
                                 const simt::DeviceProperties& props,
                                 std::size_t elem_size = sizeof(float));

}  // namespace gas
