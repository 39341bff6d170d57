#pragma once

#include <cstdint>
#include <span>

#include "core/options.hpp"
#include "core/sort_stats.hpp"
#include "simt/device.hpp"
#include "simt/device_buffer.hpp"

namespace gas {

/// Extension beyond the paper's uniform-n datasets: sorts N arrays of
/// *varying* sizes stored CSR-style (`offsets` has N+1 entries; array i
/// occupies values[offsets[i], offsets[i+1])), in place on the device, in
/// Options::order (descending negates the keys around the ascending kernel).
///
/// Implementation note: because each block owns one array end to end, the
/// three phases fuse into a single kernel (gas.ragged_fused, the keys-only
/// form of the fused row sorter the pair sorters share, core/fused_sort.cpp)
/// whose splitters, counts and bucket offsets never leave shared memory —
/// zero temporary global memory, an even stronger in-place property than
/// gpu_array_sort.  Requires every array to fit the 48 KB shared staging
/// area (about 10k floats after bookkeeping, see ragged_row_fits_shared);
/// throws std::invalid_argument otherwise, and on unusable Options
/// (gas::validate) or offsets that are not ascending.
SortStats sort_ragged_on_device(simt::Device& device, simt::DeviceBuffer<float>& values,
                                std::span<const std::uint64_t> offsets,
                                const Options& opts = {});

/// Host convenience wrapper (upload, sort, download).
SortStats gpu_ragged_sort(simt::Device& device, std::span<float> host_values,
                          std::span<const std::uint64_t> offsets, const Options& opts = {});

}  // namespace gas
