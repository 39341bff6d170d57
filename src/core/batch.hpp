#pragma once

#include <cstddef>

#include "core/options.hpp"
#include "simt/device_properties.hpp"

namespace gas {

/// Admission arithmetic for serving layers (gas::serve) that fuse many small
/// independent sort requests into one device launch sequence.
///
/// The fusion invariant they rely on: every kernel in the repo processes one
/// array per block (or per packed lane) with no inter-array coupling —
/// splitters, bucket counts and phase-3 work never cross array boundaries.
/// Concatenating K requests of the same array size and options into one
/// (ΣN x n) sort_arrays_on_device / sort_pairs_on_device call, or their rows
/// into one CSR table for sort_ragged_on_device, therefore produces, for each
/// request's rows, exactly the bytes a standalone sort of that request would
/// have produced, while paying one launch sequence instead of K.
/// `tests/serve/test_batch.cpp` asserts the bit-identity per request.

/// Device bytes a fused uniform/pair batch will occupy (data + temporaries),
/// the admission-control arithmetic gas::serve uses before accepting a
/// request into a batch.  `buffers` is 1 for value-only jobs, 2 for pairs.
[[nodiscard]] std::size_t batch_footprint_bytes(std::size_t total_arrays,
                                                std::size_t array_size, const Options& opts,
                                                const simt::DeviceProperties& props,
                                                std::size_t buffers = 1);

/// True when a ragged row of `n` elements fits the fused kernel's
/// shared-memory staging area (`buffers` as above); callers route rows that
/// do not fit to a fallback path instead of letting the fused launch throw.
[[nodiscard]] bool ragged_row_fits_shared(std::size_t n, const Options& opts,
                                          const simt::DeviceProperties& props,
                                          std::size_t buffers = 1);

}  // namespace gas
