#pragma once

// Host reference checks for every output the benchmark receives.
//
// Uniform and ragged rows must equal std::sort of the input byte for byte.
// Pair rows must have ascending keys and the same (key, payload) multiset as
// the input (the payload order among equal keys is plan-dependent, so it is
// not compared directly).

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace gasbench {

using Pair = std::pair<float, float>;

/// Each row of a row-major num_arrays x array_size buffer, std::sort'ed.
[[nodiscard]] std::vector<float> sorted_rows(std::span<const float> values,
                                             std::size_t num_arrays, std::size_t array_size);
/// Each CSR row (`offsets` has rows + 1 entries), std::sort'ed.
[[nodiscard]] std::vector<float> sorted_ragged(std::span<const float> values,
                                               std::span<const std::uint64_t> offsets);
/// Per row, the (key, payload) pairs sorted lexicographically: the multiset
/// a correct pair sort must preserve.
[[nodiscard]] std::vector<Pair> sorted_pairs(std::span<const float> keys,
                                             std::span<const float> payload,
                                             std::size_t num_arrays, std::size_t array_size);

[[nodiscard]] bool same_bytes(std::span<const float> got, std::span<const float> expected);
/// Keys ascending in every row, and each row's (key, payload) multiset equal
/// to `expected` (from sorted_pairs of the input).
[[nodiscard]] bool pairs_match(std::span<const float> keys, std::span<const float> payload,
                               std::span<const Pair> expected, std::size_t num_arrays,
                               std::size_t array_size);

/// Outcome accounting.  A unit (sort or request) fails when its status is not
/// Ok or its output is wrong; a wrong output also makes the run incorrect.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t wrong = 0;

    void add(bool status_ok, bool output_ok) {
        ++attempted;
        if (!status_ok || !output_ok) ++failed;
        if (status_ok && !output_ok) ++wrong;
    }
    [[nodiscard]] bool correct() const { return wrong == 0; }
    [[nodiscard]] double success_frac() const {
        return attempted == 0 ? 0.0
                              : static_cast<double>(attempted - failed) /
                                    static_cast<double>(attempted);
    }
};

/// Feeds the checker known-bad outputs (an unsorted row, a dropped payload
/// pair, a non-Ok status) and known-good ones; returns how many cases it
/// judged wrongly, printing each.
[[nodiscard]] int checker_selftest();

}  // namespace gasbench
