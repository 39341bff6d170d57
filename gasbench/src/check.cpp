#include "check.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace gasbench {

std::vector<float> sorted_rows(std::span<const float> values, std::size_t num_arrays,
                               std::size_t array_size) {
    std::vector<float> out(values.begin(), values.begin() + num_arrays * array_size);
    for (std::size_t a = 0; a < num_arrays; ++a) {
        std::sort(out.begin() + a * array_size, out.begin() + (a + 1) * array_size);
    }
    return out;
}

std::vector<float> sorted_ragged(std::span<const float> values,
                                 std::span<const std::uint64_t> offsets) {
    std::vector<float> out(values.begin(), values.end());
    for (std::size_t r = 0; r + 1 < offsets.size(); ++r) {
        std::sort(out.begin() + offsets[r], out.begin() + offsets[r + 1]);
    }
    return out;
}

std::vector<Pair> sorted_pairs(std::span<const float> keys, std::span<const float> payload,
                               std::size_t num_arrays, std::size_t array_size) {
    std::vector<Pair> out(num_arrays * array_size);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = {keys[i], payload[i]};
    for (std::size_t a = 0; a < num_arrays; ++a) {
        std::sort(out.begin() + a * array_size, out.begin() + (a + 1) * array_size);
    }
    return out;
}

bool same_bytes(std::span<const float> got, std::span<const float> expected) {
    return got.size() == expected.size() &&
           std::memcmp(got.data(), expected.data(), got.size_bytes()) == 0;
}

bool pairs_match(std::span<const float> keys, std::span<const float> payload,
                 std::span<const Pair> expected, std::size_t num_arrays,
                 std::size_t array_size) {
    const std::size_t total = num_arrays * array_size;
    if (keys.size() != total || payload.size() != total || expected.size() != total) {
        return false;
    }
    std::vector<Pair> row(array_size);
    for (std::size_t a = 0; a < num_arrays; ++a) {
        const std::size_t base = a * array_size;
        for (std::size_t i = 0; i < array_size; ++i) {
            if (i > 0 && keys[base + i] < keys[base + i - 1]) return false;
            row[i] = {keys[base + i], payload[base + i]};
        }
        std::sort(row.begin(), row.end());
        if (std::memcmp(row.data(), expected.data() + base, array_size * sizeof(Pair)) != 0) {
            return false;
        }
    }
    return true;
}

int checker_selftest() {
    int bad = 0;
    const auto expect = [&bad](const char* what, bool got, bool want) {
        const bool pass = got == want;
        std::printf("selftest %-44s %s\n", what, pass ? "ok" : "WRONG");
        if (!pass) ++bad;
    };

    // Two rows of four; the second has a duplicate key so the pair check
    // must accept either payload order for it.
    const std::vector<float> in = {3, 1, 4, 2, 7, 5, 5, 6};
    const std::vector<float> pay = {0, 1, 2, 3, 4, 5, 6, 7};
    const std::vector<float> ref = sorted_rows(in, 2, 4);
    expect("sorted rows match the reference", same_bytes(ref, ref), true);

    std::vector<float> unsorted = ref;
    std::swap(unsorted[1], unsorted[2]);  // injected unsorted row
    expect("unsorted row is caught", same_bytes(unsorted, ref), false);

    std::vector<float> lost = ref;
    lost[3] = lost[2];  // a value replaced by its neighbour
    expect("lost value is caught", same_bytes(lost, ref), false);

    const std::vector<std::uint64_t> offsets = {0, 3, 8};
    const std::vector<float> rref = sorted_ragged(in, offsets);
    std::vector<float> rbad = rref;
    std::swap(rbad[0], rbad[2]);
    expect("unsorted ragged row is caught", same_bytes(rbad, rref), false);

    const std::vector<Pair> pref = sorted_pairs(in, pay, 2, 4);
    const std::vector<float> keys = {1, 2, 3, 4, 5, 5, 6, 7};
    const std::vector<float> good_pay = {1, 3, 0, 2, 6, 5, 7, 4};  // ties swapped: fine
    expect("pairs with tied keys in either order pass",
           pairs_match(keys, good_pay, pref, 2, 4), true);
    std::vector<float> dropped = good_pay;
    dropped[5] = dropped[4];  // payload 5 dropped, payload 6 duplicated
    expect("dropped payload pair is caught", pairs_match(keys, dropped, pref, 2, 4), false);
    std::vector<float> unsorted_keys = keys;
    std::swap(unsorted_keys[0], unsorted_keys[1]);
    expect("unsorted pair keys are caught",
           pairs_match(unsorted_keys, good_pay, pref, 2, 4), false);

    Tally t;
    t.add(/*status_ok=*/true, /*output_ok=*/true);
    t.add(/*status_ok=*/false, /*output_ok=*/true);  // e.g. Rejected / Failed
    expect("non-Ok status counts as failed", t.failed == 1 && t.correct(), true);
    t.add(/*status_ok=*/true, /*output_ok=*/false);
    expect("wrong output fails and marks run incorrect", t.failed == 2 && !t.correct(), true);
    return bad;
}

}  // namespace gasbench
