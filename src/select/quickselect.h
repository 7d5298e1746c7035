#ifndef FREQ_SELECT_QUICKSELECT_H
#define FREQ_SELECT_QUICKSELECT_H

/// \file quickselect.h
/// Selection of the r-th smallest / largest element of a scratch buffer, in
/// expected O(n) time, in place — Hoare's Find [Hoa61], as the standard
/// library implements it (std::nth_element).
///
/// This is the selection routine the paper relies on in three places:
///  * Algorithm 3 (MED) — exact k*-th largest counter during a decrement;
///  * Algorithm 4 (SMED) — quantile of the l sampled counters;
///  * the "Hoa61" merge baseline of §3.1/§4.5 — k-th largest counter of the
///    combined table.
/// The selected value is unique whatever the partitioning scheme; only the
/// order of the other elements depends on it.

#include <algorithm>
#include <cstddef>
#include <span>

#include "common/contracts.h"

namespace freq {

/// Rearranges \p v so that the r-th smallest element (0-based) is at index r,
/// with no larger element before it and no smaller one after it, and returns
/// it. Expected O(n); mutates the buffer.
template <typename T>
T quickselect_smallest(std::span<T> v, std::size_t r) {
    FREQ_REQUIRE(!v.empty(), "quickselect on empty range");
    FREQ_REQUIRE(r < v.size(), "quickselect rank out of range");
    const auto nth = v.begin() + static_cast<std::ptrdiff_t>(r);
    std::nth_element(v.begin(), nth, v.end());
    return *nth;
}

/// r-th largest (0-based: r = 0 is the maximum). Expected O(n); mutates \p v.
template <typename T>
T quickselect_largest(std::span<T> v, std::size_t r) {
    FREQ_REQUIRE(r < v.size(), "quickselect rank out of range");
    return quickselect_smallest(v, v.size() - 1 - r);
}

/// Quantile q in [0, 1] of the buffer: q = 0 is the minimum, q = 0.5 the
/// median, q -> 1 the maximum. Used to implement the Fig. 3 decrement-quantile
/// sweep (SMIN is q = 0, SMED is q = 0.5). Mutates \p v.
template <typename T>
T quickselect_quantile(std::span<T> v, double q) {
    FREQ_REQUIRE(!v.empty(), "quantile of empty range");
    FREQ_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
    auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
    if (rank >= v.size()) {
        rank = v.size() - 1;
    }
    return quickselect_smallest(v, rank);
}

}  // namespace freq

#endif  // FREQ_SELECT_QUICKSELECT_H
