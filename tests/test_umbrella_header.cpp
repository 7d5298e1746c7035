/// Compile-and-use check for the umbrella header: a downstream user who
/// writes `#include "freq.h"` must get every public type in working order.
/// Each block below exercises one subsystem end to end, briefly.

#include "freq.h"

#include <gtest/gtest.h>

namespace freq {
namespace {

TEST(UmbrellaHeader, CoreSketch) {
    frequent_items_sketch<std::uint64_t, std::uint64_t> s(64);
    s.update(1, 10);
    EXPECT_EQ(s.estimate(1), 10u);
}

TEST(UmbrellaHeader, MedExact) {
    med_exact_sketch<std::uint64_t, std::uint64_t> s(16);
    s.update(2, 5);
    EXPECT_EQ(s.lower_bound(2), 5u);
}

TEST(UmbrellaHeader, GenericAndStringAndSigned) {
    generic_frequent_items<std::string> g(8);
    g.update("x", 3);
    EXPECT_EQ(g.estimate("x"), 3u);

    string_frequent_items<double> str(8);
    str.update("y", 1.5);
    EXPECT_DOUBLE_EQ(str.estimate("y"), 1.5);

    signed_frequent_items<std::uint64_t, std::int64_t> sg(8);
    sg.update(3, 7);
    sg.update(3, -2);
    EXPECT_EQ(sg.estimate(3), 5);
}

TEST(UmbrellaHeader, ShardedSummarizer) {
    update_stream<std::uint64_t, std::uint64_t> stream{{1, 2}, {2, 3}, {1, 4}};
    auto s = builder().max_counters(8).sharded(2).build();
    s.update(std::span<const update64>(stream.data(), stream.size()));
    s.flush();
    EXPECT_EQ(s.total_weight(), 9.0);
}

TEST(UmbrellaHeader, Applications) {
    hhh::hierarchical_heavy_hitters h({.levels = {24}, .counters_per_level = 8});
    h.update(0x0a000001, 100);
    EXPECT_EQ(h.total_weight(), 100u);
}

TEST(UmbrellaHeader, StreamsAndMetrics) {
    zipf_stream_generator gen({.num_updates = 100, .num_distinct = 10, .seed = 1});
    exact_counter<std::uint64_t, std::uint64_t> exact;
    frequent_items_sketch<std::uint64_t, std::uint64_t> s(32);
    for (const auto& u : gen.generate()) {
        exact.update(u.id, u.weight);
        s.update(u.id, u.weight);
    }
    const auto report = evaluate_errors(s, exact);
    EXPECT_EQ(report.max_error, 0.0);  // 10 distinct items, 32 counters: exact
    EXPECT_GT(max_counters_within(1 << 20, decltype(s)::bytes_for), 0u);
}

}  // namespace
}  // namespace freq
