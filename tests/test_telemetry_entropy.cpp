#include "telemetry/entropy_monitor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/pipeline_metrics.h"
#include "stream/generators.h"

namespace freq::telemetry {
namespace {

double exact_entropy(const std::unordered_map<std::uint64_t, double>& weights) {
    double n = 0.0;
    for (const auto& [id, w] : weights) n += w;
    if (!(n > 0.0)) return 0.0;
    double h = 0.0;
    for (const auto& [id, w] : weights) {
        if (w > 0.0) {
            const double p = w / n;
            h -= p * std::log2(p);
        }
    }
    return h;
}

TEST(TelemetryEntropy, IntervalContainsExactOnZipfStreams) {
    // Acceptance criterion: on Zipf streams across a range of skews the
    // certified interval always contains the exact empirical entropy.
    for (const double alpha : {1.0, 1.2, 1.5, 2.0}) {
        zipf_stream_generator gen({.num_updates = 200'000,
                                   .num_distinct = 50'000,
                                   .alpha = alpha,
                                   .min_weight = 1,
                                   .max_weight = 1,
                                   .seed = 13});
        const auto stream = gen.generate();
        std::unordered_map<std::uint64_t, double> exact;
        entropy_monitor mon(entropy_monitor_config{
            .max_counters = 1024, .seed = 7, .shards = 2});
        for (const auto& u : stream) {
            exact[u.id] += static_cast<double>(u.weight);
            mon.update(u.id, static_cast<double>(u.weight));
        }
        mon.flush();

        const double h = exact_entropy(exact);
        const entropy_interval iv = mon.estimate();
        EXPECT_LE(iv.lower, h + 1e-9) << "alpha=" << alpha;
        EXPECT_GE(iv.upper, h - 1e-9) << "alpha=" << alpha;
        EXPECT_LE(iv.lower, iv.point) << "alpha=" << alpha;
        EXPECT_GE(iv.upper, iv.point) << "alpha=" << alpha;
        EXPECT_GT(iv.upper, 0.0) << "alpha=" << alpha;
        // Skewed streams put most mass on tracked keys, so the residual
        // bracket is tight enough to be informative.
        if (alpha >= 1.5) {
            EXPECT_LT(iv.upper - iv.lower, 8.0) << "alpha=" << alpha;
            EXPECT_NEAR(iv.point, h, 3.0) << "alpha=" << alpha;
        }
    }
}

TEST(TelemetryEntropy, ExactWhenNothingEvicted) {
    // Fewer distinct keys than counters: zero sketch error, zero residual —
    // the interval collapses onto the exact entropy.
    entropy_monitor mon(entropy_monitor_config{.max_counters = 1024, .seed = 3});
    std::unordered_map<std::uint64_t, double> exact;
    for (std::uint64_t i = 0; i < 500; ++i) {
        const double w = static_cast<double>(1 + i % 7);
        mon.update(i * 2'654'435'761ULL, w);
        exact[i * 2'654'435'761ULL] += w;
    }
    mon.flush();
    const double h = exact_entropy(exact);
    const entropy_interval iv = mon.estimate();
    EXPECT_NEAR(iv.lower, h, 1e-9);
    EXPECT_NEAR(iv.upper, h, 1e-9);
    EXPECT_NEAR(iv.point, h, 1e-9);
}

TEST(TelemetryEntropy, EmptyStreamIsZero) {
    entropy_monitor mon(entropy_monitor_config{.max_counters = 64});
    const entropy_interval iv = mon.estimate();
    EXPECT_EQ(iv.lower, 0.0);
    EXPECT_EQ(iv.upper, 0.0);
    EXPECT_EQ(iv.point, 0.0);
}

TEST(TelemetryEntropy, SingleItemHasZeroEntropy) {
    entropy_monitor mon(entropy_monitor_config{.max_counters = 64});
    for (int i = 0; i < 1000; ++i) {
        mon.update(42, 10.0);
    }
    mon.flush();
    const entropy_interval iv = mon.estimate();
    EXPECT_NEAR(iv.point, 0.0, 1e-9);
    EXPECT_NEAR(iv.upper, 0.0, 1e-9);
}

TEST(TelemetryEntropy, UniformOverUItemsIsLogU) {
    entropy_monitor mon(entropy_monitor_config{.max_counters = 512});
    for (int round = 0; round < 50; ++round) {
        for (std::uint64_t id = 0; id < 256; ++id) {
            mon.update(id);
        }
    }
    mon.flush();
    EXPECT_NEAR(mon.estimate().point, 8.0, 1e-6);  // log2(256)
}

TEST(TelemetryEntropy, SkewReducesEntropy) {
    auto point = [](double alpha) {
        zipf_stream_generator gen({.num_updates = 100'000,
                                   .num_distinct = 10'000,
                                   .alpha = alpha,
                                   .min_weight = 1,
                                   .max_weight = 1,
                                   .seed = 9});
        entropy_monitor mon(entropy_monitor_config{.max_counters = 256});
        for (const auto& u : gen.generate()) {
            mon.update(u.id, static_cast<double>(u.weight));
        }
        mon.flush();
        return mon.estimate().point;
    };
    EXPECT_GT(point(0.5), point(2.0));
}

TEST(TelemetryEntropy, IntervalContainsExactUnderFading) {
    // The generalized residual bound must stay certified when the summary
    // fades: the reference is a full-fidelity decayed histogram (decay 0.5
    // is exact in binary floating point), checked after every window.
    constexpr double decay = 0.5;
    entropy_monitor mon(entropy_monitor_config{
        .max_counters = 1024,
        .seed = 5,
        .shards = 2,
        .lifetime = lifetime_kind::fading,
        .decay = decay});
    std::unordered_map<std::uint64_t, double> exact;
    zipf_stream_generator gen({.num_updates = 100'000,
                               .num_distinct = 5'000,
                               .alpha = 1.2,
                               .min_weight = 1,
                               .max_weight = 1,
                               .seed = 17});
    const auto stream = gen.generate();
    constexpr std::size_t window = 20'000;
    for (std::size_t start = 0; start < stream.size(); start += window) {
        for (std::size_t i = start; i < start + window && i < stream.size(); ++i) {
            mon.update(stream[i].id, 1.0);
            exact[stream[i].id] += 1.0;
        }
        mon.flush();
        const double h = exact_entropy(exact);
        const entropy_interval iv = mon.estimate();
        EXPECT_LE(iv.lower, h + 1e-6) << "window at " << start;
        EXPECT_GE(iv.upper, h - 1e-6) << "window at " << start;

        mon.tick();
        for (auto& [id, w] : exact) w *= decay;
    }
}

TEST(TelemetryEntropy, CollapseAlarmOnConcentration) {
    // Uniform traffic trains the baseline near log2(1000) bits; a single
    // dominant flow (the DDoS signature) then drags the point estimate down
    // and must raise `collapse`.
    entropy_monitor mon(entropy_monitor_config{.max_counters = 2048,
                                               .seed = 9,
                                               .collapse_threshold_bits = 1.0,
                                               .spike_threshold_bits = 1.0,
                                               .warmup_samples = 3});
    for (int w = 0; w < 3; ++w) {
        for (int i = 0; i < 20'000; ++i) {
            mon.update(static_cast<std::uint64_t>(i % 1'000) * 40'503u + 11u);
        }
        mon.flush();
        const entropy_observation o = mon.observe();
        EXPECT_EQ(o.alarm, entropy_alarm::none) << "warmup window " << w;
    }
    EXPECT_NEAR(mon.baseline(), std::log2(1'000.0), 0.5);

#ifndef FREQ_OBS_OFF
    const std::uint64_t alarms_before = obs::pipeline().entropy_alarms.value();
#endif
    for (int i = 0; i < 400'000; ++i) {
        mon.update(0xbadc0ffee0ddf00dULL);
    }
    mon.flush();
    const entropy_observation o = mon.observe();
    EXPECT_EQ(o.alarm, entropy_alarm::collapse);
    EXPECT_LT(o.interval.point, o.baseline - 1.0);
#ifndef FREQ_OBS_OFF
    EXPECT_EQ(obs::pipeline().entropy_alarms.value(), alarms_before + 1);
#endif
}

TEST(TelemetryEntropy, SpikeAlarmOnScatter) {
    // The mirror image: a near-degenerate distribution (entropy ~ 0) that
    // suddenly scatters across many addresses must raise `spike`.
    entropy_monitor mon(entropy_monitor_config{.max_counters = 1024,
                                               .seed = 10,
                                               .spike_threshold_bits = 1.0,
                                               .warmup_samples = 2});
    for (int w = 0; w < 2; ++w) {
        for (int i = 0; i < 20'000; ++i) {
            mon.update(42);
        }
        mon.flush();
        EXPECT_EQ(mon.observe().alarm, entropy_alarm::none);
    }
    EXPECT_NEAR(mon.baseline(), 0.0, 0.1);

    zipf_stream_generator gen({.num_updates = 200'000,
                               .num_distinct = 20'000,
                               .alpha = 1.05,
                               .min_weight = 1,
                               .max_weight = 1,
                               .seed = 23});
    for (const auto& u : gen.generate()) {
        mon.update(u.id);
    }
    mon.flush();
    const entropy_observation o = mon.observe();
    EXPECT_EQ(o.alarm, entropy_alarm::spike);
    EXPECT_GT(o.interval.point, o.baseline + 1.0);
}

TEST(TelemetryEntropy, ObserveReportsPreFoldBaseline) {
    entropy_monitor mon(entropy_monitor_config{
        .max_counters = 256, .seed = 1, .ewma_alpha = 0.5, .warmup_samples = 0});
    for (int i = 0; i < 1'000; ++i) mon.update(i % 16);
    mon.flush();
    const entropy_observation first = mon.observe();
    // First sample seeds the baseline with its own point estimate.
    EXPECT_DOUBLE_EQ(first.baseline, first.interval.point);
    const double expected_baseline = mon.baseline();
    const entropy_observation second = mon.observe();
    EXPECT_DOUBLE_EQ(second.baseline, expected_baseline);
    EXPECT_EQ(mon.samples(), 2u);
}

TEST(TelemetryEntropy, ConcurrentFeedersKeepCapHonest) {
    // Two producer threads through counting feeders: the raw update count
    // (the residual distinct-key cap) and the total weight must both land
    // exactly; the interval must stay well-formed. (Runs under TSan in CI.)
    entropy_monitor mon(entropy_monitor_config{
        .max_counters = 512, .seed = 2, .shards = 2, .producers = 2});
    constexpr int per_thread = 20'000;
    auto worker = [&mon](std::uint64_t salt) {
        auto feeder = mon.make_feeder();
        for (int i = 0; i < per_thread; ++i) {
            feeder.push((static_cast<std::uint64_t>(i % 300) + 1) * salt);
        }
        feeder.flush();
    };
    std::thread t1(worker, 0x9e3779b9ULL);
    std::thread t2(worker, 0x85ebca6bULL);
    t1.join();
    t2.join();
    mon.flush();

    EXPECT_EQ(mon.raw_updates(), 2u * per_thread);
    EXPECT_EQ(mon.summary().total_weight(), 2.0 * per_thread);
    const entropy_interval iv = mon.estimate();
    EXPECT_LE(iv.lower, iv.point);
    EXPECT_LE(iv.point, iv.upper);
    EXPECT_GT(iv.upper, 0.0);
}

TEST(TelemetryEntropy, RejectsBadAlpha) {
    entropy_monitor_config bad;
    bad.ewma_alpha = 0.0;
    EXPECT_THROW(entropy_monitor{bad}, std::exception);
    bad.ewma_alpha = 1.5;
    EXPECT_THROW(entropy_monitor{bad}, std::exception);
}

}  // namespace
}  // namespace freq::telemetry
