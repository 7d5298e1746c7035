/// Google-benchmark micro-benchmarks: per-update cost of every algorithm on
/// two stream mixes — hit-heavy (skewed Zipf: most updates increment an
/// existing counter) and miss-heavy (near-uniform: most updates hit the
/// overflow path). These are the per-operation numbers underlying Fig. 1.
///
/// Also measures the runtime façade's type-erasure cost (src/api/): the
/// same hit-heavy ingest through freq::summarizer vs the direct template
/// path, per-call and batched, recorded in BENCH_api.json with a <= 15%
/// acceptance gate on the batched path (the one the engine and any serious
/// loader uses; the per-call numbers are informational).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/builder.h"
#include "bench/bench_common.h"
#include "baselines/rbmc.h"
#include "baselines/space_saving_heap.h"
#include "baselines/stream_summary.h"
#include "core/frequent_items_sketch.h"
#include "core/string_frequent_items.h"
#include "stream/generators.h"

namespace {

using namespace freq;

bench::alloc_phase g_allocs;  // heap traffic of the whole run

update_stream<std::uint64_t, std::uint64_t> mix_stream(bool hit_heavy) {
    zipf_stream_generator gen({
        .num_updates = 1'000'000,
        .num_distinct = hit_heavy ? 10'000u : 1'000'000u,
        .alpha = hit_heavy ? 1.3 : 0.2,
        .min_weight = 1,
        .max_weight = 1'000,
        .seed = hit_heavy ? 11u : 22u,
    });
    return gen.generate();
}

const auto& stream_for(bool hit_heavy) {
    static const auto hits = mix_stream(true);
    static const auto misses = mix_stream(false);
    return hit_heavy ? hits : misses;
}

template <typename Algo, typename... Args>
void run_updates(benchmark::State& state, bool hit_heavy, Args... args) {
    const auto& stream = stream_for(hit_heavy);
    const auto k = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        Algo algo(k, args...);
        for (const auto& u : stream) {
            algo.update(u.id, u.weight);
        }
        benchmark::DoNotOptimize(algo);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(stream.size()));
}

void BM_SmedHitHeavy(benchmark::State& state) {
    const auto& stream = stream_for(true);
    const auto k = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        frequent_items_sketch<std::uint64_t, std::uint64_t> s(
            sketch_config{.max_counters = k, .seed = 1});
        s.consume(stream);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(stream.size()));
}

void BM_SmedMissHeavy(benchmark::State& state) {
    const auto& stream = stream_for(false);
    const auto k = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        frequent_items_sketch<std::uint64_t, std::uint64_t> s(
            sketch_config{.max_counters = k, .seed = 1});
        s.consume(stream);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(stream.size()));
}

void BM_MheHitHeavy(benchmark::State& state) {
    run_updates<space_saving_heap<std::uint64_t, std::uint64_t>>(state, true);
}

void BM_MheMissHeavy(benchmark::State& state) {
    run_updates<space_saving_heap<std::uint64_t, std::uint64_t>>(state, false);
}

void BM_RbmcHitHeavy(benchmark::State& state) {
    run_updates<rbmc<std::uint64_t, std::uint64_t>>(state, true);
}

void BM_SslUnitHitHeavy(benchmark::State& state) {
    // SSL takes unit updates only; feed the id sequence.
    const auto& stream = stream_for(true);
    const auto k = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        stream_summary<std::uint64_t> s(k);
        for (const auto& u : stream) {
            s.update(u.id);
        }
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(stream.size()));
}

// --- façade vs direct template path (the BENCH_api.json series) --------------

/// Direct per-call baseline: the same element-wise loop the façade's scalar
/// update erases (BM_SmedHitHeavy is the batched baseline via consume()).
void BM_DirectLoopHitHeavy(benchmark::State& state) {
    const auto& stream = stream_for(true);
    const auto k = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        frequent_items_sketch<std::uint64_t, std::uint64_t> s(
            sketch_config{.max_counters = k, .seed = 1});
        for (const auto& u : stream) {
            s.update(u.id, u.weight);
        }
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(stream.size()));
}

void BM_FacadeBatchHitHeavy(benchmark::State& state) {
    const auto& stream = stream_for(true);
    const auto k = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        auto s = builder().max_counters(k).seed(1).build();
        s.update(std::span<const update64>(stream.data(), stream.size()));
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(stream.size()));
}

void BM_FacadeLoopHitHeavy(benchmark::State& state) {
    const auto& stream = stream_for(true);
    const auto k = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        auto s = builder().max_counters(k).seed(1).build();
        for (const auto& u : stream) {
            s.update(u.id, static_cast<double>(u.weight));
        }
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(stream.size()));
}

// --- text keys: façade vs direct string sketch -------------------------------

/// Pre-built word stream so the string-construction cost stays out of the
/// measurement (both contenders see identical std::string_view keys).
const std::vector<std::pair<std::string, double>>& text_stream_for() {
    static const auto words = [] {
        const auto& ids = stream_for(true);
        std::vector<std::pair<std::string, double>> out;
        out.reserve(ids.size());
        for (const auto& u : ids) {
            // Appended, not "w" + to_string(...): gcc 12 Release reports a
            // false -Wrestrict on the short-literal concatenation here.
            std::string word = "w";
            word += std::to_string(u.id);
            out.emplace_back(std::move(word), static_cast<double>(u.weight));
        }
        return out;
    }();
    return words;
}

void BM_DirectTextLoop(benchmark::State& state) {
    const auto& words = text_stream_for();
    const auto k = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        string_frequent_items<double> s(sketch_config{.max_counters = k, .seed = 1});
        for (const auto& [word, w] : words) {
            s.update(word, w);
        }
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(words.size()));
}

void BM_FacadeTextLoop(benchmark::State& state) {
    const auto& words = text_stream_for();
    const auto k = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        auto s = builder().text_keys().real_weights().max_counters(k).seed(1).build();
        for (const auto& [word, w] : words) {
            s.update(std::string_view(word), w);
        }
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(words.size()));
}

/// Captures per-iteration wall seconds of every run so main() can compute
/// the façade/direct ratios after the normal console report.
class capture_reporter : public benchmark::ConsoleReporter {
public:
    void ReportRuns(const std::vector<Run>& runs) override {
        for (const auto& r : runs) {
            if (r.iterations > 0) {
                seconds_[r.benchmark_name()] =
                    r.real_accumulated_time / static_cast<double>(r.iterations);
            }
        }
        ConsoleReporter::ReportRuns(runs);
    }

    const std::map<std::string, double>& seconds() const { return seconds_; }

private:
    std::map<std::string, double> seconds_;
};

/// Telemetry-overhead baseline (src/obs/ instrumented vs compiled out).
/// CI runs the -DFREQ_OBS_OFF build of this binary first, then points
/// FREQ_OBS_BASELINE_JSON at the BENCH_api.json it wrote; the instrumented
/// run parses the batched-façade seconds back out of that file (the point
/// lines this same source emitted, so the sscanf format below is authoritative)
/// and self-gates the delta at <= 3%.
std::map<int, double> read_obs_baseline() {
    std::map<int, double> facade_batch_s;
    const char* path = std::getenv("FREQ_OBS_BASELINE_JSON");
    if (path == nullptr) {
        return facade_batch_s;
    }
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) {
        std::printf("[INFO] FREQ_OBS_BASELINE_JSON=%s not readable; skipping the "
                    "telemetry-overhead series\n",
                    path);
        return facade_batch_s;
    }
    char buf[1024];
    while (std::fgets(buf, sizeof(buf), f) != nullptr) {
        int k = 0;
        double direct = 0.0;
        double facade = 0.0;
        if (std::sscanf(buf,
                        " {\"k\": %d, \"direct_batch_s\": %lf, "
                        "\"facade_batch_s\": %lf",
                        &k, &direct, &facade) == 3) {
            facade_batch_s[k] = facade;
        }
    }
    std::fclose(f);
    return facade_batch_s;
}

/// Emits BENCH_api.json when both façade series and their baselines ran.
/// Under a --benchmark_filter that excludes them, nothing is written and a
/// BENCH_api.json from a previous full run is left untouched.
void write_api_json(const std::map<std::string, double>& s) {
    constexpr double gate_pct = 15.0;
    bool pass = true;
    std::string points;
    char line[512];
    for (const int k : {1024, 16384}) {
        const auto key = [&](const char* name) {
            return std::string(name) + "/" + std::to_string(k);
        };
        const auto db = s.find(key("BM_SmedHitHeavy"));
        const auto fb = s.find(key("BM_FacadeBatchHitHeavy"));
        const auto dl = s.find(key("BM_DirectLoopHitHeavy"));
        const auto fl = s.find(key("BM_FacadeLoopHitHeavy"));
        if (db == s.end() || fb == s.end() || dl == s.end() || fl == s.end()) {
            continue;
        }
        const double batch_pct = 100.0 * (fb->second - db->second) / db->second;
        const double loop_pct = 100.0 * (fl->second - dl->second) / dl->second;
        pass = pass && batch_pct <= gate_pct;
        std::snprintf(line, sizeof(line),
                      "%s\n    {\"k\": %d, \"direct_batch_s\": %.6f, "
                      "\"facade_batch_s\": %.6f, \"batch_overhead_pct\": %.2f, "
                      "\"direct_loop_s\": %.6f, \"facade_loop_s\": %.6f, "
                      "\"loop_overhead_pct\": %.2f}",
                      points.empty() ? "" : ",", k, db->second, fb->second, batch_pct,
                      dl->second, fl->second, loop_pct);
        points += line;
        std::printf("[%s] facade batched ingest overhead at k=%d: %.2f%% (gate %.0f%%; "
                    "per-call loop: %.2f%%)\n",
                    batch_pct <= gate_pct ? "PASS" : "FAIL", k, batch_pct, gate_pct,
                    loop_pct);
    }
    if (points.empty()) {
        return;
    }
    // Text-key series (informational, no gate): the façade's string update
    // erases one virtual call around the same fingerprint + dictionary work.
    std::string text_point;
    const auto dt = s.find("BM_DirectTextLoop/1024");
    const auto ft = s.find("BM_FacadeTextLoop/1024");
    if (dt != s.end() && ft != s.end()) {
        const double text_pct = 100.0 * (ft->second - dt->second) / dt->second;
        std::snprintf(line, sizeof(line),
                      ",\n  \"text\": {\"k\": 1024, \"direct_loop_s\": %.6f, "
                      "\"facade_loop_s\": %.6f, \"loop_overhead_pct\": %.2f}",
                      dt->second, ft->second, text_pct);
        text_point = line;
        std::printf("[INFO] facade text per-call overhead at k=1024: %.2f%% "
                    "(informational)\n",
                    text_pct);
    }
    // Instrumented-vs-FREQ_OBS_OFF batched-update series (src/obs/ hot-path
    // cost). Only materializes when a baseline file is supplied, i.e. on the
    // instrumented half of CI's two-build overhead step.
    std::string obs_points;
    std::string obs_accept;
    const std::map<int, double> obs_base = read_obs_baseline();
    if (!obs_base.empty()) {
        constexpr double obs_gate_pct = 3.0;
        bool obs_pass = true;
        for (const int k : {1024, 16384}) {
            const auto fb = s.find("BM_FacadeBatchHitHeavy/" + std::to_string(k));
            const auto base = obs_base.find(k);
            if (fb == s.end() || base == obs_base.end()) {
                continue;
            }
            const double pct =
                100.0 * (fb->second - base->second) / base->second;
            obs_pass = obs_pass && pct <= obs_gate_pct;
            std::snprintf(line, sizeof(line),
                          "%s\n    {\"k\": %d, \"obs_off_batch_s\": %.6f, "
                          "\"instrumented_batch_s\": %.6f, \"overhead_pct\": %.2f}",
                          obs_points.empty() ? "" : ",", k, base->second, fb->second,
                          pct);
            obs_points += line;
            std::printf("[%s] telemetry batched-update overhead at k=%d: %.2f%% "
                        "(instrumented vs FREQ_OBS_OFF, gate %.0f%%)\n",
                        pct <= obs_gate_pct ? "PASS" : "FAIL", k, pct, obs_gate_pct);
        }
        if (!obs_points.empty()) {
            obs_points = ",\n  \"obs\": [" + obs_points + "\n  ]";
            obs_accept = std::string(", \"obs_batch_overhead_le_3pct\": ") +
                         (obs_pass ? "true" : "false");
        }
    }
#ifdef FREQ_OBS_OFF
    const char* obs_off = "true";
#else
    const char* obs_off = "false";
#endif
    FILE* json = std::fopen("BENCH_api.json", "w");
    if (json == nullptr) {
        return;
    }
    std::fprintf(json,
                 "{\n  \"bench\": \"api_facade_overhead\",\n"
                 "  \"stream\": \"hit_heavy_zipf_1M\",\n  \"obs_off\": %s,\n",
                 obs_off);
    std::fprintf(json, "  ");
    g_allocs.write_json_fields(json, "");
    std::fprintf(json, ",\n");
    std::fprintf(json,
                 "  \"points\": [%s\n  ],\n"
                 "  \"acceptance\": {\"batch_overhead_le_15pct\": %s%s}%s%s\n}\n",
                 points.c_str(), pass ? "true" : "false", obs_accept.c_str(),
                 text_point.c_str(), obs_points.c_str());
    std::fclose(json);
    std::printf("wrote BENCH_api.json\n");
}

}  // namespace

BENCHMARK(BM_SmedHitHeavy)->Arg(1024)->Arg(16384)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SmedMissHeavy)->Arg(1024)->Arg(16384)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MheHitHeavy)->Arg(1024)->Arg(16384)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MheMissHeavy)->Arg(1024)->Arg(16384)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RbmcHitHeavy)->Arg(1024)->Arg(16384)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SslUnitHitHeavy)->Arg(1024)->Arg(16384)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DirectLoopHitHeavy)->Arg(1024)->Arg(16384)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FacadeBatchHitHeavy)->Arg(1024)->Arg(16384)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FacadeLoopHitHeavy)->Arg(1024)->Arg(16384)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DirectTextLoop)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FacadeTextLoop)->Arg(1024)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
    g_allocs.reset();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    capture_reporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    write_api_json(reporter.seconds());
    return 0;
}
