// perfbench: the libfreq end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <x>] [--perturb-oracle] [--trace-dir <dir>] [--commit <id>]
//
// Prints what it ran and where (provenance), then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "common/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// Timings from an unoptimized or sanitized build measure the instrumentation,
// not the library: such a build refuses to run.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

const char* build_problem() {
#if !defined(__OPTIMIZE__)
    return "built without optimization";
#elif defined(PERFBENCH_SANITIZED)
    return "built with a sanitizer";
#else
    return nullptr;
#endif
}

bool obs_enabled() {
#ifdef FREQ_OBS_OFF
    return false;
#else
    return true;
#endif
}

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scale <x>] [--perturb-oracle] [--trace-dir <dir>] "
                 "[--commit <id>]\n",
                 why);
    std::exit(2);
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out;
}

long cache_bytes(int name) {
    const long v = sysconf(name);
    return v > 0 ? v : 0;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::options opt;
    std::string commit = "unknown";
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(("missing value for " + a).c_str());
            }
            return argv[++i];
        };
        if (a == "--workload") {
            opt.workload = value();
        } else if (a == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(value().c_str(), nullptr);
            have_seconds = true;
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") {
                usage("--trace takes 0 or 1");
            }
            opt.trace = v == "1";
            have_trace = true;
        } else if (a == "--scale") {
            opt.scale = std::strtod(value().c_str(), nullptr);
        } else if (a == "--perturb-oracle") {
            opt.perturb_oracle = true;
        } else if (a == "--trace-dir") {
            opt.trace_dir = value();
        } else if (a == "--commit") {
            commit = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (opt.workload.empty() || !have_seconds || !have_trace) {
        usage("--workload, --seconds and --trace are required");
    }
    if (!(opt.seconds > 0.0) || !(opt.scale > 0.0)) {
        usage("--seconds and --scale must be positive");
    }
    if (const char* problem = build_problem()) {
        std::fprintf(stderr, "perfbench: refusing to measure: %s\n", problem);
        return 3;
    }

    std::printf(
        "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
        "\"nproc\": %u, \"l1d_bytes\": %ld, \"l2_bytes\": %ld, \"l3_bytes\": %ld, "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", \"simd\": \"%s\", \"obs\": %s, "
        "\"commit\": \"%s\"}\n",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
        opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
        cache_bytes(_SC_LEVEL1_DCACHE_SIZE), cache_bytes(_SC_LEVEL2_CACHE_SIZE),
        cache_bytes(_SC_LEVEL3_CACHE_SIZE), json_escape(__VERSION__).c_str(),
        PERFBENCH_BUILD_TYPE, freq::simd::isa_name(), obs_enabled() ? "true" : "false",
        json_escape(commit).c_str());
    std::fflush(stdout);

    perfbench::tracer tr;
    perfbench::run_result result;
    try {
        result = perfbench::run_workload(opt, tr);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    for (const auto& note : result.notes) {
        std::printf("note: %s\n", note.c_str());
    }
    if (opt.trace && !opt.trace_dir.empty()) {
        const std::string path =
            opt.trace_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".jsonl";
        const auto summary = tr.write(path);
        std::printf("trace: %zu spans -> %s; self time by span:\n", tr.spans().size(),
                    path.c_str());
        for (const auto& [name, ns] : summary) {
            std::printf("trace:   %-28s %12.3f ms\n", name.c_str(), ns / 1e6);
        }
    }

    std::string metrics;
    for (const auto& m : result.metrics) {
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        char buf[128];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        if (!metrics.empty()) {
            metrics += ", ";
        }
        metrics += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    }
    const bool correct = result.failed == 0 && result.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(result.attempted, 1)),
                static_cast<unsigned long long>(result.failed), metrics.c_str());
    return 0;
}
