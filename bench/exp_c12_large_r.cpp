// C12 — Corollary 12: when R >= (1+sqrt5)/2 * L (3 ln n / n)^{1/3} the Suburb
// is empty and the *overall* flooding time is at most 18 L/R. We verify both
// the premise (suburb cell count = 0 at/above the threshold radius) and the
// conclusion, and show the contrast just below the threshold.
//
// One engine::sweep_spec per n (the radius axis is n-dependent), fanned over
// all cores. Knobs: --reps=3 --seed=1 --threads=0 --csv=F --json=F
#include <cstdio>

#include "bench_common.h"
#include "core/cell_partition.h"
#include "core/scenario.h"
#include "engine/sweep.h"

using namespace manhattan;

namespace {

int run(const util::cli_args& args) {
    const std::size_t reps = bench::replicas(args, 3);
    const auto seed0 = static_cast<std::uint64_t>(args.get_int("seed", 1));

    bench::banner("C12", "Corollary 12: large R empties the Suburb; flooding <= 18 L/R");

    bench::sweep_harness harness(args);  // one manifest per n sweep
    const double factors[] = {0.45, 1.0, 1.3};

    util::table t({"n", "R / threshold", "R", "suburb cells", "max T", "18 L/R", "ok"});
    bool all_ok = true;
    for (const std::size_t n : {4000u, 16'000u, 64'000u}) {
        const double side = std::sqrt(static_cast<double>(n));
        const double threshold = core::paper::large_radius_threshold(side, n);

        engine::sweep_spec spec;
        spec.base.params = {n, side, threshold, 0.0};
        spec.base.seed = seed0;
        spec.base.max_steps = 200'000;
        spec.repetitions = reps;
        spec.standard_case = false;  // side fixed by hand above
        for (const double factor : factors) {
            spec.radius.push_back(factor * threshold);
        }
        spec.speed_factor = {1.0};  // v = paper::speed_bound(R) per point
        bench::apply_source(args, spec.base);  // --source= overrides the default
        bench::apply_topology(args, spec);  // --topology= street-plan axes

        engine::memory_sink memory;
        harness.run(spec, memory);

        for (const auto& row : memory.rows()) {
            const double radius = row.point.sc.params.radius;
            const double factor = radius / threshold;  // recover the swept factor
            std::size_t suburb_cells = 0;
            try {
                suburb_cells = core::cell_partition(n, side, radius).suburb_cell_count();
            } catch (const std::invalid_argument&) {
                suburb_cells = 0;  // out of Ineq. 6 regime: no partition, R huge
            }
            const double bound = core::paper::central_zone_flood_bound(side, radius);
            // The corollary only speaks for factor >= 1.
            const bool ok =
                factor < 1.0 || (suburb_cells == 0 && row.summary.max <= bound);
            all_ok = all_ok && ok;
            t.add_row({util::fmt(n), util::fmt(factor), util::fmt(radius),
                       util::fmt(suburb_cells), util::fmt(row.summary.max),
                       util::fmt(bound), util::fmt_bool(ok)});
        }
    }
    std::printf("%s", t.markdown().c_str());
    bench::verdict(all_ok,
                   "at or above the Corollary 12 radius the Suburb is empty and total "
                   "flooding meets the 18 L/R bound");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    return manhattan::bench::guarded_main(argc, argv, run);
}
