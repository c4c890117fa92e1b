// T3a — Theorem 3, radius sweep: flooding time vs R in the standard case
// L = sqrt(n), v = R/(3(1+sqrt5)). The paper's bound O(L/R + S/v) is
// decreasing in R; measured times must decrease and stay under the envelope
// 18 L/R + 30 S/v (the paper's own suburb constant is 590 — see DESIGN.md).
//
// The c1-sweep is a declarative engine::sweep_spec fanned over all cores;
// S comes from the sweep rows (every replica reports the partition).
// Knobs: --n=32000 --reps=3 --seed=1 --threads=0 --csv=FILE --json=FILE
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/scenario.h"
#include "engine/sweep.h"
#include "stats/summary.h"

using namespace manhattan;

namespace {

int run(const util::cli_args& args) {
    const auto n = static_cast<std::size_t>(args.get_int("n", 32'000));
    const std::size_t reps = bench::replicas(args, 3);
    const auto seed0 = static_cast<std::uint64_t>(args.get_int("seed", 1));

    bench::banner("T3a", "Theorem 3: flooding time vs transmission radius R");

    engine::sweep_spec spec;
    spec.base.source = core::source_placement::center_most;
    spec.base.seed = seed0;
    spec.base.max_steps = 500'000;
    spec.repetitions = reps;
    spec.n = {n};
    spec.c1 = {1.5, 2.0, 2.5, 3.0, 4.0, 6.0};
    spec.speed_factor = {1.0};
    bench::apply_source(args, spec.base);  // --source= overrides center_most
    bench::apply_topology(args, spec);  // --topology= street-plan axes

    engine::memory_sink memory;
    bench::sweep_harness harness(args);
    harness.run(spec, memory);

    util::table t({"c1", "R", "v", "mean T", "sd", "L/R", "S/v", "18L/R + 30 S/v", "T ok"});
    std::vector<double> means;
    bool under_envelope = true;
    for (std::size_t i = 0; i < memory.rows().size(); ++i) {
        const auto& row = memory.rows()[i];
        const auto& p = row.point.sc.params;
        const double envelope = core::paper::central_zone_flood_bound(p.side, p.radius) +
                                30.0 * row.suburb_diameter / p.speed;
        const bool ok = row.summary.max <= envelope;
        under_envelope = under_envelope && ok;
        means.push_back(row.summary.mean);
        t.add_row({util::fmt(spec.c1[i]), util::fmt(p.radius), util::fmt(p.speed),
                   util::fmt(row.summary.mean), util::fmt(row.summary.stddev),
                   util::fmt(p.side / p.radius), util::fmt(row.suburb_diameter / p.speed),
                   util::fmt(envelope), util::fmt_bool(ok)});
    }
    std::printf("%s", t.markdown().c_str());

    bool decreasing = true;
    for (std::size_t i = 1; i < means.size(); ++i) {
        decreasing = decreasing && means[i] <= means[i - 1] + 1.5;
    }
    bench::verdict(decreasing && under_envelope,
                   "flooding time decreases in R and stays under the Theorem 3 envelope");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    return manhattan::bench::guarded_main(argc, argv, run);
}
