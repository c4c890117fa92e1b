// T3b — Theorem 3, speed sweep: flooding time vs v at fixed small R, in the
// regime where the Suburb is genuinely sparse (n = 1e5, c1 = 1.2; see the
// calibration in EXPERIMENTS.md). The paper predicts
//     T ~ O(L/R) + O(S/v):
// the Central-Zone informing time must be flat in v while the total time's
// suburb tail grows like 1/v (affine fit against 1/v must be strong).
//
// The v-sweep is a declarative engine::sweep_spec fanned over all cores; the
// CZ informing step comes from the sweep rows' mean_cz_step aggregate.
// Knobs: --n=100000 --c1=1.2 --reps=2 --seed=1 --threads=0 --csv= --json=
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/scenario.h"
#include "engine/sweep.h"
#include "stats/fit.h"
#include "stats/summary.h"

using namespace manhattan;

namespace {

int run(const util::cli_args& args) {
    const auto n = static_cast<std::size_t>(args.get_int("n", 100'000));
    const double c1 = args.get_double("c1", 1.2);
    const std::size_t reps = bench::replicas(args, 2);
    const auto seed0 = static_cast<std::uint64_t>(args.get_int("seed", 1));

    bench::banner("T3b", "Theorem 3: flooding time vs agent speed v (suburb term)");

    const core::net_params base = bench::standard_params(n, c1, 0.0);
    const double v_max = bench::default_speed(base.radius);

    engine::sweep_spec spec;
    spec.base.source = core::source_placement::center_most;
    spec.base.seed = seed0;
    spec.base.max_steps = 500'000;
    spec.repetitions = reps;
    spec.n = {n};
    spec.c1 = {c1};
    spec.speed = {v_max, 0.2, 0.1, 0.05, 0.02};
    bench::apply_source(args, spec.base);  // --source= overrides center_most
    bench::apply_topology(args, spec);  // --topology= street-plan axes

    engine::memory_sink memory;
    bench::sweep_harness harness(args);
    harness.run(spec, memory);

    util::table t({"v", "mean T", "cz T", "suburb tail (T - czT)", "1/v"});
    std::vector<double> inv_v;
    std::vector<double> tails;
    std::vector<double> cz_times;
    for (const auto& row : memory.rows()) {
        const double v = row.point.sc.params.speed;
        const double mean_t = row.summary.mean;
        const double mean_cz = row.mean_cz_step.value_or(0.0);
        const double tail = mean_t - mean_cz;
        inv_v.push_back(1.0 / v);
        tails.push_back(tail);
        cz_times.push_back(mean_cz);
        t.add_row({util::fmt(v), util::fmt(mean_t), util::fmt(mean_cz), util::fmt(tail),
                   util::fmt(1.0 / v)});
    }
    std::printf("%s", t.markdown().c_str());

    const auto fit = stats::linear_fit(inv_v, tails);
    const auto cz = stats::summarize(cz_times);
    std::printf("\nsuburb tail ~ %s + %s * (1/v), r2 = %s  (Theorem 3 slope ~ S)\n",
                util::fmt(fit.intercept).c_str(), util::fmt(fit.slope).c_str(),
                util::fmt(fit.r2).c_str());
    std::printf("central-zone time: min %s, max %s (paper: independent of v)\n",
                util::fmt(cz.min).c_str(), util::fmt(cz.max).c_str());

    const bool cz_flat = cz.max <= 2.0 * cz.min + 2.0;
    const bool tail_grows = tails.back() > tails.front();
    bench::verdict(cz_flat && tail_grows && fit.r2 > 0.7 && fit.slope > 0.0,
                   "CZ time flat in v; suburb tail affine in 1/v with positive slope");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    return manhattan::bench::guarded_main(argc, argv, run);
}
