// MS — multi-source workloads: flooding time as a function of the source
// count k. The paper floods from one agent; evacuation-style dissemination
// (arXiv:2004.00709) and k-source urban broadcast motivate asking how much
// each extra simultaneous source buys. The sweep is one engine::sweep_spec
// over the num_sources axis: each grid point floods the same mobility traces
// from k sources (agents drawn per the --source= rule, default a uniform
// random k-subset) and the standard CSV/JSON sinks carry the table.
//
// Expectation: T(k) is non-increasing in k, with diminishing returns — the
// L/R "wave expansion" term of Theorem 3 shrinks like the distance from the
// nearest source, but the Suburb rescue term S/v is source-count-agnostic
// once any source's wave reaches the Central Zone.
//
// Knobs: --n=16000 --c1=3 --sources=1,2,4,8,16 --reps=3 --seed=1
//        --threads=0 --source=random --csv=FILE --json=FILE
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/scenario.h"
#include "engine/sweep.h"
#include "util/cli.h"
#include "util/table.h"

using namespace manhattan;

namespace {

int run(const util::cli_args& args) {
    const auto n = static_cast<std::size_t>(args.get_int("n", 16'000));
    const double c1 = args.get_double("c1", 3.0);
    const std::size_t reps = bench::replicas(args, 3);
    const auto seed0 = static_cast<std::uint64_t>(args.get_int("seed", 1));
    std::vector<std::size_t> counts;
    for (const long long k : bench::parse_list("sources", args.get_string("sources", "1,2,4,8,16"))) {
        if (k <= 0) {
            throw std::invalid_argument("--sources: counts must be positive");
        }
        counts.push_back(static_cast<std::size_t>(k));
    }

    bench::banner("MS", "flooding time vs source count (multi-source spread workload)");

    engine::sweep_spec spec;
    spec.base.seed = seed0;
    spec.base.max_steps = 500'000;
    spec.repetitions = reps;
    spec.n = {n};
    spec.c1 = {c1};
    spec.speed_factor = {1.0};
    spec.num_sources = counts;
    bench::apply_source(args, spec.base);
    bench::apply_topology(args, spec);  // --topology= street-plan axes

    engine::memory_sink memory;
    bench::sweep_harness harness(args);
    harness.run(spec, memory);

    util::table t({"sources k", "mean T", "sd", "95% CI", "T(k)/T(1)", "done"});
    double t1 = 0.0;
    bool non_increasing = true;
    bool all_completed = true;
    double prev = 0.0;
    for (std::size_t i = 0; i < memory.rows().size(); ++i) {
        const auto& row = memory.rows()[i];
        const double mean = row.summary.mean;
        if (i == 0) {
            t1 = mean;
        } else {
            // Tolerate bootstrap-level noise: a later point may sit a hair
            // above its predecessor, never above it by more than 10%.
            non_increasing = non_increasing && mean <= prev * 1.10;
        }
        prev = mean;
        all_completed = all_completed && row.completed_fraction == 1.0;
        t.add_row({util::fmt(counts[i]), util::fmt(mean), util::fmt(row.summary.stddev),
                   "[" + util::fmt(row.mean_ci.lo) + ", " + util::fmt(row.mean_ci.hi) + "]",
                   t1 > 0.0 ? util::fmt(mean / t1) : "-",
                   util::fmt(row.completed_fraction)});
    }
    std::printf("%s", t.markdown().c_str());

    const double last = memory.rows().empty() ? 0.0 : memory.rows().back().summary.mean;
    bench::verdict(all_completed && non_increasing && (counts.size() < 2 || last <= t1),
                   "flooding time is non-increasing in the source count (extra "
                   "simultaneous sources never slow the spread)");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    return manhattan::bench::guarded_main(argc, argv, run);
}
