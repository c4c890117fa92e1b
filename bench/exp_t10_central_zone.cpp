// T10 — Theorem 10: from a Central-Zone source, every Central-Zone cell is
// informed within 18 L / R steps. We measure the CZ informing step for
// center- and corner-seeded floods across n and c1 and report the ratio to
// the bound (must be < 1 everywhere; typically far below).
//
// One engine::sweep_spec per source placement over the (n, c1) grid; the
// worst CZ step per point comes from sweep_row::max_cz_step.
// Knobs: --reps=2 --seed=1 --threads=0 --csv=F --json=F
#include <cstdio>

#include "bench_common.h"
#include "core/scenario.h"
#include "engine/sweep.h"

using namespace manhattan;

namespace {

int run(const util::cli_args& args) {
    const std::size_t reps = bench::replicas(args, 2);
    const auto seed0 = static_cast<std::uint64_t>(args.get_int("seed", 1));

    bench::banner("T10", "Theorem 10: Central Zone informed within 18 L/R");

    engine::sweep_spec spec;
    spec.base.seed = seed0;
    spec.base.max_steps = 200'000;
    spec.repetitions = reps;
    spec.n = {4000, 16'000, 64'000};
    spec.c1 = {3.0, 4.0};
    spec.speed_factor = {1.0};

    bench::sweep_harness harness(args);  // one manifest per placement sweep

    // --source= collapses the center/corner contrast to one pinned placement.
    const auto placements = bench::source_contrast(
        args, {core::source_placement::center_most, core::source_placement::corner_most});

    util::table t({"n", "c1", "source", "max cz step", "18 L/R", "ratio", "ok"});
    bool all_ok = true;
    for (const auto placement : placements) {
        spec.base.source = placement;
        engine::memory_sink memory;
        harness.run(spec, memory);
        for (const auto& row : memory.rows()) {
            const auto& p = row.point.sc.params;
            // A replica whose CZ never filled reports loudly.
            const double worst =
                row.cz_fraction >= 1.0 && row.max_cz_step ? *row.max_cz_step : 1e18;
            const double bound = core::paper::central_zone_flood_bound(p.side, p.radius);
            const bool ok = worst <= bound;
            all_ok = all_ok && ok;
            t.add_row({util::fmt(p.n), util::fmt(p.radius / std::sqrt(std::log(
                                           static_cast<double>(p.n)))),
                       bench::placement_name(placement),
                       util::fmt(worst), util::fmt(bound), util::fmt(worst / bound),
                       util::fmt_bool(ok)});
        }
    }
    std::printf("%s", t.markdown().c_str());
    bench::verdict(all_ok, "every configuration informs the whole Central Zone within 18 L/R");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    return manhattan::bench::guarded_main(argc, argv, run);
}
