// ABL — ablations over the design choices DESIGN.md calls out:
//   (1) propagation semantics: one hop per step (the paper's protocol) vs
//       whole-component per step — bounds the cost of the conservative model;
//   (2) cell side within Ineq. 6: smallest admissible m vs larger m — the
//       partition is an analysis device; flooding itself must be unaffected,
//       only S (the bound) changes;
//   (3) perfect stationary start vs uniform start with/without warm-up —
//       quantifies what "stationary phase" buys;
//   (4) informing radius R vs the meeting radius (3/4) R of the Suburb
//       analysis — the protocol constant the proof gives away;
//   (5) gossip forwarding probability p: the one_hop protocol is the p = 1
//       end of a p-sweep; lossy forwarding can only slow the spread.
//
// (1) and (5) run as declarative engine sweeps; every replica batch fans
// over all cores. Knobs: --n=16000 --c1=3 --reps=3 --seed=1 --threads=0
#include <cstdio>

#include "bench_common.h"
#include "core/cell_partition.h"
#include "core/scenario.h"
#include "engine/sweep.h"
#include "stats/summary.h"

using namespace manhattan;

namespace {

double mean_time(const core::scenario& sc, std::size_t reps,
                 const engine::run_options& opts) {
    return stats::summarize(engine::flooding_times(sc, reps, opts)).mean;
}

}  // namespace

namespace {

int run(const util::cli_args& args) {
    const auto n = static_cast<std::size_t>(args.get_int("n", 16'000));
    const double c1 = args.get_double("c1", 3.0);
    const std::size_t reps = bench::replicas(args, 3);
    const auto seed0 = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const auto opts = bench::engine_options(args);

    bench::banner("ABL", "ablations: protocol semantics, cell side, start law, radius, gossip");

    core::scenario base;
    base.params = bench::standard_params(n, c1, 0.0);
    base.params.speed = bench::default_speed(base.params.radius);
    base.seed = seed0;
    base.max_steps = 500'000;
    bench::apply_source(args, base);  // --source= applies to every ablation

    util::table t({"ablation", "variant", "mean T", "note"});

    // One harness spans both engine sweeps below, so --csv/--json capture
    // the propagation AND gossip rows in a single file. --resume= gives each
    // sweep its own manifest (PATH, PATH.2).
    bench::sweep_harness harness(args);

    // (1) propagation semantics, as a mode-axis sweep.
    engine::sweep_spec prop_spec;
    prop_spec.base = base;
    prop_spec.repetitions = reps;
    prop_spec.mode = {core::propagation::one_hop, core::propagation::per_component};
    engine::memory_sink prop_rows;
    harness.run(prop_spec, prop_rows);
    const double one_hop = prop_rows.rows()[0].summary.mean;
    const double per_component = prop_rows.rows()[1].summary.mean;
    t.add_row({"propagation", "one hop (paper)", util::fmt(one_hop), "reference"});
    t.add_row({"propagation", "per component", util::fmt(per_component),
               "lower bound on any per-step semantics"});

    // (2) cell side choice: S under the smallest vs largest admissible m.
    {
        const double side = base.params.side;
        const double radius = base.params.radius;
        const auto m_min = core::cell_partition::choose_cells_per_side(side, radius);
        const auto m_max = static_cast<std::int32_t>(
            std::floor(core::paper::one_plus_sqrt5 * side / radius));
        const core::cell_partition small_m(n, side, radius);
        t.add_row({"cell side", "m = " + util::fmt(m_min) + " (l = R/sqrt5 end)",
                   util::fmt(small_m.suburb_diameter()), "S bound; flooding unchanged"});
        if (m_max > m_min) {
            // Larger m -> smaller l. S ~ 1/l^2 grows: the bound degrades while
            // the protocol is untouched. Rebuild via threshold on the same grid
            // geometry by constructing with an equivalent radius.
            const double equiv_radius = core::paper::sqrt5 * side / m_max;
            const core::cell_partition large_m(n, side, equiv_radius);
            t.add_row({"cell side", "m = " + util::fmt(m_max) + " (l = R/(1+sqrt5) end)",
                       util::fmt(large_m.suburb_diameter()), "same protocol, looser S"});
        }
    }

    // (3) start law.
    core::scenario cold = base;
    cold.stationary_start = false;
    const double uniform_start = mean_time(cold, reps, opts);
    core::scenario warmed = cold;
    warmed.warmup_time = 5.0 * base.params.side / base.params.speed / 4.0;
    const double warmed_start = mean_time(warmed, reps, opts);
    t.add_row({"start law", "perfect sample (paper)", util::fmt(one_hop), "reference"});
    t.add_row({"start law", "uniform, no warm-up", util::fmt(uniform_start),
               "pre-stationary snapshot"});
    t.add_row({"start law", "uniform + warm-up", util::fmt(warmed_start),
               "converges to reference"});

    // (4) informing radius R vs (3/4) R.
    core::scenario meeting = base;
    meeting.params.radius = core::paper::meeting_radius(base.params.radius);
    meeting.params.speed = base.params.speed;  // keep v fixed: isolate the radius
    const double meeting_t = mean_time(meeting, reps, opts);
    t.add_row({"radius", "R (protocol)", util::fmt(one_hop), "reference"});
    t.add_row({"radius", "(3/4) R (meeting radius)", util::fmt(meeting_t),
               "the slack Lemma 16's analysis gives away"});

    // (5) gossip forwarding probability, as a gossip_p-axis sweep. Replicas
    // share walker trajectories with the reference (same seeds), so dropped
    // transmissions can only delay informing times: T(p) >= T(1) = one_hop.
    engine::sweep_spec gossip_spec;
    gossip_spec.base = base;
    gossip_spec.repetitions = reps;
    gossip_spec.gossip_p = {1.0, 0.5, 0.25};
    engine::memory_sink gossip_rows;
    harness.run(gossip_spec, gossip_rows);
    for (const auto& row : gossip_rows.rows()) {
        const double p = row.point.sc.gossip_p;
        t.add_row({"gossip", "p = " + util::fmt(p), util::fmt(row.summary.mean),
                   p == 1.0 ? "must equal one hop exactly" : "lossy forwarding"});
    }
    const double gossip_full = gossip_rows.rows()[0].summary.mean;
    const double gossip_half = gossip_rows.rows()[1].summary.mean;
    const double gossip_quarter = gossip_rows.rows()[2].summary.mean;

    std::printf("%s", t.markdown().c_str());
    bench::verdict(per_component <= one_hop && meeting_t >= one_hop &&
                       gossip_full == one_hop && gossip_half >= one_hop &&
                       gossip_quarter >= one_hop,
                   "component-flooding lower-bounds the protocol; shrinking R to the "
                   "meeting radius or dropping transmissions only slows flooding");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    return manhattan::bench::guarded_main(argc, argv, run);
}
