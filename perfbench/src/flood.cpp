// flood_1e6: serial replicas at n = 10^6, c1 = 1 (R = sqrt(ln n)), the
// paper's standard case, flooded from the centre-most agent — as many whole
// floods as fit the window, at least one. Positions are 16 MB, past the
// per-core L2 and inside L3, and every step is random-access bound — the
// workload where spatial storage, rebuild and scan kernels show. The engine
// and service layers do nothing here.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "common.h"
#include "core/cell_partition.h"
#include "core/flooding.h"
#include "flood_case.h"
#include "mobility/walker.h"
#include "util/telemetry.h"

using namespace manhattan;

namespace perfbench {

namespace {

constexpr std::size_t setup_repeats = 3;

}  // namespace

void run_flood_1e6(const options& opts, const std::string& dir, report& out) {
    (void)dir;
    const flood_case fc = make_flood_case(opts.tiny ? 20'000 : 1'000'000);
    const std::size_t n = fc.n;
    const std::optional<std::uint64_t> pin = opts.tiny ? std::nullopt : pinned_flood_steps(opts.seed);
    if (!pin && !opts.tiny) {
        std::fprintf(stderr, "perfbench: seed %llu has no pinned flood_steps (flood_case.h)\n",
                     static_cast<unsigned long long>(opts.seed));
    }

    // Telemetry (per-phase profiling) and the per-step spans are on in the
    // traced pass only; the untraced pass runs the plain run_spread loop.
    const util::telemetry::scoped_enable telemetry(opts.trace);
    std::vector<double> setup_s;
    std::vector<double> init_s;
    std::vector<double> partition_s;
    std::vector<double> steps_per_s;
    std::vector<double> replicas_per_s;
    std::vector<double> step_ms;
    util::phase_profile phases;  // summed over the floods
    std::optional<std::uint64_t> flood_steps;
    std::size_t floods = 0;
    double last_wall = 0.0;
    const auto window = clock_type::now();
    // Whole floods only: another one starts while it would end closer to
    // the window's end than stopping now would.
    for (; floods == 0 || seconds_since(window) + last_wall / 2 < opts.seconds; ++floods) {
        // Set-up: stationary walker sampling plus the cell partition. Before
        // the first flood it is repeated so its median has several samples;
        // only the last copy is kept.
        std::optional<mobility::walker> agents;
        std::unique_ptr<core::cell_partition> cells;
        for (std::size_t k = 0; k < (floods == 0 ? setup_repeats : 1); ++k) {
            agents.reset();
            cells.reset();
            const auto t0 = clock_type::now();
            agents.emplace(fc.model, n, fc.params.speed, rng::rng(opts.seed));
            init_s.push_back(seconds_since(t0));
            const auto t1 = clock_type::now();
            cells = std::make_unique<core::cell_partition>(n, fc.params.side, fc.radius);
            partition_s.push_back(seconds_since(t1));
            setup_s.push_back(seconds_since(t0));
        }

        core::flooding_sim sim(std::move(*agents), fc.radius, fc.config, cells.get());
        agents.reset();
        const auto t0 = clock_type::now();
        if (opts.trace) {
            while (!sim.all_informed() && sim.steps_taken() < fc.config.max_steps) {
                const auto ts = clock_type::now();
                (void)sim.step();
                step_ms.push_back(seconds_since(ts) * 1e3);
            }
        }
        const core::spread_result result = sim.run_spread();
        last_wall = seconds_since(t0);
        steps_per_s.push_back(static_cast<double>(result.steps) / last_wall);
        replicas_per_s.push_back(1.0 / last_wall);
        phases += sim.profile();

        // Every flood of the run repeats the same input, so each must match
        // the pin, or the first flood where the seed has no pin.
        const core::message_result& flood = result.messages.front();
        if (!flood_steps) {
            flood_steps = flood.flooding_time;
        }
        const std::uint64_t expected = pin.value_or(*flood_steps);
        const bool informed_all = result.completed && flood.informed_count == n;
        out.operation(informed_all && flood.flooding_time == expected,
                      !informed_all ? "flood did not inform all agents"
                                    : "flood_steps " + std::to_string(flood.flooding_time) +
                                          " differs from the expected " + std::to_string(expected));
    }

    out.e2e("setup_s", median(setup_s), "s");
    out.e2e("steps_per_s", median(steps_per_s), "1/s");
    out.e2e("replicas_per_s", median(replicas_per_s), "1/s");
    if (!opts.trace) {
        return;
    }

    const auto per_flood = [&](util::phase p) {
        return phases.seconds[static_cast<std::size_t>(p)] / static_cast<double>(floods);
    };
    const double advance = per_flood(util::phase::advance);
    const double rebuild = per_flood(util::phase::grid_rebuild);
    const double scan = per_flood(util::phase::scan) + per_flood(util::phase::components);
    double spans = 0.0;
    for (const double ms : step_ms) {
        spans += ms / 1e3;
    }
    spans /= static_cast<double>(floods);
    // Self-time consistency: the three phases must tile the step spans; a
    // gap means a phase of the step is unaccounted for.
    const double gap = spans > 0.0 ? 1.0 - (advance + rebuild + scan) / spans : 1.0;
    out.check(std::abs(gap) <= 0.05, "advance + rebuild + scan cover only " +
                                         std::to_string(100.0 * (1.0 - gap)) +
                                         "% of the summed step spans");
    const double steps = static_cast<double>(*flood_steps);
    out.layer("mobility.advance_s", advance, "s");
    out.layer("mobility.init_s", median(init_s), "s");
    out.layer("geom.rebuild_s", rebuild, "s");
    out.layer("geom.rebuild_gbps_computed",
              rebuild > 0.0 ? steps * static_cast<double>(n) * rebuild_bytes_per_agent / rebuild / 1e9
                            : 0.0,
              "GB/s");
    out.layer("core.scan_s", scan, "s");
    out.layer("core.step_p50_ms", quantile(step_ms, 0.5), "ms");
    out.layer("core.step_p90_ms", quantile(step_ms, 0.9), "ms");
    out.layer("core.partition_s", median(partition_s), "s");
    out.layer("core.flood_steps", steps, "count");
    out.layer("core.phase_gap_frac", gap, "frac");
}

}  // namespace perfbench
