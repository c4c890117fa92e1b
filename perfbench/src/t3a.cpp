// t3a_sweep: the paper's T3a grid (n = 32000, c1 in {1.5 .. 6}, 3 replicas
// per point, centre source) through engine::run_sweep on a 2-worker pool —
// what a user of the paper's experiments runs. Scan dominates (dense
// neighbourhoods at large R) and a c1 = 6 replica costs several c1 = 1.5
// ones, so replica fan-out tail and imbalance show here. The traced pass
// also runs the fabric and service layer probes (fabric_probe.cpp,
// service_probe.cpp), which build on the same engine.
#include <fstream>
#include <memory>
#include <stdexcept>

#include "common.h"
#include "core/cell_partition.h"
#include "core/params.h"
#include "engine/sink.h"
#include "engine/thread_pool.h"
#include "engine/trace_sink.h"
#include "mobility/factory.h"
#include "mobility/walker.h"
#include "service/wire.h"
#include "util/telemetry.h"

using namespace manhattan;

namespace perfbench {

namespace {

constexpr std::size_t workers = 2;
constexpr std::size_t setup_repeats = 5;

/// The T3a verdict of bench/exp_t3_vs_r: mean flooding time decreases in R
/// (within 1.5 steps) and every replica stays under 18 L/R + 30 S/v.
bool t3a_verdict(const std::vector<engine::sweep_row>& rows) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const core::net_params& p = rows[i].point.sc.params;
        const double envelope = core::paper::central_zone_flood_bound(p.side, p.radius) +
                                30.0 * rows[i].suburb_diameter / p.speed;
        if (rows[i].summary.max > envelope ||
            (i > 0 && rows[i].summary.mean > rows[i - 1].summary.mean + 1.5)) {
            return false;
        }
    }
    return !rows.empty();
}

/// Per-phase seconds of every sweep_end event in a trace file, in order.
std::vector<util::phase_profile> sweep_phases(const std::string& path) {
    std::vector<util::phase_profile> out;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
        const service::json_value event = service::parse_json(line);
        if (service::str_field(event, "event") != "sweep_end") {
            continue;
        }
        const service::json_value& phases = service::require(event, "phases");
        util::phase_profile profile;
        for (std::size_t p = 0; p < util::phase_count; ++p) {
            const std::string key = std::string(util::phase_name(static_cast<util::phase>(p))) + "_s";
            const service::json_value& v = service::require(phases, key);
            profile.seconds[p] = v.what == service::json_value::kind::integer
                                     ? static_cast<double>(v.whole)
                                     : v.real;
        }
        profile.calls[0] = service::u64_field(phases, "steps");
        out.push_back(profile);
    }
    return out;
}

}  // namespace

void run_t3a_sweep(const options& opts, const std::string& dir, report& out) {
    const std::size_t n = opts.tiny ? 2'000 : 32'000;
    const engine::sweep_spec spec = t3a_spec(n, 3, opts.seed);

    // Set-up: the worker pool, the grid expansion, and the per-replica set-up
    // run_scenario repeats inside every replica (stationary walker sampling
    // plus the cell partition), once per grid point.
    std::vector<double> setup_s;
    std::unique_ptr<engine::thread_pool> pool;
    std::vector<engine::sweep_point> points;
    for (std::size_t k = 0; k < setup_repeats; ++k) {
        pool.reset();
        const auto t0 = clock_type::now();
        pool = std::make_unique<engine::thread_pool>(workers);
        points = spec.expand();
        for (const engine::sweep_point& pt : points) {
            const core::scenario& sc = pt.sc;
            const auto model = mobility::make_model(sc.model, sc.topology, sc.params.side, sc.model_opts);
            const mobility::walker agents(model, sc.params.n, sc.params.speed, rng::rng(sc.seed));
            const core::cell_partition cells(sc.params.n, sc.params.side, sc.params.radius);
        }
        setup_s.push_back(seconds_since(t0));
    }
    engine::run_options run;
    run.pool = pool.get();

    // Warm-up sweep (untimed): its rows are the reference every timed sweep
    // must repeat byte for byte.
    engine::memory_sink warm;
    {
        engine::result_sink* sink = &warm;
        (void)engine::run_sweep(spec, run, {&sink, 1});
    }
    const std::string reference = rows_csv(warm.rows());
    out.operation(t3a_verdict(warm.rows()), "T3a verdict fails on the warm-up sweep");

    const util::telemetry::scoped_enable telemetry(opts.trace);
    std::unique_ptr<engine::trace_sink> trace;
    const std::string trace_path = dir + "/t3a.trace.jsonl";
    if (opts.trace) {
        trace = std::make_unique<engine::trace_sink>(trace_path, std::size_t{1} << 30);
        run.trace = trace.get();
    }
    std::vector<double> wall_s;
    std::vector<double> replica_wall_s;  // summed row wall_seconds per sweep
    double steps = 0.0;                  // flood steps of one sweep (identical every sweep)
    const std::size_t replicas = points.size() * spec.repetitions;
    const auto window = clock_type::now();
    while (wall_s.size() < 2 || seconds_since(window) < opts.seconds) {
        engine::memory_sink rows;
        engine::result_sink* sink = &rows;
        const auto t0 = clock_type::now();
        (void)engine::run_sweep(spec, run, {&sink, 1});
        wall_s.push_back(seconds_since(t0));
        const bool same = rows_csv(rows.rows()) == reference;
        out.operation(same && t3a_verdict(rows.rows()),
                      same ? "T3a verdict fails" : "sweep rows differ from the warm-up sweep");
        double busy = 0.0;
        steps = 0.0;
        for (const engine::sweep_row& row : rows.rows()) {
            busy += row.wall_seconds;
            for (const double t : row.times) {
                steps += t;
            }
        }
        replica_wall_s.push_back(busy);
    }

    std::vector<double> replicas_per_s;
    std::vector<double> steps_per_s;
    for (const double w : wall_s) {
        replicas_per_s.push_back(static_cast<double>(replicas) / w);
        steps_per_s.push_back(steps / w);
    }
    out.e2e("setup_s", median(setup_s), "s");
    out.e2e("steps_per_s", median(steps_per_s), "1/s");
    out.e2e("replicas_per_s", median(replicas_per_s), "1/s");
    if (!opts.trace) {
        return;
    }

    // Per-sweep layer figures (medians over the timed sweeps).
    trace->flush();
    const std::vector<util::phase_profile> phases = sweep_phases(trace_path);
    if (phases.size() != wall_s.size()) {
        throw std::runtime_error("t3a trace holds " + std::to_string(phases.size()) +
                                 " sweep_end events for " + std::to_string(wall_s.size()) +
                                 " sweeps");
    }
    std::vector<double> advance, rebuild, scan, gbps, busy_frac, replica_mean;
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const auto& s = phases[i].seconds;
        advance.push_back(s[0]);
        rebuild.push_back(s[1]);
        scan.push_back(s[2] + s[3]);
        gbps.push_back(static_cast<double>(phases[i].calls[0]) * static_cast<double>(n) *
                       rebuild_bytes_per_agent / s[1] / 1e9);
        busy_frac.push_back(replica_wall_s[i] / (workers * wall_s[i]));
        replica_mean.push_back(replica_wall_s[i] / static_cast<double>(replicas));
    }
    out.layer("mobility.advance_s", median(advance), "s");
    out.layer("geom.rebuild_s", median(rebuild), "s");
    out.layer("geom.rebuild_gbps_computed", median(gbps), "GB/s");
    out.layer("core.scan_s", median(scan), "s");
    out.layer("core.flood_steps", steps, "count");
    out.layer("engine.replica_mean_s", median(replica_mean), "s");
    out.layer("engine.busy_frac", median(busy_frac), "frac");

    pool.reset();  // the probes bring their own threads
    probe_fabric(opts, dir, out);
    probe_service(opts, dir, out);
}

}  // namespace perfbench
