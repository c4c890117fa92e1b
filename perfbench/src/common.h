// Shared vocabulary of the repository benchmark: run options, the metric
// report each workload fills, timing spans and order statistics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/sweep.h"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Command-line options every workload receives.
struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measurement window of one pass
    bool trace = false;     ///< trace this pass and record per-layer metrics
    bool tiny = false;      ///< smoke-test sizes (seconds, not minutes)
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one workload pass measured. `end_to_end` and `layers` are keyed by
/// the names BENCHMARK.json declares; operations are the workload's unit of
/// work (a sweep, a flood, a daemon job, a fabric drain).
struct report {
    std::vector<metric> end_to_end;
    std::vector<metric> layers;
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void e2e(const std::string& name, double value, const std::string& unit);
    void layer(const std::string& name, double value, const std::string& unit);
    [[nodiscard]] double e2e_value(const std::string& name) const;
    /// Count one operation; a false \p ok marks it failed and prints \p why
    /// on stderr.
    void operation(bool ok, const std::string& why = {});
    /// A failed output check of an operation already counted.
    void check(bool ok, const std::string& what);
};

/// Linear-interpolated quantile (q in [0, 1]) of \p values; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

/// Bytes one uniform_grid::rebuild moves per agent, counted from its two
/// passes: read the position (16) and write the bucket id (4) plus the
/// count increment (8); then read the bucket id (4), bump the cursor (8),
/// write the item id (4) and the sorted position (16) after re-reading the
/// position (16). geom.rebuild_gbps_computed is n times this per rebuild
/// over the rebuild time — a computed figure, not a measurement.
inline constexpr double rebuild_bytes_per_agent = 76.0;

/// The paper's T3a grid (Theorem 3, radius sweep) in the standard case
/// L = sqrt(n), v = paper::speed_bound(R), centre source: c1 in {1.5, 2,
/// 2.5, 3, 4, 6} at \p n agents, \p repetitions replicas per point.
[[nodiscard]] manhattan::engine::sweep_spec t3a_spec(std::size_t n, std::size_t repetitions,
                                                     std::uint64_t seed);

/// Rows rendered through the engine's CSV sink — the byte form every
/// output check compares (the CSV carries no wall-clock column).
[[nodiscard]] std::string rows_csv(const std::vector<manhattan::engine::sweep_row>& rows);

// The workloads. Each runs one pass in \p dir; with opts.trace it also
// records the per-layer numbers.
void run_t3a_sweep(const options& opts, const std::string& dir, report& out);
void run_flood_1e6(const options& opts, const std::string& dir, report& out);

// Layer probes of the traced t3a_sweep pass: the fabric and service layers,
// each for a quarter of the window. They report per-layer metrics only.
void probe_fabric(const options& opts, const std::string& dir, report& out);
void probe_service(const options& opts, const std::string& dir, report& out);

}  // namespace perfbench
