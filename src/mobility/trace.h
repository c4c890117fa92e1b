/// \file trace.h
/// Trajectory recording and replay: dense per-step position history of a
/// walker population, plus the trace_replay mobility model that drives
/// agents along a recorded polyline. Recording is used by the
/// temporal-reachability oracle (an independent re-derivation of flooding
/// times), by the Lemma 14 "good segment" harness, and for CSV export of
/// agent paths; replay is registered in the mobility factory (model kind
/// "trace") behind topology-aware validation — see factory.h.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geom/vec2.h"
#include "mobility/model.h"
#include "mobility/walker.h"

namespace manhattan::mobility {

/// Dense (steps+1) x n position history. Frame 0 is the state at recording
/// start; frame t is the state after t recorded steps.
class trajectory_recorder {
 public:
    /// Prepares a recorder for \p agent_count agents. Throws if zero.
    explicit trajectory_recorder(std::size_t agent_count);

    /// Record the walker's current positions, in agent-id order whatever
    /// its storage order, as the next frame. The walker must have exactly
    /// agent_count() agents.
    void capture(const walker& w);

    /// Record a raw position snapshot (test fixtures).
    void capture(std::span<const geom::vec2> positions);

    [[nodiscard]] std::size_t agent_count() const noexcept { return agent_count_; }

    /// Number of captured frames (0 before the first capture()).
    [[nodiscard]] std::size_t frame_count() const noexcept {
        return frames_ ? buffer_.size() / agent_count_ : 0;
    }

    /// Positions of all agents in frame \p frame (0-based). Throws if out of
    /// range.
    [[nodiscard]] std::span<const geom::vec2> frame(std::size_t frame) const;

    /// The path of one agent across all frames (copied).
    [[nodiscard]] std::vector<geom::vec2> path_of(std::size_t agent) const;

    /// CSV of one agent's path: lines "frame,x,y".
    [[nodiscard]] std::string path_csv(std::size_t agent) const;

    /// Total Euclidean path length of one agent across recorded frames.
    [[nodiscard]] double path_length(std::size_t agent) const;

 private:
    std::size_t agent_count_;
    bool frames_ = false;
    std::vector<geom::vec2> buffer_;  // frame-major
};

/// Deterministic replay of a recorded tour: agents traverse the closed
/// polyline waypoints[0] -> waypoints[1] -> ... -> waypoints[n-1] ->
/// waypoints[0] forever at constant speed.
///
/// In steady state begin_trip() consumes *zero* randomness — the agent is
/// bitwise on a polyline vertex (the kinematics assigns pos = waypoint
/// exactly on arrival) and the next vertex is determined. Only an
/// off-polyline fresh start draws one uniform vertex to beeline to. The
/// stationary sampler is exact: constant-speed loop traversal is uniform by
/// arc length, so it draws a length-biased edge and a uniform point along it.
class trace_replay final : public mobility_model {
 public:
    /// \p waypoints must hold >= 2 pairwise-distinct points inside
    /// [0, side]^2 (pairwise distinctness keeps the vertex-match continuation
    /// unambiguous). Throws std::invalid_argument otherwise.
    trace_replay(double side, std::shared_ptr<const std::vector<geom::vec2>> waypoints);

    [[nodiscard]] trip_state stationary_state(rng::rng& gen) const override;
    void begin_trip(trip_state& s, rng::rng& gen) const override;
    [[nodiscard]] std::string name() const override { return "trace_replay"; }

    [[nodiscard]] const std::vector<geom::vec2>& waypoints() const noexcept {
        return *waypoints_;
    }

 private:
    std::shared_ptr<const std::vector<geom::vec2>> waypoints_;
    std::vector<double> cumulative_;  ///< cumulative edge lengths; back() = tour length
};

/// The longest axis-aligned displacement towards the Central Zone performed
/// by an agent within a recorded window — the quantity of Lemma 14. For an
/// agent in the SW quadrant, "towards" means increasing x (East) or
/// increasing y (North); the other quadrants are handled by symmetry.
///
/// Returns the maximal single-direction run length: consecutive frames moving
/// monotonically in the same inward axis direction.
[[nodiscard]] double longest_inward_run(std::span<const geom::vec2> path, double side);

}  // namespace manhattan::mobility
