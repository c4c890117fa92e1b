/// \file walker.h
/// The population driver: n agents sharing one mobility model, advanced in
/// lockstep by one speed-v step at a time (the paper's discrete time unit).
/// Agent state lives in structure-of-arrays spans (mobility/walker_soa.h);
/// the positions span is the storage the spatial index and the propagation
/// scans read directly — no per-step repacking.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mobility/model.h"
#include "mobility/trip.h"
#include "mobility/walker_soa.h"
#include "rng/rng.h"
#include "util/parallel.h"

namespace manhattan::mobility {

/// How walker seeds the initial agent states.
enum class start_mode {
    stationary,     ///< model::stationary_state (perfect simulation where exact)
    uniform_fresh,  ///< uniform position + fresh trip (pre-stationary; for warm-up studies)
};

/// A population of n agents moving per a shared mobility model.
///
/// Every advance is two-phase: the RNG-free kinematics (advance_lane over
/// the SoA spans) first, then the pending trip draws replayed serially in
/// ascending agent-id order — consuming gen_ exactly as a draw-interleaved
/// per-agent loop would, since the kinematics never reads the generator.
/// step() is step(ex) on one lane of the calling thread, so positions, trip
/// states and the generator state are bit-identical at any lane count
/// (docs/PERF.md).
class walker {
 public:
    /// Throws if n == 0 or speed < 0.
    walker(std::shared_ptr<const mobility_model> model, std::size_t n, double speed,
           rng::rng gen, start_mode start = start_mode::stationary);

    /// Advance every agent by one time unit (travel distance = speed); the
    /// kinematics fan over \p ex's lanes (see class comment).
    void step(util::parallel_executor& ex);

    /// step() on one lane of the calling thread.
    void step();

    /// Advance every agent by \p duration time units without per-step
    /// bookkeeping (used to warm a non-exact sampler into stationarity;
    /// O(#trips), not O(#steps)).
    void advance_time(double duration);

    [[nodiscard]] std::size_t size() const noexcept { return soa_.size(); }
    [[nodiscard]] double speed() const noexcept { return speed_; }
    [[nodiscard]] const mobility_model& model() const noexcept { return *model_; }
    [[nodiscard]] std::uint64_t steps_taken() const noexcept { return steps_; }

    /// Positions of all agents, contiguous (index-aligned with agent ids).
    /// This is the SoA storage itself — valid for the walker's lifetime,
    /// elements updated in place by step().
    [[nodiscard]] std::span<const geom::vec2> positions() const noexcept {
        return soa_.positions();
    }

    /// One agent's state, gathered from the field arrays. Returned by value
    /// (the AoS view no longer exists in memory); throws on out-of-range i.
    [[nodiscard]] trip_state agent(std::size_t i) const;

    /// The underlying field arrays (span-based kernels).
    [[nodiscard]] const walker_soa& state() const noexcept { return soa_; }

    /// Cumulative direction changes per agent since construction (Lemma 13).
    [[nodiscard]] std::span<const std::uint64_t> turn_counts() const noexcept {
        return turn_counts_;
    }

    /// Cumulative completed trips per agent since construction.
    [[nodiscard]] std::span<const std::uint64_t> arrival_counts() const noexcept {
        return arrival_counts_;
    }

    /// Overwrite one agent's state (test/fixture injection).
    void set_agent(std::size_t i, const trip_state& s);

 private:
    /// Advance all agents by \p distance: the lane kernel over \p ex, then
    /// the pending draws in ascending agent-id order.
    void advance_all(double distance, util::parallel_executor& ex);
    void resume_pending(const std::vector<pending_trip>& pending);

    std::shared_ptr<const mobility_model> model_;
    double speed_;
    rng::rng gen_;
    walker_soa soa_;
    std::vector<std::uint64_t> turn_counts_;
    std::vector<std::uint64_t> arrival_counts_;
    std::vector<std::vector<pending_trip>> pending_;  ///< per-lane, reused across steps
    std::uint64_t steps_ = 0;
};

}  // namespace manhattan::mobility
