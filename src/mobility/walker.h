/// \file walker.h
/// The population driver: n agents sharing one mobility model, advanced in
/// lockstep by one speed-v step at a time (the paper's discrete time unit).
/// Agent state lives in structure-of-arrays spans (mobility/walker_soa.h);
/// the positions span is the storage the spatial index and the propagation
/// scans read directly — no per-step repacking. Agents have stable ids;
/// their storage slots change only through reorder().
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
/// the SoA spans, in storage order) first, then the pending trip draws
/// replayed serially in ascending agent-id order — consuming gen_ exactly as
/// a draw-interleaved per-agent loop would, since the kinematics never reads
/// the generator. step() is step(ex) on one lane of the calling thread, so
/// positions, trip states and the generator state are bit-identical at any
/// lane count and under any storage order (docs/PERF.md). Everything indexed
/// by agent id — agent(), set_agent(), turn_counts(), arrival_counts() — is
/// independent of the storage order; only positions() exposes it.
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

    /// Positions of all agents, contiguous, in storage order: positions()[k]
    /// belongs to agent ids()[k]. That is id order for any walker nobody
    /// reorders. This is the SoA storage itself — valid until the next
    /// reorder(), elements updated in place by step().
    [[nodiscard]] std::span<const geom::vec2> positions() const noexcept {
        return soa_.positions();
    }
    /// The agent id stored in each slot of positions().
    [[nodiscard]] std::span<const std::uint32_t> ids() const noexcept { return soa_.ids(); }
    /// The slot of positions() that holds each agent id.
    [[nodiscard]] std::span<const std::uint32_t> slots() const noexcept {
        return soa_.slots();
    }
    /// Agent \p id's position (no bounds check).
    [[nodiscard]] geom::vec2 position(std::size_t id) const noexcept {
        return soa_.positions()[soa_.slots()[id]];
    }

    /// Agent \p id's state, gathered from the field arrays. Returned by value
    /// (the AoS view no longer exists in memory); throws on out-of-range id.
    [[nodiscard]] trip_state agent(std::size_t id) const;

    /// Permute the storage so slot k holds agent \p ids[k]; \p positions
    /// must hold those agents' positions in that order and is adopted as
    /// the position array (see walker_soa::reorder). Never changes any
    /// id-indexed state, the generator, or any later step's outcome.
    void reorder(std::span<const std::uint32_t> ids, std::vector<geom::vec2>& positions) {
        soa_.reorder(ids, positions);
    }

    /// A copy of the trip-draw generator in its current state: equal copies
    /// make equal draws, so tests can pin the draw order.
    [[nodiscard]] rng::rng generator() const noexcept { return gen_; }

    /// Cumulative direction changes per agent since construction (Lemma 13).
    [[nodiscard]] std::span<const std::uint64_t> turn_counts() const noexcept {
        return turn_counts_;
    }

    /// Cumulative completed trips per agent since construction.
    [[nodiscard]] std::span<const std::uint64_t> arrival_counts() const noexcept {
        return arrival_counts_;
    }

    /// Overwrite agent \p id's state (test/fixture injection).
    void set_agent(std::size_t id, const trip_state& s);

 private:
    /// Advance all agents by \p distance: the lane kernel over \p ex, then
    /// the pending draws in ascending agent-id order.
    void advance_all(double distance, util::parallel_executor& ex);

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
