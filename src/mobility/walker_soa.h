/// \file walker_soa.h
/// Structure-of-arrays kinematic state for the walker hot path, plus the
/// lane-shaped advance kernel that runs over it.
///
/// The per-agent trip_state (56 bytes: pos / waypoint / dest / leg) is split
/// into four slot-aligned field arrays. The per-step advance only touches
/// pos and waypoint for the ~99% of agents that finish mid-leg, so the SoA
/// layout cuts the kernel's memory traffic to the two hot spans — and the
/// position span doubles as the walker's public positions() view, feeding
/// the spatial-index rebuild with zero copies (the AoS layout re-packed all
/// positions every step).
///
/// Storage order vs id order: agent ids are stable, storage slots are not.
/// Two u32 maps tie them together — ids()[slot] and slots()[id] — and both
/// are the identity until somebody calls reorder(). A caller that re-sorts
/// the storage into spatial order (core::flooding_sim does, every few steps)
/// turns the kernels' random access into near-sequential access without
/// changing any id-keyed output.
///
/// Determinism contract: advance_lane executes, for every agent, the exact
/// IEEE operation sequence of the scalar advance() kinematics in
/// mobility/model.cpp — the mid-leg fast path is the first advance_core
/// iteration with its expression order preserved, and every other case
/// round-trips through advance_deterministic() itself. Together with the
/// build-wide -ffp-contract=off this keeps vectorized, scalar and
/// pre-refactor builds bit-identical (tests/soa_differential_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "mobility/model.h"
#include "mobility/trip.h"

namespace manhattan::mobility {

/// Slot-aligned field arrays holding the kinematic state of n agents, plus
/// the slot <-> id maps.
class walker_soa {
 public:
    /// Room for \p n agents, so construction writes each field once.
    void reserve(std::size_t n);
    /// Append agent size() in slot size(), keeping the identity order.
    void push_back(const trip_state& s);

    [[nodiscard]] std::size_t size() const noexcept { return pos_.size(); }

    /// The hot span: current positions in storage order (positions()[slot]
    /// is agent ids()[slot]). Stable across steps (only the elements
    /// mutate), so callers may hold the span until the next reorder().
    [[nodiscard]] std::span<const geom::vec2> positions() const noexcept { return pos_; }
    /// The agent id stored in each slot.
    [[nodiscard]] std::span<const std::uint32_t> ids() const noexcept { return id_of_; }
    /// The storage slot of each agent id.
    [[nodiscard]] std::span<const std::uint32_t> slots() const noexcept { return slot_of_; }

    /// Gather the fields of storage slot \p slot into the AoS view.
    [[nodiscard]] trip_state get(std::size_t slot) const {
        return {pos_[slot], way_[slot], dest_[slot], leg_[slot]};
    }
    /// Scatter an AoS state back into the field arrays of slot \p slot.
    void set(std::size_t slot, const trip_state& s) {
        pos_[slot] = s.pos;
        way_[slot] = s.waypoint;
        dest_[slot] = s.dest;
        leg_[slot] = s.leg;
    }

    /// Permute the storage so slot k holds agent \p ids[k]. \p ids must be a
    /// permutation of [0, n), not a view of this object's own ids(), and
    /// \p positions must hold those agents' current positions in the same
    /// order (a spatial index's bucket-sorted copy, say). \p positions becomes the position array without a copy;
    /// on return it holds a displaced buffer of n elements with unspecified
    /// contents, which served as the gather scratch for the other fields.
    /// The only other scratch is n bytes for the leg flags. Throws
    /// std::invalid_argument on a size mismatch.
    void reorder(std::span<const std::uint32_t> ids, std::vector<geom::vec2>& positions);

    // Raw field spans for kernels.
    [[nodiscard]] geom::vec2* pos() noexcept { return pos_.data(); }
    [[nodiscard]] const geom::vec2* pos() const noexcept { return pos_.data(); }
    [[nodiscard]] const geom::vec2* way() const noexcept { return way_.data(); }

 private:
    std::vector<geom::vec2> pos_;   ///< current position (hot)
    std::vector<geom::vec2> way_;   ///< current leg endpoint (hot)
    std::vector<geom::vec2> dest_;  ///< trip destination (slow path only)
    std::vector<std::uint8_t> leg_; ///< 0 = pre-turn, 1 = final leg (slow path only)
    std::vector<std::uint32_t> id_of_;    ///< slot -> agent id
    std::vector<std::uint32_t> slot_of_;  ///< agent id -> slot
    std::vector<std::uint8_t> leg_scratch_;  ///< reorder() gather target for leg_
};

/// An agent whose lane-phase advance stopped at a destination and still owes
/// a trip draw (plus possibly more travel) — advance_lane's output.
struct pending_trip {
    std::uint32_t agent = 0;  ///< agent id (not its storage slot)
    partial_advance partial;
};

/// The RNG-free advance of storage slots [begin, end) by travel distance
/// \p distance: the branch-reduced lane kernel. Agents finishing mid-leg
/// (the overwhelming majority each step: leg lengths are O(side) while the
/// per-step distance is the speed bound R/(3(1+sqrt 5))) take a straight-line
/// move with no events; everything else — waypoint turns, arrivals,
/// degenerate legs — falls back to the exact advance_deterministic() loop,
/// and agents owing a trip draw are appended to \p pending in slot order.
/// The id-indexed counters are written through soa.ids(). Writes only slots
/// [begin, end) of the soa, the counters of the agents stored there, and
/// \p pending, so disjoint lanes may run concurrently (docs/ENGINE.md).
void advance_lane(const mobility_model& model, walker_soa& soa, std::size_t begin,
                  std::size_t end, double distance, std::uint64_t* turn_counts,
                  std::uint64_t* arrival_counts, std::vector<pending_trip>& pending);

}  // namespace manhattan::mobility
