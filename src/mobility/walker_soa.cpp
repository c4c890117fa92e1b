#include "mobility/walker_soa.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace manhattan::mobility {

void walker_soa::reserve(std::size_t n) {
    pos_.reserve(n);
    way_.reserve(n);
    dest_.reserve(n);
    leg_.reserve(n);
    id_of_.reserve(n);
    slot_of_.reserve(n);
}

void walker_soa::push_back(const trip_state& s) {
    const auto id = static_cast<std::uint32_t>(pos_.size());
    pos_.push_back(s.pos);
    way_.push_back(s.waypoint);
    dest_.push_back(s.dest);
    leg_.push_back(s.leg);
    id_of_.push_back(id);
    slot_of_.push_back(id);
}

void walker_soa::reorder(std::span<const std::uint32_t> ids,
                         std::vector<geom::vec2>& positions) {
    const std::size_t n = size();
    if (ids.size() != n || positions.size() != n) {
        throw std::invalid_argument("walker_soa::reorder: size mismatch");
    }
    // One pass through the id-indexed (randomly accessed) slot_of_ both
    // rewrites it and parks each new slot's old slot in id_of_, so the
    // gathers below read their sources in near-sequential order whenever
    // the storage was nearly sorted already.
    std::uint32_t* const from = id_of_.data();
    for (std::size_t k = 0; k < n; ++k) {
        from[k] = std::exchange(slot_of_[ids[k]], static_cast<std::uint32_t>(k));
    }
    // Adopt the caller's positions, then gather each remaining field into
    // the buffer the previous field vacated.
    pos_.swap(positions);
    leg_scratch_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        positions[k] = way_[from[k]];
        leg_scratch_[k] = leg_[from[k]];
    }
    way_.swap(positions);
    leg_.swap(leg_scratch_);
    for (std::size_t k = 0; k < n; ++k) {
        positions[k] = dest_[from[k]];
    }
    dest_.swap(positions);
    id_of_.assign(ids.begin(), ids.end());
}

void advance_lane(const mobility_model& model, walker_soa& soa, std::size_t begin,
                  std::size_t end, double distance, std::uint64_t* turn_counts,
                  std::uint64_t* arrival_counts, std::vector<pending_trip>& pending) {
    if (!(distance > 0.0)) {
        return;  // advance_core's while loop would not run: no movement, no events
    }
    geom::vec2* const pos = soa.pos();
    const geom::vec2* const way = soa.way();
    const auto ids = soa.ids();
    for (std::size_t i = begin; i < end; ++i) {
        // Mid-leg fast path == the first advance_core iteration, expression
        // order preserved: remaining = sqrt((pos-way).x^2 + (pos-way).y^2)
        // bit-equals sqrt(dx*dx + dy*dy) (negation is exact), and the move
        // re-uses dx/dy exactly as (waypoint - pos) * t does.
        const double dx = way[i].x - pos[i].x;
        const double dy = way[i].y - pos[i].y;
        const double remaining = std::sqrt(dx * dx + dy * dy);
        if (remaining > distance) {
            const double t = distance / remaining;
            pos[i].x += dx * t;
            pos[i].y += dy * t;
            continue;
        }
        // Slow path (waypoint / destination reached, or a degenerate leg):
        // replay the whole advance from the untouched state through the
        // canonical loop.
        trip_state s = soa.get(i);
        const partial_advance p = advance_deterministic(model, s, distance);
        soa.set(i, s);
        const std::uint32_t id = ids[i];
        turn_counts[id] += p.events.turns;
        arrival_counts[id] += p.events.arrivals;
        if (p.needs_trip) {
            pending.push_back({id, p});
        }
    }
}

}  // namespace manhattan::mobility
