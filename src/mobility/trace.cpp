#include "mobility/trace.h"

#include <cmath>
#include <stdexcept>

namespace manhattan::mobility {

trajectory_recorder::trajectory_recorder(std::size_t agent_count)
    : agent_count_(agent_count) {
    if (agent_count == 0) {
        throw std::invalid_argument("trajectory_recorder: need at least one agent");
    }
}

void trajectory_recorder::capture(const walker& w) {
    if (w.size() != agent_count_) {
        throw std::invalid_argument("trajectory_recorder: agent count mismatch");
    }
    // Frames are in id order, whatever the walker's storage order.
    for (std::size_t id = 0; id < agent_count_; ++id) {
        buffer_.push_back(w.position(id));
    }
    frames_ = true;
}

void trajectory_recorder::capture(std::span<const geom::vec2> positions) {
    if (positions.size() != agent_count_) {
        throw std::invalid_argument("trajectory_recorder: agent count mismatch");
    }
    buffer_.insert(buffer_.end(), positions.begin(), positions.end());
    frames_ = true;
}

std::span<const geom::vec2> trajectory_recorder::frame(std::size_t frame) const {
    if (frame >= frame_count()) {
        throw std::out_of_range("trajectory_recorder::frame");
    }
    return {buffer_.data() + frame * agent_count_, agent_count_};
}

std::vector<geom::vec2> trajectory_recorder::path_of(std::size_t agent) const {
    if (agent >= agent_count_) {
        throw std::out_of_range("trajectory_recorder::path_of");
    }
    std::vector<geom::vec2> path;
    path.reserve(frame_count());
    for (std::size_t f = 0; f < frame_count(); ++f) {
        path.push_back(buffer_[f * agent_count_ + agent]);
    }
    return path;
}

std::string trajectory_recorder::path_csv(std::size_t agent) const {
    const auto path = path_of(agent);
    std::string out = "frame,x,y\n";
    for (std::size_t f = 0; f < path.size(); ++f) {
        out += std::to_string(f);
        out += ',';
        out += std::to_string(path[f].x);
        out += ',';
        out += std::to_string(path[f].y);
        out += '\n';
    }
    return out;
}

double trajectory_recorder::path_length(std::size_t agent) const {
    const auto path = path_of(agent);
    double total = 0.0;
    for (std::size_t f = 1; f < path.size(); ++f) {
        total += geom::dist(path[f - 1], path[f]);
    }
    return total;
}

trace_replay::trace_replay(double side,
                           std::shared_ptr<const std::vector<geom::vec2>> waypoints)
    : mobility_model(side), waypoints_(std::move(waypoints)) {
    if (waypoints_ == nullptr || waypoints_->size() < 2) {
        throw std::invalid_argument("trace_replay: need at least two waypoints");
    }
    const auto& pts = *waypoints_;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (!(pts[i].x >= 0.0 && pts[i].x <= side && pts[i].y >= 0.0 && pts[i].y <= side)) {
            throw std::invalid_argument("trace_replay: waypoint outside the square");
        }
        for (std::size_t j = i + 1; j < pts.size(); ++j) {
            if (pts[i].x == pts[j].x && pts[i].y == pts[j].y) {
                throw std::invalid_argument("trace_replay: waypoints must be distinct");
            }
        }
    }
    cumulative_.reserve(pts.size());
    double total = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        total += geom::dist(pts[i], pts[(i + 1) % pts.size()]);
        cumulative_.push_back(total);
    }
}

void trace_replay::begin_trip(trip_state& s, rng::rng& gen) const {
    const auto& pts = *waypoints_;
    for (std::size_t k = 0; k < pts.size(); ++k) {
        if (s.pos.x == pts[k].x && s.pos.y == pts[k].y) {
            // On the tour: head to the next vertex. No randomness consumed.
            s.dest = pts[(k + 1) % pts.size()];
            s.waypoint = s.dest;
            s.leg = 1;
            return;
        }
    }
    // Off the tour (uniform fresh start): beeline to a uniformly drawn vertex.
    s.dest = pts[gen.uniform_index(pts.size())];
    s.waypoint = s.dest;
    s.leg = 1;
}

trip_state trace_replay::stationary_state(rng::rng& gen) const {
    const auto& pts = *waypoints_;
    // Uniform arc-length position along the tour = length-biased edge plus a
    // uniform point along it, read off the cumulative-length table.
    const double u = gen.uniform01() * cumulative_.back();
    std::size_t k = 0;
    while (k + 1 < pts.size() && u >= cumulative_[k]) {
        ++k;
    }
    const geom::vec2 a = pts[k];
    const geom::vec2 b = pts[(k + 1) % pts.size()];
    const double lo = k == 0 ? 0.0 : cumulative_[k - 1];
    const double len = geom::dist(a, b);
    trip_state s;
    s.dest = b;
    s.waypoint = b;
    s.leg = 1;
    s.pos = len > 0.0 ? a + (b - a) * ((u - lo) / len) : a;
    return s;
}

double longest_inward_run(std::span<const geom::vec2> path, double side) {
    if (path.size() < 2) {
        return 0.0;
    }
    // Inward axis directions from the quadrant of the window's start point:
    // SW quadrant -> East (+x) or North (+y) runs count; mirror the path into
    // the SW quadrant so one rule covers all four.
    const geom::vec2 start = path.front();
    const double sx = start.x <= side / 2 ? 1.0 : -1.0;
    const double sy = start.y <= side / 2 ? 1.0 : -1.0;

    double best = 0.0;
    double run_x = 0.0;
    double run_y = 0.0;
    for (std::size_t f = 1; f < path.size(); ++f) {
        const double dx = sx * (path[f].x - path[f - 1].x);
        const double dy = sy * (path[f].y - path[f - 1].y);
        // A frame extends an axis run only if it moved (almost) purely along
        // that axis in the inward direction; any other motion resets the run.
        constexpr double slack = 1e-9;
        if (dx > 0.0 && std::abs(dy) <= slack) {
            run_x += dx;
            run_y = 0.0;
        } else if (dy > 0.0 && std::abs(dx) <= slack) {
            run_y += dy;
            run_x = 0.0;
        } else {
            run_x = 0.0;
            run_y = 0.0;
        }
        best = std::fmax(best, std::fmax(run_x, run_y));
    }
    return best;
}

}  // namespace manhattan::mobility
