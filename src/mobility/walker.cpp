#include "mobility/walker.h"

#include <algorithm>
#include <stdexcept>

namespace manhattan::mobility {

walker::walker(std::shared_ptr<const mobility_model> model, std::size_t n, double speed,
               rng::rng gen, start_mode start)
    : model_(std::move(model)), speed_(speed), gen_(gen) {
    if (!model_) {
        throw std::invalid_argument("walker: model must not be null");
    }
    if (n == 0) {
        throw std::invalid_argument("walker: need at least one agent");
    }
    if (speed < 0.0) {
        throw std::invalid_argument("walker: speed must be non-negative");
    }
    soa_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {  // draws in ascending id
        if (start == start_mode::stationary) {
            soa_.push_back(model_->stationary_state(gen_));
        } else {
            trip_state s;
            s.pos = {gen_.uniform(0.0, model_->side()), gen_.uniform(0.0, model_->side())};
            model_->begin_trip(s, gen_);
            soa_.push_back(s);
        }
    }
    turn_counts_.assign(n, 0);
    arrival_counts_.assign(n, 0);
}

void walker::advance_all(double distance, util::parallel_executor& ex) {
    pending_.resize(ex.lanes());
    for (auto& pending : pending_) {
        pending.clear();  // run() skips empty ranges; drop stale lane content
    }
    ex.run(soa_.size(), [&](std::size_t lane, std::size_t begin, std::size_t end) {
        advance_lane(*model_, soa_, begin, end, distance, turn_counts_.data(),
                     arrival_counts_.data(), pending_[lane]);
    });
    // Lanes cover slot ranges, and slots follow ids only until the storage
    // is reordered: merge the lanes' draws and replay them in ascending id,
    // the draw order of a one-lane walker in id order. A step owes a few
    // hundred draws at most, so the sort is cheap.
    std::vector<pending_trip>& due = pending_.front();
    for (std::size_t lane = 1; lane < pending_.size(); ++lane) {
        due.insert(due.end(), pending_[lane].begin(), pending_[lane].end());
    }
    std::sort(due.begin(), due.end(),
              [](const pending_trip& a, const pending_trip& b) { return a.agent < b.agent; });
    const auto slots = soa_.slots();
    for (const auto& [agent, partial] : due) {
        const std::uint32_t slot = slots[agent];
        trip_state s = soa_.get(slot);
        const advance_events ev = advance_resume(*model_, s, partial, gen_);
        soa_.set(slot, s);
        turn_counts_[agent] += ev.turns;
        arrival_counts_[agent] += ev.arrivals;
    }
}

void walker::step() {
    util::serial_executor one_lane;
    step(one_lane);
}

void walker::step(util::parallel_executor& ex) {
    advance_all(speed_, ex);
    ++steps_;
}

void walker::advance_time(double duration) {
    if (duration < 0.0) {
        throw std::invalid_argument("walker::advance_time: duration must be non-negative");
    }
    util::serial_executor one_lane;
    advance_all(duration * speed_, one_lane);
}

trip_state walker::agent(std::size_t id) const {
    if (id >= soa_.size()) {
        throw std::out_of_range("walker::agent: index out of range");
    }
    return soa_.get(soa_.slots()[id]);
}

void walker::set_agent(std::size_t id, const trip_state& s) {
    if (id >= soa_.size()) {
        throw std::out_of_range("walker::set_agent: index out of range");
    }
    soa_.set(soa_.slots()[id], s);
}

}  // namespace manhattan::mobility
