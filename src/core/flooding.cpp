#include "core/flooding.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace manhattan::core {

namespace {

/// A null executor stands for one lane on the calling thread. That
/// executor holds no state, so every simulation may share it.
util::parallel_executor* or_one_lane(util::parallel_executor* exec) noexcept {
    static util::serial_executor one_lane;
    return exec != nullptr ? exec : &one_lane;
}

}  // namespace

flooding_sim::flooding_sim(mobility::walker agents, double radius, spread_config cfg,
                           const cell_partition* cells, util::parallel_executor* exec)
    : walker_(std::move(agents)),
      radius_(radius),
      cfg_(std::move(cfg)),
      cells_(cells),
      exec_(or_one_lane(exec)),
      grid_(walker_.model().side(), std::min(radius, walker_.model().side())) {
    if (!(radius > 0.0)) {
        throw std::invalid_argument("flooding_sim: radius must be positive");
    }
    if (cfg_.spread.messages.empty()) {
        throw std::invalid_argument("flooding_sim: spread workload has no messages");
    }
    cfg_.spread.stop.validate();
    const std::size_t n = walker_.size();
    messages_.reserve(cfg_.spread.messages.size());
    for (const message_spec& spec : cfg_.spread.messages) {
        spec.sources.validate(n);
        if (spec.mode == propagation::gossip &&
            !(spec.gossip_p > 0.0 && spec.gossip_p <= 1.0)) {
            throw std::invalid_argument("flooding_sim: gossip_p must be in (0, 1]");
        }
        message_state msg;
        msg.spec = spec;
        msg.gossip_gen = rng::rng(spec.gossip_seed);
        messages_.push_back(std::move(msg));
    }
    if (cfg_.spread.stop.how == stop_rule::kind::informed_fraction) {
        const auto target = static_cast<std::size_t>(
            std::ceil(cfg_.spread.stop.fraction * static_cast<double>(n)));
        stop_fraction_count_ = std::clamp<std::size_t>(target, 1, n);
    }
    for (message_state& msg : messages_) {
        if (msg.spec.spawn_step == 0) {
            spawn(msg);
        }
    }
    refresh_stop_satisfaction();
}

void flooding_sim::set_executor(util::parallel_executor* exec) noexcept {
    exec_ = or_one_lane(exec);
}

/// Mark a message's resolved sources informed at the current step. Sources
/// are resolved against the *current* positions (a message spawned at step s
/// originates wherever its placement rule points at step s); the uninformed
/// set and Central-Zone metric start tracking from here.
void flooding_sim::spawn(message_state& msg) {
    const std::size_t n = walker_.size();
    msg.sources = resolve_sources(msg.spec.sources, walker_.positions(), walker_.ids(),
                                  walker_.model().side(), msg.spec.source_seed);
    msg.touched.assign_zero(n);
    msg.committed.assign_zero(n);
    msg.informed_at.assign(n, never_informed);
    msg.informed_list.reserve(n);
    for (const std::uint32_t id : msg.sources) {
        msg.touched.set(id);
        msg.committed.set(id);
        msg.informed_at[id] = static_cast<std::uint32_t>(step_count_);
        msg.informed_list.push_back(id);
    }
    msg.informed_count = msg.sources.size();
    msg.last_informed_step = step_count_;
    msg.uninformed.reserve(n);
    msg.uninformed_slot.assign(n, 0);
    for (std::uint32_t a = 0; a < n; ++a) {
        if (!msg.touched.test(a)) {
            msg.uninformed_slot[a] = static_cast<std::uint32_t>(msg.uninformed.size());
            msg.uninformed.push_back(a);
        }
    }
    msg.spawned = true;
    update_zone_metrics(msg);
}

/// Decide whether a scan is worth skip tables and build them if so. The
/// occupancy counts come from the uninformed id list (O(#uninformed)); the
/// committed side is its complement against the bucket sizes (between scans
/// touched == committed, so #committed = bucket size - #uninformed in every
/// bucket). The decision compares the scan's potential savings (queries x
/// average bucket occupancy) against the build cost — purely a function of
/// already-deterministic counts, so every lane count makes the same choice.
bool flooding_sim::prepare_skip_tables(const message_state& msg, std::size_t scan_size,
                                       bool uninformed) {
    const std::size_t buckets = grid_.bucket_count();
    const std::size_t n = walker_.size();
    const std::size_t build_cost = msg.uninformed.size() + 4 * buckets;
    if (scan_size * n < 2 * build_cost * buckets) {
        return false;
    }
    bucket_counts_.assign(buckets, 0);
    const auto slots = walker_.slots();
    for (const std::uint32_t a : msg.uninformed) {
        ++bucket_counts_[grid_.bucket_of_item(slots[a])];
    }
    if (!uninformed) {
        for (std::size_t b = 0; b < buckets; ++b) {
            const auto size = static_cast<std::uint32_t>(grid_.bucket_end(b) -
                                                         grid_.bucket_begin(b));
            bucket_counts_[b] = size - bucket_counts_[b];
        }
    }
    sum_bucket_neighborhoods();
    return true;
}

/// nb_counts_[b] = sum of bucket_counts_ over b's clamped 3x3 neighbourhood,
/// computed separably (horizontal then vertical pass, O(#buckets) each).
void flooding_sim::sum_bucket_neighborhoods() {
    const auto m = static_cast<std::size_t>(grid_.buckets_per_side());
    const std::size_t buckets = m * m;
    nb_row_.resize(buckets);
    nb_counts_.resize(buckets);
    for (std::size_t y = 0; y < m; ++y) {
        const std::size_t row = y * m;
        for (std::size_t x = 0; x < m; ++x) {
            std::uint32_t sum = bucket_counts_[row + x];
            if (x > 0) {
                sum += bucket_counts_[row + x - 1];
            }
            if (x + 1 < m) {
                sum += bucket_counts_[row + x + 1];
            }
            nb_row_[row + x] = sum;
        }
    }
    for (std::size_t y = 0; y < m; ++y) {
        const std::size_t row = y * m;
        for (std::size_t x = 0; x < m; ++x) {
            std::uint32_t sum = nb_row_[row + x];
            if (y > 0) {
                sum += nb_row_[row - m + x];
            }
            if (y + 1 < m) {
                sum += nb_row_[row + m + x];
            }
            nb_counts_[row + x] = sum;
        }
    }
}

/// Neighbourhood scan over informed-list entries [0, informed_before) whose
/// transmit flag is set (null = every entry transmits), appending the newly
/// informed to newly_ in the one-lane discovery order: ascending entry k,
/// the covering buckets in row-major order within an entry, ascending id
/// within a bucket, first discovery wins. A bucket holds its agents in
/// storage order, so each (transmitter, bucket) run of discoveries is
/// sorted by id; the run is the same set in any storage order (the agents
/// in range and not yet touched), so the order is storage-independent.
/// Lanes are ascending contiguous k-ranges; each lane dedups against its
/// own copy of msg.touched, so it keeps only its first sighting of an
/// agent, and the lane-order merge keeps the globally first one.
void flooding_sim::scan_transmitters(message_state& msg, std::size_t informed_before,
                                     const std::uint8_t* transmit) {
    const auto positions = walker_.positions();
    const auto slots = walker_.slots();
    const auto items = grid_.items();
    const auto sorted = grid_.sorted_points();
    const double r2 = radius_ * radius_;
    // Skip tables over the *uninformed* side: a transmitter whose 3x3 bucket
    // neighbourhood holds no uninformed agent cannot discover anyone, so its
    // whole radius query is skipped; within a query, buckets with no
    // uninformed agent are skipped bucket-wise.
    const bool use_skip = prepare_skip_tables(msg, informed_before, /*uninformed=*/true);

    const std::size_t lanes = exec_->lanes();
    lane_newly_.resize(lanes);
    lane_touched_.resize(lanes);
    // Pre-clear every lane buffer: run() skips empty ranges, and a lane
    // that was non-empty in an earlier (larger-count) scan of another
    // message would otherwise leak its stale candidates into the merge.
    for (auto& out : lane_newly_) {
        out.clear();
    }

    // Lanes read the message's informed state, the grid and positions, and
    // write only their own buffers. Cross-lane duplicates are possible and
    // resolved by the ordered merge below. The skip tables are frozen
    // before the fan-out, so every lane consults the same (exact,
    // scan-start) counts.
    exec_->run(informed_before, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        auto& out = lane_newly_[lane];
        util::bitset64& touched = lane_touched_[lane];
        touched = msg.touched;  // n/64 words; reuses the lane's storage
        for (std::size_t k = begin; k < end; ++k) {
            if (transmit != nullptr && transmit[k] == 0) {
                continue;
            }
            const std::uint32_t slot = slots[msg.informed_list[k]];
            const geom::vec2 p = positions[slot];
            if (use_skip && nb_counts_[grid_.bucket_of_item(slot)] == 0) {
                continue;
            }
            grid_.visit_covering_buckets(
                p, radius_, [&](std::size_t bucket, std::size_t bkt_begin, std::size_t bkt_end) {
                    if (use_skip && bucket_counts_[bucket] == 0) {
                        return false;
                    }
                    const std::size_t run = out.size();
                    for (std::size_t s = bkt_begin; s < bkt_end; ++s) {
                        if (geom::dist2(sorted[s], p) <= r2 && !touched.test(items[s])) {
                            touched.set(items[s]);  // don't re-add this step
                            out.push_back(items[s]);
                        }
                    }
                    if (out.size() - run > 1) {
                        std::sort(out.begin() + static_cast<std::ptrdiff_t>(run), out.end());
                    }
                    return false;
                });
        }
    });

    for (const auto& out : lane_newly_) {
        for (const std::uint32_t a : out) {
            if (!msg.touched.test(a)) {
                msg.touched.set(a);
                newly_.push_back(a);
            }
        }
    }
}

/// The dual scan for dense informed sets: probe every still-uninformed agent
/// for an already-informed neighbour. for_each_clear enumerates exactly the
/// still-uninformed agents of a lane's id range in ascending order, skipping
/// fully-informed 64-agent words with a single compare. Each agent is
/// appended by its own iteration only, so lane buffers concatenate to the
/// ascending-id order with no dedup needed. An agent found here cannot
/// inform others this step: probes test `committed`, never `touched`. A
/// probe's hit/no-hit outcome does not depend on the order it visits a
/// bucket's agents in, so the storage order cannot show here.
void flooding_sim::scan_uninformed(message_state& msg) {
    const auto positions = walker_.positions();
    const auto slots = walker_.slots();
    const std::size_t n = walker_.size();
    const auto items = grid_.items();
    const auto sorted = grid_.sorted_points();
    const double r2 = radius_ * radius_;
    // Skip tables over the *committed* side: an uninformed agent with no
    // committed transmitter anywhere in its 3x3 bucket neighbourhood cannot
    // be informed this step. The committed set is immutable during the scan,
    // so the counts stay exact throughout.
    const bool use_skip = prepare_skip_tables(msg, msg.uninformed.size(), /*uninformed=*/false);

    // Whether a committed transmitter sits within the radius of agent \p a.
    // Probe order is the grid scan order (first hit stops early); only the
    // hit/no-hit outcome matters, and skips never change it.
    const auto probe = [&](std::size_t a) -> bool {
        const std::uint32_t slot = slots[a];
        const geom::vec2 p = positions[slot];
        if (use_skip && nb_counts_[grid_.bucket_of_item(slot)] == 0) {
            return false;
        }
        return grid_.visit_covering_buckets(
            p, radius_, [&](std::size_t bucket, std::size_t begin, std::size_t end) {
                if (use_skip && bucket_counts_[bucket] == 0) {
                    return false;
                }
                for (std::size_t s = begin; s < end; ++s) {
                    if (geom::dist2(sorted[s], p) <= r2 && msg.committed.test(items[s])) {
                        return true;
                    }
                }
                return false;
            });
    };

    const std::size_t lanes = exec_->lanes();
    lane_newly_.resize(lanes);
    for (auto& out : lane_newly_) {
        out.clear();  // run() skips empty ranges; drop stale lane content
    }
    exec_->run(n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        auto& out = lane_newly_[lane];
        msg.touched.for_each_clear(begin, end, [&](std::size_t a) {
            if (probe(a)) {
                out.push_back(static_cast<std::uint32_t>(a));
            }
        });
    });
    for (const auto& out : lane_newly_) {
        for (const std::uint32_t a : out) {
            msg.touched.set(a);
            newly_.push_back(a);
        }
    }
}

void flooding_sim::propagate_one_hop(message_state& msg) {
    const std::size_t n = walker_.size();
    const std::size_t informed_before = msg.informed_list.size();
    if (informed_before <= n - msg.informed_count) {
        // Few informed: scan each informed agent's neighbourhood.
        scan_transmitters(msg, informed_before, nullptr);
    } else {
        // Few uninformed: probe each for an already-informed neighbour.
        scan_uninformed(msg);
    }
}

/// Build the step's proximity components once; every per_component message
/// of this step shares them (connectivity does not depend on which message
/// asks). The neighbourhood scans fan over lanes of storage slots, each
/// uniting its edges (by agent id) in a lane-private union-find; dsu_ then
/// joins every agent to its root in each lane's forest. Connectivity (and
/// hence each message's newly set) is independent of the unite order, so
/// results are the same at any lane count and storage order.
void flooding_sim::build_components() {
    const util::phase_timer timing(profile_, util::phase::components);
    const auto positions = walker_.positions();
    const auto ids = walker_.ids();
    const std::size_t n = walker_.size();
    dsu_.reset(n);

    const std::size_t lanes = exec_->lanes();
    lane_dsu_.resize(lanes, graph::union_find{0});
    exec_->run(n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        graph::union_find& dsu = lane_dsu_[lane];
        dsu.reset(n);
        for (std::size_t i = begin; i < end; ++i) {
            const std::uint32_t a = ids[i];
            grid_.for_each_in_radius(positions[i], radius_, [&](std::uint32_t j) {
                if (j > a) {
                    dsu.unite(a, j);
                }
            });
        }
    });
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (exec_->lane_begin(n, lane) == exec_->lane_begin(n, lane + 1)) {
            continue;  // run() skipped this empty range: the forest is stale
        }
        graph::union_find& dsu = lane_dsu_[lane];
        for (std::uint32_t a = 0; a < n; ++a) {
            const std::uint32_t root = dsu.find(a);
            if (root != a) {
                dsu_.unite(a, root);
            }
        }
    }
    dsu_ready_ = true;
}

/// Atom sorting, as in molecular-dynamics cell lists: make the grid's bucket
/// order the walker's storage order. The grid holds every position in that
/// order already (rebuilt this step, and nothing has moved since), so its
/// buffer becomes the walker's position array; the displaced one serves as
/// the walker's gather scratch and comes back to the grid, whose next
/// rebuild overwrites it. No n-sized buffer is allocated.
void flooding_sim::resort_agents() {
    std::vector<geom::vec2> positions;
    grid_.swap_sorted_points(positions);
    walker_.reorder(grid_.items(), positions);
    grid_.swap_sorted_points(positions);
}

void flooding_sim::propagate_per_component(message_state& msg) {
    if (!dsu_ready_) {
        build_components();
    }
    const std::size_t n = walker_.size();
    root_informed_.assign(n, 0);
    for (const std::uint32_t b : msg.informed_list) {
        root_informed_[dsu_.find(b)] = 1;
    }
    msg.touched.for_each_clear(0, n, [&](std::size_t a) {
        if (root_informed_[dsu_.find(a)] != 0) {
            msg.touched.set(a);
            newly_.push_back(static_cast<std::uint32_t>(a));
        }
    });
}

void flooding_sim::propagate_gossip(message_state& msg) {
    // Like one_hop, but each informed agent only transmits with probability
    // gossip_p. The coin is drawn for *every* informed agent every step, in
    // informing order, so the coin stream (and thus the run) depends only on
    // (gossip_seed, informing history) — not on neighbourhood structure,
    // thread count, or any other message. Coins are drawn up front
    // (serially) and the scans then share the one_hop machinery.
    const std::size_t informed_before = msg.informed_list.size();
    msg.transmit.resize(informed_before);
    for (std::size_t k = 0; k < informed_before; ++k) {
        msg.transmit[k] = msg.gossip_gen.bernoulli(msg.spec.gossip_p) ? 1 : 0;
    }
    scan_transmitters(msg, informed_before, msg.transmit.data());
}

void flooding_sim::propagate(message_state& msg) {
    switch (msg.spec.mode) {
        case propagation::one_hop:
            propagate_one_hop(msg);
            break;
        case propagation::per_component:
            propagate_per_component(msg);
            break;
        case propagation::gossip:
            propagate_gossip(msg);
            break;
    }
}

void flooding_sim::commit(message_state& msg) {
    for (const std::uint32_t a : newly_) {
        msg.committed.set(a);  // touched was set at discovery
        msg.informed_at[a] = static_cast<std::uint32_t>(step_count_);
        msg.informed_list.push_back(a);
        // Swap-remove from the uninformed set (order there is irrelevant:
        // only membership feeds the Central-Zone scan).
        const std::uint32_t slot = msg.uninformed_slot[a];
        const std::uint32_t last = msg.uninformed.back();
        msg.uninformed[slot] = last;
        msg.uninformed_slot[last] = slot;
        msg.uninformed.pop_back();
        if (cells_ != nullptr && cells_->zone_of_point(walker_.position(a)) == zone::suburb) {
            msg.last_suburb_informed_step = step_count_;
        }
    }
    if (!newly_.empty()) {
        msg.last_informed_step = step_count_;
    }
    msg.informed_count += newly_.size();
}

void flooding_sim::update_zone_metrics(message_state& msg) {
    if (cells_ == nullptr || msg.cz_informed_step.has_value()) {
        return;
    }
    // Only still-uninformed agents can block the Central Zone, so the scan
    // shrinks with the flood instead of rescanning all n agents every step.
    if (!cells_->any_in_zone(walker_.positions(), walker_.slots(), msg.uninformed,
                             zone::central)) {
        msg.cz_informed_step = step_count_;
    }
}

bool flooding_sim::stop_satisfied(const message_state& msg) const {
    const std::size_t n = walker_.size();
    switch (cfg_.spread.stop.how) {
        case stop_rule::kind::all_informed:
            return msg.spawned && msg.informed_count == n;
        case stop_rule::kind::informed_fraction:
            return msg.spawned && msg.informed_count >= stop_fraction_count_;
        case stop_rule::kind::central_zone:
            // Without a partition the Central Zone is unobservable; fall
            // back to the all-informed criterion (documented in spread.h).
            if (cells_ == nullptr) {
                return msg.spawned && msg.informed_count == n;
            }
            return msg.spawned && msg.cz_informed_step.has_value();
        case stop_rule::kind::step_budget:
            return step_count_ >= cfg_.spread.stop.steps;
    }
    return false;
}

void flooding_sim::refresh_stop_satisfaction() {
    for (message_state& msg : messages_) {
        if (!msg.stop_satisfied_step.has_value() && stop_satisfied(msg)) {
            msg.stop_satisfied_step = step_count_;
        }
    }
}

bool flooding_sim::all_stopped() const noexcept {
    for (const message_state& msg : messages_) {
        if (!msg.stop_satisfied_step.has_value()) {
            return false;
        }
    }
    return true;
}

bool flooding_sim::all_informed() const noexcept {
    for (const message_state& msg : messages_) {
        if (!msg.spawned || msg.informed_count != walker_.size()) {
            return false;
        }
    }
    return true;
}

bool flooding_sim::all_informed(std::size_t m) const {
    const message_state& msg = messages_.at(m);
    return msg.spawned && msg.informed_count == walker_.size();
}

std::size_t flooding_sim::step() {
    ++step_count_;
    {
        const util::phase_timer timing(profile_, util::phase::advance);
        walker_.step(*exec_);
    }
    {
        const util::phase_timer timing(profile_, util::phase::grid_rebuild);
        grid_.rebuild(walker_.positions(), walker_.ids(), *exec_);
    }
    dsu_ready_ = false;

    // Scan-phase timing brackets the whole message loop but excludes the
    // nested shared-component build, which bills to its own phase inside
    // build_components() — the four phases tile a step without overlap.
    const bool timing_on = util::telemetry::enabled();
    const auto scan_start =
        timing_on ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
    const double components_before =
        profile_.seconds[static_cast<std::size_t>(util::phase::components)];

    // One kinematics pass above, then every live message transmits over the
    // shared grid. Messages are independent overlays: order is fixed (spec
    // order) and no message reads another's state, so the per-message
    // outcomes — timeline included — equal k single-message runs on the
    // same trace (a completed message's timeline stays frozen at its
    // completion step, exactly where its standalone run would have ended).
    const std::size_t n = walker_.size();
    std::size_t total_newly = 0;
    for (message_state& msg : messages_) {
        const bool was_complete = msg.spawned && msg.informed_count == n;
        if (msg.spawned && !was_complete) {
            newly_.clear();
            propagate(msg);
            commit(msg);
            update_zone_metrics(msg);
            total_newly += newly_.size();
        } else if (!msg.spawned && msg.spec.spawn_step == step_count_) {
            spawn(msg);
            total_newly += msg.informed_count;
        }
        if (cfg_.record_timeline && !was_complete) {
            msg.timeline.push_back(msg.informed_count);  // 0 while unspawned
        }
    }
    if (timing_on) {
        const double loop_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - scan_start)
                .count();
        const double components_delta =
            profile_.seconds[static_cast<std::size_t>(util::phase::components)] -
            components_before;
        profile_.add(util::phase::scan, loop_seconds - components_delta);
    }
    if ((step_count_ - 1) % resort_period == 0) {
        const util::phase_timer timing(profile_, util::phase::grid_rebuild);
        resort_agents();
    }
    refresh_stop_satisfaction();
    return total_newly;
}

message_result flooding_sim::result_of(const message_state& msg) const {
    message_result r;
    r.completed = msg.spawned && msg.informed_count == walker_.size();
    r.flooding_time = r.completed ? msg.last_informed_step : step_count_;
    r.informed_count = msg.informed_count;
    if (msg.spawned) {
        r.informed_at = msg.informed_at;
    } else {
        r.informed_at.assign(walker_.size(), never_informed);
    }
    r.timeline = msg.timeline;
    r.sources = msg.sources;
    r.spawn_step = msg.spec.spawn_step;
    r.stop_satisfied_step = msg.stop_satisfied_step;
    r.central_zone_informed_step = msg.cz_informed_step;
    r.last_suburb_informed_step = msg.last_suburb_informed_step;
    return r;
}

spread_result flooding_sim::run_spread() {
    while (!all_stopped() && step_count_ < cfg_.max_steps) {
        (void)step();
    }
    spread_result result;
    result.completed = all_stopped();
    result.steps = step_count_;
    result.messages.reserve(messages_.size());
    for (const message_state& msg : messages_) {
        result.messages.push_back(result_of(msg));
    }
    return result;
}

}  // namespace manhattan::core
