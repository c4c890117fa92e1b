// Storage-order invisibility: a walker's agents have stable ids, and their
// storage slots may be permuted at any time (walker::reorder) — the flooding
// simulation re-sorts them into the spatial grid's bucket order every
// flooding_sim::resort_period steps. Nothing keyed by agent id may notice:
// after hundreds of steps with random and bucket-order re-sorts in between,
// every agent's state, the id-indexed counters and the trip-draw generator
// must be bit-identical to a twin walker that was never re-sorted, at any
// lane count. Frames recorded from a re-sorting simulation must equal the
// twin's too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flooding.h"
#include "engine/thread_pool.h"
#include "geom/street_graph.h"
#include "geom/uniform_grid.h"
#include "mobility/factory.h"
#include "mobility/trace.h"
#include "mobility/walker.h"
#include "rng/rng.h"
#include "test_support.h"

namespace {

namespace core = manhattan::core;
namespace engine = manhattan::engine;
namespace geom = manhattan::geom;
namespace mobility = manhattan::mobility;
namespace util = manhattan::util;
using manhattan::rng::rng;
using manhattan::test_support::inline_lanes;

constexpr double kSide = 40.0;
constexpr std::size_t kAgents = 300;
constexpr double kSpeed = 0.9;  // many trip ends per agent over the run
constexpr int kSteps = 300;

struct model_case {
    std::string name;
    std::shared_ptr<const mobility::mobility_model> model;
};

/// Every model kind, plus the graph-native MRWP on a street plan.
std::vector<model_case> all_models() {
    std::vector<model_case> out;
    for (const auto& [kind, name] : mobility::model_kind_names) {
        mobility::model_options opts;
        if (kind == mobility::model_kind::trace_replay) {
            opts.trace = std::make_shared<const std::vector<geom::vec2>>(
                std::vector<geom::vec2>{{2.0, 2.0}, {38.0, 2.0}, {38.0, 38.0}, {20.0, 20.0}});
        }
        out.push_back({name, mobility::make_model(kind, kSide, opts)});
    }
    auto plan = geom::street_graph_spec::graded(kSide, 5, 1.3);
    plan.blocked.push_back({1, 2, 2, 2});
    out.push_back({"graph_mrwp",
                   mobility::make_model(mobility::model_kind::mrwp,
                                        geom::topology_spec::streets(std::move(plan)), kSide)});
    return out;
}

/// Re-sort \p w's storage into a uniform permutation of the agents.
void reorder_randomly(mobility::walker& w, std::mt19937_64& shuffle) {
    std::vector<std::uint32_t> ids(w.size());
    std::iota(ids.begin(), ids.end(), 0u);
    std::shuffle(ids.begin(), ids.end(), shuffle);
    std::vector<geom::vec2> positions;
    for (const std::uint32_t id : ids) {
        positions.push_back(w.position(id));
    }
    w.reorder(ids, positions);
    ASSERT_EQ(positions.size(), w.size());  // the displaced buffer comes back
}

/// Re-sort \p w's storage into a grid's bucket order, as flooding_sim does.
void reorder_by_bucket(mobility::walker& w, geom::uniform_grid& grid) {
    util::serial_executor one_lane;
    grid.rebuild(w.positions(), w.ids(), one_lane);
    std::vector<geom::vec2> positions;
    grid.swap_sorted_points(positions);
    w.reorder(grid.items(), positions);
    grid.swap_sorted_points(positions);
}

bool bit_equal(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bit_equal(geom::vec2 a, geom::vec2 b) {
    return bit_equal(a.x, b.x) && bit_equal(a.y, b.y);
}

/// Everything a walker exposes by id, compared bitwise, plus the next draw.
void expect_same_by_id(const mobility::walker& sorted, const mobility::walker& plain,
                       const std::string& label) {
    ASSERT_EQ(sorted.size(), plain.size());
    for (std::size_t id = 0; id < plain.size(); ++id) {
        const mobility::trip_state a = sorted.agent(id);
        const mobility::trip_state b = plain.agent(id);
        ASSERT_TRUE(bit_equal(a.pos, b.pos) && bit_equal(a.waypoint, b.waypoint) &&
                    bit_equal(a.dest, b.dest) && a.leg == b.leg)
            << label << ": agent " << id;
        ASSERT_TRUE(bit_equal(sorted.position(id), plain.position(id)))
            << label << ": position of " << id;
        ASSERT_TRUE(bit_equal(sorted.positions()[sorted.slots()[id]], b.pos))
            << label << ": storage slot of " << id;
    }
    EXPECT_TRUE(std::ranges::equal(sorted.turn_counts(), plain.turn_counts())) << label;
    EXPECT_TRUE(std::ranges::equal(sorted.arrival_counts(), plain.arrival_counts())) << label;
    EXPECT_EQ(sorted.generator().bits(), plain.generator().bits()) << label;
}

/// Step a never-re-sorted walker on one lane and a twin that is re-sorted
/// between steps (random permutations and bucket order, alternating with
/// plain steps) on \p ex; they must agree by id throughout.
void check_twins(const model_case& mc, util::parallel_executor& ex, const std::string& label) {
    mobility::walker plain(mc.model, kAgents, kSpeed, rng{77});
    mobility::walker sorted(mc.model, kAgents, kSpeed, rng{77});
    geom::uniform_grid grid(kSide, 4.0);
    std::mt19937_64 shuffle(5);
    for (int s = 0; s < kSteps; ++s) {
        switch (s % 4) {
            case 0: reorder_randomly(sorted, shuffle); break;
            case 1: reorder_by_bucket(sorted, grid); break;
            default: break;  // a few steps in a row on one storage order
        }
        plain.step();
        sorted.step(ex);
    }
    ASSERT_FALSE(std::ranges::equal(sorted.ids(), plain.ids()))
        << label << ": the twin was never re-sorted";
    expect_same_by_id(sorted, plain, label);
}

TEST(storage_order, reordering_is_invisible_by_id_at_every_lane_count) {
    for (const model_case& mc : all_models()) {
        for (const std::size_t lanes : {1, 2, 3, 7, 64}) {
            inline_lanes ex(lanes);
            check_twins(mc, ex, mc.name + " inline_lanes " + std::to_string(lanes));
        }
        for (const std::size_t threads : {1, 2, 8}) {
            engine::thread_pool pool(threads);
            check_twins(mc, pool.executor(), mc.name + " pool " + std::to_string(threads));
        }
    }
}

TEST(storage_order, advance_time_and_set_agent_go_by_id) {
    const auto model = mobility::make_model(mobility::model_kind::rwp, kSide);
    mobility::walker plain(model, kAgents, kSpeed, rng{3});
    mobility::walker sorted(model, kAgents, kSpeed, rng{3});
    std::mt19937_64 shuffle(9);
    reorder_randomly(sorted, shuffle);
    const mobility::trip_state injected{{1.0, 2.0}, {1.0, 9.0}, {6.0, 9.0}, 0};
    plain.set_agent(17, injected);
    sorted.set_agent(17, injected);
    plain.advance_time(13.5);
    sorted.advance_time(13.5);
    expect_same_by_id(sorted, plain, "advance_time");
}

TEST(storage_order, reorder_rejects_mismatched_sizes) {
    const auto model = mobility::make_model(mobility::model_kind::mrwp, kSide);
    mobility::walker w(model, 10, kSpeed, rng{1});
    const std::vector<std::uint32_t> ids{0, 1, 2};
    std::vector<geom::vec2> positions(10);
    EXPECT_THROW(w.reorder(ids, positions), std::invalid_argument);
    geom::uniform_grid grid(kSide, 4.0);
    util::serial_executor one_lane;
    EXPECT_THROW(grid.rebuild(w.positions(), ids, one_lane), std::invalid_argument);
}

TEST(storage_order, grid_reports_the_supplied_ids) {
    const std::vector<geom::vec2> points{{1.0, 1.0}, {9.0, 9.0}, {1.5, 1.0}};
    const std::vector<std::uint32_t> ids{7, 3, 5};
    geom::uniform_grid grid(10.0, 2.0);
    util::serial_executor one_lane;
    grid.rebuild(points, ids, one_lane);
    auto near = grid.query({1.0, 1.0}, 1.0);
    std::ranges::sort(near);
    EXPECT_EQ(near, (std::vector<std::uint32_t>{5, 7}));
    EXPECT_EQ(grid.query({9.0, 9.0}, 0.5), (std::vector<std::uint32_t>{3}));
}

// The grid's counting sort is stable, so two simulations whose walkers start
// in different storage orders keep different in-bucket orders for the whole
// run. The scan sorts each (transmitter, bucket) run of discoveries by id;
// that alone keeps the discovery order, and the gossip coins and component
// merges it feeds, independent of the storage order.
TEST(storage_order, spread_results_ignore_the_initial_storage_order) {
    const auto model = mobility::make_model(mobility::model_kind::mrwp, kSide);
    std::mt19937_64 shuffle(13);
    for (const core::propagation mode : {core::propagation::one_hop, core::propagation::gossip,
                                         core::propagation::per_component}) {
        core::spread_config cfg;
        cfg.max_steps = 2'000;
        cfg.spread.messages.push_back(
            {.sources = core::source_spec::agents({0}), .mode = mode, .gossip_p = 0.5});
        mobility::walker shuffled(model, kAgents, kSpeed, rng{31});
        reorder_randomly(shuffled, shuffle);
        core::flooding_sim plain(mobility::walker(model, kAgents, kSpeed, rng{31}), 3.0, cfg);
        core::flooding_sim reordered(std::move(shuffled), 3.0, cfg);
        EXPECT_EQ(reordered.run_spread(), plain.run_spread())
            << "mode " << static_cast<int>(mode);
    }
}

TEST(storage_order, frames_of_a_resorting_simulation_match_an_unsorted_twin) {
    const auto model = mobility::make_model(mobility::model_kind::mrwp, kSide);
    mobility::walker twin(model, kAgents, kSpeed, rng{21});
    core::spread_config cfg;
    cfg.spread.messages.push_back({.sources = core::source_spec::agents({0})});
    core::flooding_sim sim(mobility::walker(model, kAgents, kSpeed, rng{21}), 2.0, cfg);
    mobility::trajectory_recorder from_sim(kAgents);
    mobility::trajectory_recorder from_twin(kAgents);
    from_sim.capture(sim.agents());
    from_twin.capture(twin);
    const std::uint64_t steps = 3 * core::flooding_sim::resort_period;
    for (std::uint64_t s = 0; s < steps; ++s) {
        (void)sim.step();
        twin.step();
        from_sim.capture(sim.agents());
        from_twin.capture(twin);
    }
    ASSERT_FALSE(std::ranges::equal(sim.agents().ids(), twin.ids()))
        << "the simulation never re-sorted its walker";
    ASSERT_EQ(from_sim.frame_count(), from_twin.frame_count());
    for (std::size_t f = 0; f < from_twin.frame_count(); ++f) {
        const auto a = from_sim.frame(f);
        const auto b = from_twin.frame(f);
        for (std::size_t id = 0; id < kAgents; ++id) {
            ASSERT_TRUE(bit_equal(a[id], b[id])) << "frame " << f << " agent " << id;
        }
    }
}

}  // namespace
