// Differential determinism suite for the SoA hot-path refactor.
//
// Golden fixtures under tests/fixtures/ were captured from the pre-refactor
// (array-of-structs) simulation and are checked in; the current build must
// reproduce them byte-for-byte. Every mobility model (mrwp, rwp, random_walk,
// random_direction, static, plus the graph-native MRWP on a street plan and
// trace replay over a fixed tour) is crossed with every propagation mode
// (one_hop, gossip, per_component) and each combination is evaluated at
// 1/2/8 replica threads and 1/2/8 intra_threads — all nine parallelism
// shapes must emit the exact bytes the serial pre-refactor run produced.
// The graph_mrwp and trace fixtures were captured later, from the engine
// that kept agent storage in id order, so they pin those two models against
// storage-order changes too. A separate kinematics
// fixture pins the walker advance bitwise (position/waypoint/destination bit
// patterns hashed per agent), so a layout or instruction-selection change
// that perturbs even one IEEE result is caught here, not in a downstream
// statistic. The suite must pass on both the vectorized and the
// scalar-fallback (-DMANHATTAN_VECTORIZE=OFF) builds.
//
// Regenerating fixtures (only when *intentionally* changing simulation
// semantics — see docs/PERF.md):
//   MANHATTAN_REGEN_FIXTURES=1 ./soa_differential_test
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "geom/street_graph.h"
#include "core/spread.h"
#include "engine/runner.h"
#include "engine/thread_pool.h"
#include "mobility/factory.h"
#include "mobility/walker.h"
#include "rng/rng.h"

namespace {

namespace core = manhattan::core;
namespace mobility = manhattan::mobility;
namespace engine = manhattan::engine;
using manhattan::rng::rng;

// ------------------------------------------------------------- fixtures I/O ---

std::filesystem::path fixture_path(const std::string& name) {
    return std::filesystem::path(MANHATTAN_FIXTURE_DIR) / name;
}

bool regen_requested() { return std::getenv("MANHATTAN_REGEN_FIXTURES") != nullptr; }

// Load the fixture, or (re)write it from \p computed when regeneration was
// requested. Missing fixtures fail loudly with the regeneration command.
std::string load_or_regen(const std::string& name, const std::string& computed) {
    const auto path = fixture_path(name);
    if (regen_requested()) {
        std::filesystem::create_directories(path.parent_path());
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << computed;
        EXPECT_TRUE(out.good()) << "failed to write fixture " << path;
        return computed;
    }
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path
                           << " — regenerate with MANHATTAN_REGEN_FIXTURES=1 "
                              "./soa_differential_test (docs/PERF.md)";
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ---------------------------------------------------- canonical serialization ---

// spread_result is all-integral (counts, steps, ids), so a decimal text dump
// is an exact, portable encoding: byte equality == bit equality.
template <typename Opt>
void put_optional(std::ostringstream& out, const char* key, const Opt& v) {
    out << key << ' ';
    if (v.has_value()) {
        out << *v;
    } else {
        out << "none";
    }
    out << '\n';
}

void put_message(std::ostringstream& out, const core::message_result& m) {
    out << "message completed " << int{m.completed} << " flooding_time " << m.flooding_time
        << " informed_count " << m.informed_count << " spawn_step " << m.spawn_step << '\n';
    out << "sources";
    for (const std::uint32_t s : m.sources) {
        out << ' ' << s;
    }
    out << '\n';
    put_optional(out, "stop_satisfied_step", m.stop_satisfied_step);
    put_optional(out, "central_zone_informed_step", m.central_zone_informed_step);
    out << "last_suburb_informed_step " << m.last_suburb_informed_step << '\n';
    out << "informed_at";
    for (const std::uint32_t v : m.informed_at) {
        out << ' ' << v;
    }
    out << '\n';
    out << "timeline";
    for (const std::size_t v : m.timeline) {
        out << ' ' << v;
    }
    out << '\n';
}

std::string serialize_spread(const core::spread_result& r) {
    std::ostringstream out;
    out << "spread completed " << int{r.completed} << " steps " << r.steps << " messages "
        << r.messages.size() << '\n';
    for (const core::message_result& m : r.messages) {
        put_message(out, m);
    }
    return out.str();
}

// --------------------------------------------------------- kinematics digest ---

std::uint64_t fnv64(std::uint64_t h, std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xffU;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t fnv64(std::uint64_t h, double v) {
    return fnv64(h, std::bit_cast<std::uint64_t>(v));
}

// Hash the complete kinematic state of every agent — raw IEEE bit patterns,
// so two walkers digest equal iff their states are bit-identical.
std::uint64_t digest_walker(const mobility::walker& w) {
    std::uint64_t h = 14695981039346656037ULL;
    for (std::size_t i = 0; i < w.size(); ++i) {
        const mobility::trip_state s = w.agent(i);
        h = fnv64(h, s.pos.x);
        h = fnv64(h, s.pos.y);
        h = fnv64(h, s.waypoint.x);
        h = fnv64(h, s.waypoint.y);
        h = fnv64(h, s.dest.x);
        h = fnv64(h, s.dest.y);
        h = fnv64(h, std::uint64_t{s.leg});
    }
    for (const std::uint64_t v : w.turn_counts()) {
        h = fnv64(h, v);
    }
    for (const std::uint64_t v : w.arrival_counts()) {
        h = fnv64(h, v);
    }
    return h;
}

std::string hex16(std::uint64_t v) {
    std::ostringstream out;
    out << std::hex << std::setw(16) << std::setfill('0') << v;
    return out.str();
}

// ------------------------------------------------------------- combo matrix ---

const mobility::model_kind kModels[] = {
    mobility::model_kind::mrwp,           mobility::model_kind::rwp,
    mobility::model_kind::random_walk,    mobility::model_kind::random_direction,
    mobility::model_kind::static_agents,
};

struct combo {
    mobility::model_kind model;
    core::propagation mode;
    bool streets = false;  ///< mrwp on an explicit street plan (graph_mrwp)
};

/// The fixture / test-label name of a combo's model.
std::string model_name(const combo& c) {
    return c.streets ? "graph_mrwp" : mobility::model_kind_name(c.model);
}

const char* mode_name(core::propagation mode) {
    switch (mode) {
        case core::propagation::one_hop: return "one_hop";
        case core::propagation::per_component: return "per_component";
        case core::propagation::gossip: return "gossip";
    }
    return "?";
}

// A small but full-featured workload: two messages (a corner flood plus a
// two-source random message spawning mid-run), Central-Zone metrics on, and
// the per-step timeline recorded — every field of spread_result is exercised.
core::scenario combo_scenario(const combo& c) {
    core::scenario sc;
    const std::size_t n = 500;
    sc.params = core::net_params::standard_case(
        n, 3.0 * std::sqrt(std::log(static_cast<double>(n))), 1.0);
    sc.model = c.model;
    sc.seed = 0x50a0 + static_cast<std::uint64_t>(c.model) * 16 +
              static_cast<std::uint64_t>(c.mode) + (c.streets ? 0x100 : 0);
    if (c.streets) {
        // Graded blocks with one blocked segment and one one-way street, so
        // routing, blocked edges and one-way edges all shape the trips.
        auto plan = manhattan::geom::street_graph_spec::graded(sc.params.side, 4, 1.3);
        plan.blocked.push_back({1, 2, 2, 2});
        plan.one_way.push_back({0, 1, 1, 1});
        sc.topology = manhattan::geom::topology_spec::streets(std::move(plan));
    }
    if (c.model == mobility::model_kind::trace_replay) {
        sc.model_opts.trace = std::make_shared<const std::vector<manhattan::geom::vec2>>(
            std::vector<manhattan::geom::vec2>{
                {2.0, 2.0}, {20.0, 2.0}, {20.0, 20.0}, {11.0, 11.0}, {2.0, 20.0}});
    }
    sc.record_timeline = true;
    sc.with_cell_partition = true;
    sc.max_steps = 3000;
    core::message_spec first;
    first.sources = core::source_spec::at(core::source_placement::corner_most);
    first.mode = c.mode;
    core::message_spec second;
    second.sources = core::source_spec::random(2);
    second.spawn_step = 3;
    second.mode = c.mode;
    if (c.mode == core::propagation::gossip) {
        first.gossip_p = 0.35;
        second.gossip_p = 0.35;
    }
    sc.spread.messages = {first, second};
    sc.spread.stop = core::stop_rule::all_informed();
    return sc;
}

// The full canonical text of one combo at one parallelism shape: the direct
// run_scenario result plus two engine-level replicas. Equal bytes across
// shapes == bit-identical results (spread_result is all-integral).
std::string canonical_text(const combo& c, std::size_t replica_threads,
                           std::size_t intra_threads) {
    core::scenario sc = combo_scenario(c);
    sc.intra_threads = intra_threads;
    std::ostringstream out;
    out << "soa differential fixture v1\n";
    out << "combo " << model_name(c) << ' ' << mode_name(c.mode)
        << " n " << sc.params.n << " seed " << sc.seed << '\n';
    out << "direct\n" << serialize_spread(core::run_scenario(sc).spread);
    const auto replicas = engine::run_replicas(sc, 2, {.threads = replica_threads});
    for (std::size_t r = 0; r < replicas.size(); ++r) {
        out << "replica " << r << '\n' << serialize_spread(replicas[r].spread);
    }
    return out.str();
}

std::string combo_fixture_name(const combo& c) {
    return "soa_" + model_name(c) + "_" + mode_name(c.mode) + ".txt";
}

// -------------------------------------------------------------------- tests ---

class soa_differential : public ::testing::TestWithParam<combo> {};

TEST_P(soa_differential, matches_pre_refactor_fixture_at_every_thread_count) {
    const combo c = GetParam();
    const std::string serial = canonical_text(c, 1, 1);
    const std::string expected = load_or_regen(combo_fixture_name(c), serial);
    ASSERT_EQ(serial, expected)
        << "serial run diverged from the pre-refactor golden fixture";
    // Replica-level fan-out at 2 and 8 worker threads, then intra-replica
    // lane parallelism at 2 and 8 lanes: each must emit the exact same bytes.
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        EXPECT_EQ(canonical_text(c, threads, 1), expected)
            << "replica level diverged at threads=" << threads;
    }
    for (const std::size_t intra : {std::size_t{2}, std::size_t{8}}) {
        EXPECT_EQ(canonical_text(c, 1, intra), expected)
            << "intra-replica level diverged at intra_threads=" << intra;
    }
}

std::string combo_label(const ::testing::TestParamInfo<combo>& info) {
    return model_name(info.param) + "_" + mode_name(info.param.mode);
}

std::vector<combo> all_combos() {
    std::vector<combo> out;
    const core::propagation modes[] = {core::propagation::one_hop, core::propagation::gossip,
                                       core::propagation::per_component};
    for (const mobility::model_kind model : kModels) {
        for (const core::propagation mode : modes) {
            out.push_back({model, mode});
        }
    }
    for (const core::propagation mode : modes) {
        out.push_back({mobility::model_kind::mrwp, mode, /*streets=*/true});
        out.push_back({mobility::model_kind::trace_replay, mode});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(all_models_and_modes, soa_differential,
                         ::testing::ValuesIn(all_combos()), combo_label);

// The kinematics digest pins the advance kernel bitwise, per model: serial
// stepping, a coarse advance_time jump, and the uniform_fresh start mode.
// Lane-parallel stepping must match the serial digest exactly (same fixture
// line), at 2 and 8 lanes.
TEST(soa_walker_kinematics, digest_matches_fixture_at_every_lane_count) {
    const double side = 40.0;
    const std::size_t n = 300;
    const double speed = 0.9;
    std::ostringstream text;
    text << "walker kinematics fixture v1\n";
    for (const mobility::model_kind kind : kModels) {
        const auto model = mobility::make_model(kind, side, {});
        const std::uint64_t seed = 11 + static_cast<std::uint64_t>(kind);

        mobility::walker serial(model, n, speed, rng{seed});
        for (int s = 0; s < 60; ++s) {
            serial.step();
        }
        const std::uint64_t stepped = digest_walker(serial);
        serial.advance_time(7.25);
        const std::uint64_t jumped = digest_walker(serial);

        mobility::walker fresh(model, n, speed, rng{seed},
                               mobility::start_mode::uniform_fresh);
        for (int s = 0; s < 10; ++s) {
            fresh.step();
        }
        const std::uint64_t fresh_digest = digest_walker(fresh);

        text << mobility::model_kind_name(kind) << " steps " << hex16(stepped)
             << " advance " << hex16(jumped) << " fresh " << hex16(fresh_digest) << '\n';

        for (const std::size_t lanes : {std::size_t{2}, std::size_t{8}}) {
            engine::thread_pool pool(lanes);
            mobility::walker parallel(model, n, speed, rng{seed});
            for (int s = 0; s < 60; ++s) {
                parallel.step(pool.executor());
            }
            EXPECT_EQ(digest_walker(parallel), stepped)
                << mobility::model_kind_name(kind) << " diverged at " << lanes << " lanes";
        }
    }
    const std::string expected = load_or_regen("walker_kinematics.txt", text.str());
    EXPECT_EQ(text.str(), expected)
        << "kinematics diverged bitwise from the pre-refactor fixture";
}

}  // namespace
