// Scenario schema tests (engine/scenario_schema.h): every field the schema
// visits moves the fingerprint, is named by first_spec_difference, and
// round-trips both codecs (the fabric spec point line and the wire JSON)
// bit for bit, NaN payloads and negative zero included; intra_threads stays
// outside the schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "engine/fabric.h"
#include "engine/manifest.h"
#include "engine/scenario_schema.h"
#include "geom/street_graph.h"
#include "service/wire.h"

namespace {

namespace core = manhattan::core;
namespace engine = manhattan::engine;
namespace geom = manhattan::geom;
namespace mobility = manhattan::mobility;
namespace service = manhattan::service;

/// A scenario that makes the schema visit every field, each away from its
/// default: both optional blocks (a street plan with blocked and one-way
/// edges, a replay tour) and two messages, one with explicit source ids.
core::scenario every_field_scenario() {
    core::scenario sc;
    sc.params = core::net_params::standard_case(1200, 9.5, 0.75);
    sc.model_opts.walk_step_radius = 1.25;
    sc.model_opts.direction_max_leg = 4.5;
    sc.mode = core::propagation::gossip;
    sc.gossip_p = 0.625;
    sc.source = core::source_placement::corner_ne;
    sc.seed = 0xdeadbeefcafef00dULL;
    sc.stationary_start = false;
    sc.warmup_time = 2.5;
    sc.max_steps = 12'345;
    sc.record_timeline = true;
    sc.with_cell_partition = false;
    sc.spread.stop = core::stop_rule::informed_fraction(0.9);
    core::message_spec first;
    first.sources = core::source_spec::at(core::source_placement::center_most, 3);
    first.spawn_step = 7;
    first.mode = core::propagation::per_component;
    core::message_spec second;
    second.sources = core::source_spec::agents({5, 9, 11});
    second.mode = core::propagation::gossip;
    second.gossip_p = 0.5;
    second.gossip_seed = 77;
    second.source_seed = 78;
    sc.spread.messages = {first, second};
    auto plan = geom::street_graph_spec::uniform(sc.params.side, 3);
    plan.blocked.push_back({0, 0, 1, 0});
    plan.one_way.push_back({1, 1, 1, 2});
    sc.topology = geom::topology_spec::streets(std::move(plan));
    sc.model = mobility::model_kind::trace_replay;
    sc.model_opts.trace = std::make_shared<const std::vector<geom::vec2>>(
        std::vector<geom::vec2>{{1.0, 1.0}, {5.0, 1.0}, {5.0, 5.0}});
    return sc;
}

/// Schema visitor changing exactly the target-th scalar it meets, and
/// recording that scalar's first_spec_difference path. Doubles become a NaN
/// with a payload (variant 0) or negative zero (variant 1); integers grow by
/// one, booleans flip, enums move to the next enumerator.
class mutate_one {
 public:
    mutate_one(std::size_t target, int variant) : target_(target), variant_(variant) {}

    std::size_t scalars = 0;  ///< scalars visited
    std::string path;         ///< path of the changed scalar ("" = none changed)
    bool real = false;        ///< the changed scalar is a double

    template <typename T>
    void field(const char* name, T& v) {
        if (scalars++ != target_) {
            return;
        }
        if constexpr (std::is_floating_point_v<T>) {
            v = variant_ == 0 ? std::bit_cast<double>(0x7ff80000deadbeefULL) : -0.0;
            real = true;
        } else if constexpr (std::is_same_v<T, bool>) {
            v = !v;
        } else if constexpr (std::is_enum_v<T>) {
            const auto& names = engine::schema::names_for(v);
            if (std::size(names) == 1) {
                return;  // a one-value enum has nothing to change to
            }
            std::size_t i = 0;
            while (names[i].value != v) {
                ++i;
            }
            v = names[(i + 1) % std::size(names)].value;
        } else {
            ++v;
        }
        path = join(name);
    }
    template <typename F>
    void group(const char* name, const char*, F&& fn) {
        nested(join(name), fn);
    }
    template <typename T, typename F>
    void list(const char* name, const char*, std::vector<T>& items, engine::schema::layout,
              std::size_t, F&& fn) {
        const std::string base = join(name);
        for (std::size_t i = 0; i < items.size(); ++i) {
            nested(base + "[" + std::to_string(i) + "]", [&] { fn(items[i]); });
        }
    }
    template <typename F>
    void block(const char*, const char*, bool present, F&& fn) {
        if (present) {
            fn();
        }
    }
    void tag(const char*) {}

 private:
    [[nodiscard]] std::string join(const char* name) const {
        return prefix_.empty() ? name : prefix_ + "." + name;
    }
    template <typename F>
    void nested(std::string prefix, F&& fn) {
        std::swap(prefix_, prefix);
        fn();
        std::swap(prefix_, prefix);
    }

    std::size_t target_;
    int variant_;
    std::string prefix_;
};

TEST(schema_property, every_field_moves_the_fingerprint_is_named_and_round_trips) {
    const std::vector<engine::sweep_point> base{{every_field_scenario(), 0, "p"}};
    const std::uint64_t base_fp = engine::sweep_fingerprint(base, 2);

    std::size_t changed = 0;
    std::size_t scalars = 0;
    for (std::size_t target = 0; target == 0 || target < scalars; ++target) {
        for (const int variant : {0, 1}) {
            std::vector<engine::sweep_point> points = base;
            mutate_one mutate(target, variant);
            engine::schema::visit_scenario(points[0].sc, mutate);
            // A changed model can drop the trace block: keep the largest count.
            scalars = std::max(scalars, mutate.scalars);
            if (mutate.path.empty()) {
                break;
            }
            ++changed;
            SCOPED_TRACE(mutate.path + " variant " + std::to_string(variant));

            EXPECT_NE(engine::sweep_fingerprint(points, 2), base_fp);
            const std::string diff = engine::first_spec_difference(base, 2, points, 2);
            EXPECT_EQ(diff.rfind("point 0: " + mutate.path + " (", 0), 0u) << diff;

            // Both codecs reproduce every schema word bit for bit: after a
            // round trip the field-by-field comparison finds nothing.
            std::vector<engine::sweep_point> wire = points;
            wire[0].sc = service::decode_scenario(
                service::parse_json(service::dump(service::encode_scenario(points[0].sc))));
            EXPECT_EQ(engine::first_spec_difference(points, 2, wire, 2), "");

            engine::fabric_spec fabric;
            fabric.points = points;
            fabric.repetitions = 2;
            fabric.fingerprint = engine::sweep_fingerprint(points, 2);
            const engine::fabric_spec text =
                engine::parse_fabric_spec(engine::serialize_fabric_spec(fabric));
            EXPECT_EQ(engine::first_spec_difference(points, 2, text.points, 2), "");

            if (!mutate.real) {
                break;  // only doubles have a second variant
            }
        }
    }
    // Every scalar of every_field_scenario() except the one-value topology
    // kind changed, the doubles twice.
    EXPECT_GT(scalars, 60u);
    EXPECT_GT(changed, scalars);
}

TEST(schema_property, intra_threads_stays_outside_the_schema) {
    std::vector<engine::sweep_point> points{{every_field_scenario(), 0, "p"}};
    const std::uint64_t fp = engine::sweep_fingerprint(points, 1);
    points[0].sc.intra_threads = 8;
    EXPECT_EQ(engine::sweep_fingerprint(points, 1), fp);
}

}  // namespace
