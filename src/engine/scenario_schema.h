/// \file scenario_schema.h
/// The one field list of core::scenario. visit_scenario() walks every
/// output-affecting field exactly once, in the fingerprint's word order, and
/// every scenario encoding is a visitor over it:
///   - word_stream (below), which feeds the fingerprint hasher and writes
///     the fabric spec point line (engine/manifest.cpp, engine/fabric.cpp)
///   - first_spec_difference's word recorder (engine/manifest.cpp)
///   - the fabric spec point-line reader (engine/fabric.cpp)
///   - the wire JSON writer and reader (service/wire.cpp)
/// Adding a scenario field is one line here. intra_threads is deliberately
/// absent: it is a wall-clock-only knob (docs/ENGINE.md "Fingerprint rules").
///
/// A visitor walks `const core::scenario` (hasher, diff, writers) or fills a
/// `core::scenario` (readers), so every reference below is const or mutable
/// accordingly. Its members:
///   field(name, v)     one scalar; its type is its kind: an unsigned or
///                      narrower integer (one word; readers reject values the
///                      type cannot hold), bool (0/1), double (IEEE-754 bits),
///                      or an enum (its integer; JSON uses its names_for name)
///   group(name, tag, fn)          nested fields: a JSON object, a text tag
///   list(name, tag, items, layout, min_items, fn)
///                      count word, then fn(item) per item
///   block(name, tag, present, fn) optional member `name` (JSON) or `tag`
///                      (text); fed only when present
///   tag(tag)           a text-only marker token
/// Names are JSON member names and first_spec_difference path parts; tags
/// (nullptr = none) are fabric spec tokens.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/scenario.h"

namespace manhattan::engine::schema {

template <typename E>
struct enum_name {
    E value;
    const char* name;
};

inline constexpr enum_name<core::propagation> propagation_names[] = {
    {core::propagation::one_hop, "one_hop"},
    {core::propagation::per_component, "per_component"},
    {core::propagation::gossip, "gossip"},
};
inline constexpr enum_name<core::source_placement> placement_names[] = {
    {core::source_placement::random_agent, "random_agent"},
    {core::source_placement::center_most, "center_most"},
    {core::source_placement::corner_most, "corner_most"},
    {core::source_placement::corner_ne, "corner_ne"},
    {core::source_placement::corner_nw, "corner_nw"},
    {core::source_placement::corner_se, "corner_se"},
};
inline constexpr enum_name<core::source_spec::kind> source_kind_names[] = {
    {core::source_spec::kind::placement, "placement"},
    {core::source_spec::kind::explicit_ids, "explicit_ids"},
    {core::source_spec::kind::random_k, "random_k"},
};
inline constexpr enum_name<core::stop_rule::kind> stop_kind_names[] = {
    {core::stop_rule::kind::all_informed, "all_informed"},
    {core::stop_rule::kind::informed_fraction, "informed_fraction"},
    {core::stop_rule::kind::central_zone, "central_zone"},
    {core::stop_rule::kind::step_budget, "step_budget"},
};
/// A topology block always holds a street plan: the pure grid is the
/// block's absence, so a grid kind inside one is rejected on input.
inline constexpr enum_name<geom::topology_kind> street_kind_names[] = {
    {geom::topology_kind::street_graph, "street_graph"},
};

/// The name table of each enum the schema visits. Every enumerator must be
/// listed: the readers accept exactly these values.
constexpr const auto& names_for(mobility::model_kind) { return mobility::model_kind_names; }
constexpr const auto& names_for(core::propagation) { return propagation_names; }
constexpr const auto& names_for(core::source_placement) { return placement_names; }
constexpr const auto& names_for(core::source_spec::kind) { return source_kind_names; }
constexpr const auto& names_for(core::stop_rule::kind) { return stop_kind_names; }
constexpr const auto& names_for(geom::topology_kind) { return street_kind_names; }

/// Name of \p value, nullptr when its table has none.
template <typename E>
constexpr const char* name_of(E value) {
    for (const auto& entry : names_for(value)) {
        if (entry.value == value) {
            return entry.name;
        }
    }
    return nullptr;
}

/// The word a scalar contributes to the fingerprint and the fabric spec.
template <typename T>
constexpr std::uint64_t word_of(T v) {
    if constexpr (std::is_floating_point_v<T>) {
        return std::bit_cast<std::uint64_t>(v);
    } else {
        return static_cast<std::uint64_t>(v);
    }
}

/// Set the integer or enum \p v from its word \p raw; false when \p v's
/// type cannot hold it (an integer past the type's max, an enumerator its
/// table lacks), so a reader never narrows silently.
template <typename T>
constexpr bool from_word(std::uint64_t raw, T& v) {
    if constexpr (std::is_enum_v<T>) {
        for (const auto& entry : names_for(v)) {
            if (word_of(entry.value) == raw) {
                v = entry.value;
                return true;
            }
        }
        return false;
    } else {
        if (raw > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
            return false;
        }
        v = static_cast<T>(raw);
        return true;
    }
}

/// How list items sit in JSON: `flat` splices every item's fields into the
/// list's array (one scalar per item, or the trace's x,y pairs), `tuple`
/// gives each item its own array, `record` its own object.
enum class layout { flat, tuple, record };

/// The visitor that flattens a scenario to its word stream: each scalar's
/// word_of, each list's count before its items, and the fabric spec's tags;
/// absent blocks add nothing. The fingerprint folds this stream, and a
/// fabric spec point line is this stream as text. \p Sink takes
/// word(bits, is_double) and tag(token).
template <typename Sink>
class word_stream {
 public:
    explicit word_stream(Sink& sink) : sink_(sink) {}

    template <typename T>
    void field(const char*, T v) {
        sink_.word(word_of(v), std::is_floating_point_v<T>);
    }
    template <typename F>
    void group(const char*, const char* tag, F&& fn) {
        if (tag != nullptr) {
            sink_.tag(tag);
        }
        fn();
    }
    template <typename T, typename F>
    void list(const char* name, const char* tag, const std::vector<T>& items, layout,
              std::size_t, F&& fn) {
        group(name, tag, [&] {
            sink_.word(items.size(), false);
            for (const T& item : items) {
                fn(item);
            }
        });
    }
    template <typename F>
    void block(const char* name, const char* tag, bool present, F&& fn) {
        if (present) {
            group(name, tag, fn);
        }
    }
    void tag(const char* tag) { sink_.tag(tag); }

 private:
    Sink& sink_;
};

/// The replay tour as a list: the scenario's own tour when walking it, and
/// when filling or editing it a private copy installed into the scenario, so
/// the tour other scenarios share is never written.
inline const std::vector<geom::vec2>& tour(const core::scenario& sc) {
    return *sc.model_opts.trace;
}
inline std::vector<geom::vec2>& tour(core::scenario& sc) {
    auto own = sc.model_opts.trace != nullptr
                   ? std::make_shared<std::vector<geom::vec2>>(*sc.model_opts.trace)
                   : std::make_shared<std::vector<geom::vec2>>();
    sc.model_opts.trace = own;
    return *own;
}

template <typename Sc, typename V>
void visit_scenario(Sc& sc, V& v) {
    v.field("n", sc.params.n);
    v.field("side", sc.params.side);
    v.field("radius", sc.params.radius);
    v.field("speed", sc.params.speed);
    // Fed only off the grid, so pure-grid fingerprints predate topologies.
    v.block("topology", "topo", !sc.topology.is_grid(), [&] {
        v.group("topology", nullptr, [&] {
            auto& street = sc.topology.street;
            const auto edge = [&](auto& e) {
                v.field("ax", e.ax);
                v.field("ay", e.ay);
                v.field("bx", e.bx);
                v.field("by", e.by);
            };
            v.field("kind", sc.topology.kind);
            v.list("xs", nullptr, street.xs, layout::flat, 0,
                   [&](auto& x) { v.field("x", x); });
            v.list("ys", nullptr, street.ys, layout::flat, 0,
                   [&](auto& y) { v.field("y", y); });
            v.list("blocked", nullptr, street.blocked, layout::tuple, 0, edge);
            v.list("one_way", nullptr, street.one_way, layout::tuple, 0, edge);
        });
    });
    v.field("model", sc.model);
    v.field("walk_step_radius", sc.model_opts.walk_step_radius);
    v.field("direction_max_leg", sc.model_opts.direction_max_leg);
    // The tour affects output only under trace_replay, so only then is it fed.
    v.block("trace", "trace",
            sc.model == mobility::model_kind::trace_replay && sc.model_opts.trace != nullptr,
            [&] {
                v.list("trace", nullptr, tour(sc), layout::flat, 2, [&](auto& p) {
                    v.field("x", p.x);
                    v.field("y", p.y);
                });
            });
    v.field("mode", sc.mode);
    v.field("gossip_p", sc.gossip_p);
    v.field("source", sc.source);
    v.field("seed", sc.seed);
    v.field("stationary_start", sc.stationary_start);
    v.field("warmup_time", sc.warmup_time);
    v.field("max_steps", sc.max_steps);
    v.field("record_timeline", sc.record_timeline);
    v.field("with_cell_partition", sc.with_cell_partition);
    v.group("stop", "stop", [&] {
        v.field("how", sc.spread.stop.how);
        v.field("fraction", sc.spread.stop.fraction);
        v.field("steps", sc.spread.stop.steps);
    });
    v.list("messages", "messages", sc.spread.messages, layout::record, 0, [&](auto& msg) {
        v.group("sources", "src", [&] {
            v.field("how", msg.sources.how);
            v.field("placement", msg.sources.placement);
            v.field("count", msg.sources.count);
            v.list("ids", nullptr, msg.sources.ids, layout::flat, 0,
                   [&](auto& id) { v.field("id", id); });
        });
        v.tag("msg");
        v.field("spawn_step", msg.spawn_step);
        v.field("mode", msg.mode);
        v.field("gossip_p", msg.gossip_p);
        v.field("gossip_seed", msg.gossip_seed);
        v.field("source_seed", msg.source_seed);
    });
}

}  // namespace manhattan::engine::schema
