/// \file factory.h
/// String-keyed construction of mobility models (bench/example CLI surface)
/// with topology-aware dispatch: the same model kind resolves to the grid
/// implementation under `manhattan_grid` and to the graph-native one under
/// `street_graph` (docs/TOPOLOGY.md).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "geom/street_graph.h"
#include "geom/vec2.h"
#include "mobility/model.h"

namespace manhattan::mobility {

/// The models the harness can instantiate.
enum class model_kind { mrwp, rwp, random_walk, random_direction, static_agents, trace_replay };

/// Tunables for the parameterised baselines; defaults scale with the side.
struct model_options {
    double walk_step_radius = 0.0;    ///< random_walk rho; 0 -> side/10
    double direction_max_leg = 0.0;   ///< random_direction max leg; 0 -> side/2
    /// The tour trace_replay follows; required for (and only used by) the
    /// trace_replay kind. Shared so replicas reuse one copy.
    std::shared_ptr<const std::vector<geom::vec2>> trace;
};

/// Construct a model over [0, side]^2 for the Manhattan-grid topology.
/// Equivalent to the topology-aware overload with a default topology_spec;
/// kept so every pre-existing call site compiles unchanged. Throws on
/// invalid parameters.
[[nodiscard]] std::shared_ptr<const mobility_model> make_model(model_kind kind, double side,
                                                               model_options opts = {});

/// Topology-aware construction. `manhattan_grid` dispatches exactly like the
/// legacy overload; `street_graph` compiles the plan (memoised) and supports
/// only model_kind::mrwp, resolved to the graph-native waypoint model
/// (graph_mrwp.h). Throws std::invalid_argument for every combination
/// check_model_topology rejects, plus structural topology errors.
[[nodiscard]] std::shared_ptr<const mobility_model> make_model(
    model_kind kind, const geom::topology_spec& topology, double side, model_options opts = {});

/// The cheap validation make_model applies before building anything: the
/// street_graph topology supports only mrwp, and trace_replay requires trace
/// data. Throws std::invalid_argument; used by sweep/scenario validation so
/// bad combinations fail at expand() time rather than mid-run.
void check_model_topology(model_kind kind, const geom::topology_spec& topology,
                          const model_options& opts);

/// One model kind and its name on the command line, the wire and in labels.
struct model_kind_entry {
    model_kind value;
    const char* name;
};
inline constexpr model_kind_entry model_kind_names[] = {
    {model_kind::mrwp, "mrwp"},
    {model_kind::rwp, "rwp"},
    {model_kind::random_walk, "random_walk"},
    {model_kind::random_direction, "random_direction"},
    {model_kind::static_agents, "static"},
    {model_kind::trace_replay, "trace"},
};

/// Parse a model_kind_names name. Throws std::invalid_argument on unknown
/// names.
[[nodiscard]] model_kind parse_model_kind(const std::string& name);

/// Inverse of parse_model_kind (sweep labels, result sinks).
[[nodiscard]] std::string model_kind_name(model_kind kind);

}  // namespace manhattan::mobility
