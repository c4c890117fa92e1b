#include "mobility/factory.h"

#include <stdexcept>

#include "mobility/graph_mrwp.h"
#include "mobility/mrwp.h"
#include "mobility/random_direction.h"
#include "mobility/random_walk.h"
#include "mobility/rwp.h"
#include "mobility/static_model.h"
#include "mobility/trace.h"

namespace manhattan::mobility {

void check_model_topology(model_kind kind, const geom::topology_spec& topology,
                          const model_options& opts) {
    if (kind == model_kind::trace_replay && opts.trace == nullptr) {
        throw std::invalid_argument("make_model: trace_replay requires model_options::trace");
    }
    if (!topology.is_grid() && kind != model_kind::mrwp) {
        throw std::invalid_argument(
            "make_model: the street_graph topology supports only the mrwp model (kind '" +
            model_kind_name(kind) + "' is grid-only)");
    }
}

std::shared_ptr<const mobility_model> make_model(model_kind kind, double side,
                                                 model_options opts) {
    return make_model(kind, geom::topology_spec::manhattan(), side, std::move(opts));
}

std::shared_ptr<const mobility_model> make_model(model_kind kind,
                                                 const geom::topology_spec& topology,
                                                 double side, model_options opts) {
    check_model_topology(kind, topology, opts);
    if (!topology.is_grid()) {
        topology.validate(side);
        return std::make_shared<graph_waypoint>(side, geom::street_graph::compile(topology.street));
    }
    switch (kind) {
        case model_kind::mrwp:
            return std::make_shared<manhattan_random_waypoint>(side);
        case model_kind::rwp:
            return std::make_shared<random_waypoint>(side);
        case model_kind::random_walk: {
            const double rho = opts.walk_step_radius > 0.0 ? opts.walk_step_radius : side / 10.0;
            return std::make_shared<random_walk>(side, rho);
        }
        case model_kind::random_direction: {
            const double leg = opts.direction_max_leg > 0.0 ? opts.direction_max_leg : side / 2.0;
            return std::make_shared<random_direction>(side, leg);
        }
        case model_kind::static_agents:
            return std::make_shared<static_model>(side);
        case model_kind::trace_replay:
            return std::make_shared<trace_replay>(side, std::move(opts.trace));
    }
    throw std::invalid_argument("make_model: unknown model kind");
}

model_kind parse_model_kind(const std::string& name) {
    for (const model_kind_entry& entry : model_kind_names) {
        if (name == entry.name) {
            return entry.value;
        }
    }
    throw std::invalid_argument("parse_model_kind: unknown model '" + name + "'");
}

std::string model_kind_name(model_kind kind) {
    for (const model_kind_entry& entry : model_kind_names) {
        if (entry.value == kind) {
            return entry.name;
        }
    }
    throw std::invalid_argument("model_kind_name: unknown model kind");
}

}  // namespace manhattan::mobility
