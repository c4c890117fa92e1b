#include "core/cell_partition.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/params.h"
#include "density/spatial.h"

namespace manhattan::core {

std::int32_t cell_partition::choose_cells_per_side(double side, double radius) {
    if (!(side > 0.0) || !(radius > 0.0)) {
        throw std::invalid_argument("cell_partition: side and radius must be positive");
    }
    // Ineq. 6: R/(1+sqrt5) <= l <= R/sqrt5 with l = L/m, i.e.
    // m in [sqrt5 L/R, (1+sqrt5) L/R]. The interval has length L/R >= 1 for
    // R <= L, so the smallest admissible integer always exists there.
    const double m_lo = paper::sqrt5 * side / radius;
    const double m_hi = paper::one_plus_sqrt5 * side / radius;
    const double m = std::ceil(m_lo);
    if (m > std::floor(m_hi) + 1e-9 || m < 1.0) {
        throw std::invalid_argument(
            "cell_partition: no integer cell count satisfies Ineq. 6 "
            "(radius too large relative to side)");
    }
    return static_cast<std::int32_t>(m);
}

cell_partition::cell_partition(std::size_t n, double side, double radius,
                               double threshold_override)
    : n_(n),
      radius_(radius),
      grid_(side, choose_cells_per_side(side, radius)),
      threshold_(threshold_override >= 0.0 ? threshold_override
                                           : paper::central_zone_threshold(n)) {
    if (n == 0) {
        throw std::invalid_argument("cell_partition: n must be positive");
    }
    suburb_diameter_ = paper::suburb_diameter(side, grid_.cell_side(), n);

    const std::size_t cells = grid_.cell_count();
    mass_.resize(cells);
    in_central_.resize(cells);
    for (std::size_t id = 0; id < cells; ++id) {
        const geom::rect r = grid_.rect_of(grid_.coord_of(id));
        mass_[id] = density::spatial_rect_mass(r, side);
        const bool central = mass_[id] >= threshold_;
        in_central_[id] = central ? 1 : 0;
        if (central) {
            ++central_count_;
        } else {
            suburb_ids_.push_back(id);
        }
    }
}

bool cell_partition::any_in_zone(std::span<const geom::vec2> positions,
                                 std::span<const std::uint32_t> slots,
                                 std::span<const std::uint32_t> ids, zone z) const {
    const std::uint8_t want = z == zone::central ? 1 : 0;
    for (const std::uint32_t id : ids) {
        if (in_central_[grid_.cell_id_of(positions[slots[id]])] == want) {
            return true;
        }
    }
    return false;
}

bool cell_partition::in_extended_suburb(geom::vec2 p) const {
    const double reach = 2.0 * suburb_diameter_;
    for (const std::size_t id : suburb_ids_) {
        const geom::rect r = grid_.rect_of(grid_.coord_of(id));
        if (r.manhattan_distance_to(p) <= reach) {
            return true;
        }
    }
    return false;
}

geom::rect cell_partition::core_of(std::size_t id) const {
    return grid_.rect_of(grid_.coord_of(id)).shrunk(1.0 / 3.0);
}

std::size_t cell_partition::full_central_rows() const {
    const std::int32_t m = grid_.cells_per_side();
    std::size_t rows = 0;
    for (std::int32_t cy = 0; cy < m; ++cy) {
        bool full = true;
        for (std::int32_t cx = 0; cx < m && full; ++cx) {
            full = in_central_[grid_.id_of({cx, cy})] != 0;
        }
        rows += full ? 1 : 0;
    }
    return rows;
}

std::size_t cell_partition::full_central_columns() const {
    const std::int32_t m = grid_.cells_per_side();
    std::size_t cols = 0;
    for (std::int32_t cx = 0; cx < m; ++cx) {
        bool full = true;
        for (std::int32_t cy = 0; cy < m && full; ++cy) {
            full = in_central_[grid_.id_of({cx, cy})] != 0;
        }
        cols += full ? 1 : 0;
    }
    return cols;
}

std::size_t cell_partition::boundary_size(const std::vector<std::uint8_t>& b_mask) const {
    if (b_mask.size() != grid_.cell_count()) {
        throw std::invalid_argument("boundary_size: mask size mismatch");
    }
    std::size_t boundary = 0;
    for (std::size_t id = 0; id < b_mask.size(); ++id) {
        if (b_mask[id] != 0 && in_central_[id] == 0) {
            throw std::invalid_argument("boundary_size: B must be a subset of the Central Zone");
        }
    }
    for (std::size_t id = 0; id < b_mask.size(); ++id) {
        if (in_central_[id] == 0 || b_mask[id] != 0) {
            continue;  // boundary cells are CZ cells outside B...
        }
        for (const geom::cell_coord nb : grid_.orthogonal_neighbors(grid_.coord_of(id))) {
            if (b_mask[grid_.id_of(nb)] != 0) {  // ...adjacent to B
                ++boundary;
                break;
            }
        }
    }
    return boundary;
}

double cell_partition::expansion_ratio(const std::vector<std::uint8_t>& b_mask) const {
    const std::size_t b = static_cast<std::size_t>(
        std::count_if(b_mask.begin(), b_mask.end(), [](std::uint8_t v) { return v != 0; }));
    if (b > central_count_) {
        throw std::invalid_argument("expansion_ratio: B must be a subset of the Central Zone");
    }
    const std::size_t smaller = std::min(b, central_count_ - b);
    if (smaller == 0) {
        return std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(boundary_size(b_mask)) /
           std::sqrt(static_cast<double>(smaller));
}

std::vector<std::vector<std::size_t>> cell_partition::suburb_components() const {
    std::vector<std::vector<std::size_t>> components;
    std::vector<std::uint8_t> visited(grid_.cell_count(), 0);
    for (const std::size_t start : suburb_ids_) {
        if (visited[start] != 0) {
            continue;
        }
        components.emplace_back();
        std::vector<std::size_t> stack{start};
        visited[start] = 1;
        while (!stack.empty()) {
            const std::size_t id = stack.back();
            stack.pop_back();
            components.back().push_back(id);
            for (const geom::cell_coord nb : grid_.orthogonal_neighbors(grid_.coord_of(id))) {
                const std::size_t nid = grid_.id_of(nb);
                if (visited[nid] == 0 && in_central_[nid] == 0) {
                    visited[nid] = 1;
                    stack.push_back(nid);
                }
            }
        }
    }
    return components;
}

std::array<double, 4> cell_partition::suburb_corner_extents() const {
    const double L = side();
    const std::array<geom::vec2, 4> corners = {
        geom::vec2{0.0, 0.0}, geom::vec2{L, 0.0}, geom::vec2{0.0, L}, geom::vec2{L, L}};
    std::array<double, 4> extents{};
    for (const std::size_t id : suburb_ids_) {
        const geom::rect r = grid_.rect_of(grid_.coord_of(id));
        // Nearest corner by cell center, extent = Chebyshev reach of the
        // cell's farthest point from that corner.
        const geom::vec2 c = r.center();
        std::size_t best = 0;
        double best_d = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < corners.size(); ++k) {
            const double d = geom::chebyshev_dist(c, corners[k]);
            if (d < best_d) {
                best_d = d;
                best = k;
            }
        }
        const double reach = std::max(
            {std::abs(r.lo.x - corners[best].x), std::abs(r.hi.x - corners[best].x),
             std::abs(r.lo.y - corners[best].y), std::abs(r.hi.y - corners[best].y)});
        extents[best] = std::max(extents[best], reach);
    }
    return extents;
}

}  // namespace manhattan::core
