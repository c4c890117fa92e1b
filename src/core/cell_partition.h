/// \file cell_partition.h
/// The paper's Section-4 cell machinery: the m x m partition with cell side
/// l in [R/(1+sqrt5), R/sqrt5] (Ineq. 6), per-cell stationary masses
/// (Observation 5), the Central Zone / Suburb split (Definition 4), cell
/// cores, the Suburb diameter S (Lemma 15), the Extended Suburb, and the
/// boundary-expansion functional of Lemma 9.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/grid_spec.h"
#include "geom/rect.h"
#include "geom/vec2.h"

namespace manhattan::core {

/// Which side of Definition 4 a cell (or point) falls on.
enum class zone : std::uint8_t { central, suburb };

/// Immutable cell partition for given (L, R, n).
class cell_partition {
 public:
    /// Builds the partition. \p threshold_override replaces Definition 4's
    /// (3/8) ln n / n when non-negative (used by ablation experiments).
    /// Throws if no integer cell count satisfies Ineq. 6 (needs R <= ~L) or
    /// if parameters are invalid.
    cell_partition(std::size_t n, double side, double radius, double threshold_override = -1.0);

    /// The m of Ineq. 6: smallest integer with l = L/m <= R/sqrt(5); always
    /// also satisfies l >= R/(1+sqrt5) for R <= L. Throws when infeasible.
    [[nodiscard]] static std::int32_t choose_cells_per_side(double side, double radius);

    [[nodiscard]] const geom::grid_spec& grid() const noexcept { return grid_; }
    [[nodiscard]] std::size_t n() const noexcept { return n_; }
    [[nodiscard]] double side() const noexcept { return grid_.side(); }
    [[nodiscard]] double radius() const noexcept { return radius_; }
    [[nodiscard]] double cell_side() const noexcept { return grid_.cell_side(); }
    [[nodiscard]] double threshold() const noexcept { return threshold_; }

    /// Stationary mass of cell \p id (exact integral of Theorem 1's pdf).
    [[nodiscard]] double cell_mass(std::size_t id) const { return mass_.at(id); }

    [[nodiscard]] zone zone_of_cell(std::size_t id) const {
        return in_central_.at(id) != 0 ? zone::central : zone::suburb;
    }
    [[nodiscard]] zone zone_of_point(geom::vec2 p) const {
        return zone_of_cell(grid_.cell_id_of(p));
    }

    /// Span kernel for the per-step zone metrics: whether any agent of
    /// \p ids lies in a \p z cell, where agent id sits at
    /// positions[slots[id]] (a walker's storage order and id -> slot map).
    /// Equivalent to calling zone_of_point per id but without the per-call
    /// bounds checks — the O(#uninformed)-per-step Central-Zone scan runs
    /// through this (core/flooding.cpp).
    [[nodiscard]] bool any_in_zone(std::span<const geom::vec2> positions,
                                   std::span<const std::uint32_t> slots,
                                   std::span<const std::uint32_t> ids, zone z) const;

    [[nodiscard]] std::size_t central_cell_count() const noexcept { return central_count_; }
    [[nodiscard]] std::size_t suburb_cell_count() const noexcept {
        return grid_.cell_count() - central_count_;
    }

    /// S = 3 L^3 ln n / (2 l^2 n) — Lemma 15's Suburb diameter bound.
    [[nodiscard]] double suburb_diameter() const noexcept { return suburb_diameter_; }

    /// Extended Suburb: Manhattan distance to the Suburb at most 2S
    /// (vacuously false when the Suburb is empty).
    [[nodiscard]] bool in_extended_suburb(geom::vec2 p) const;

    /// The core of cell \p id: the centered subsquare of side l/3.
    [[nodiscard]] geom::rect core_of(std::size_t id) const;

    /// Lemma 6 quantities: rows (resp. columns) of the grid *all* of whose
    /// cells are in the Central Zone.
    [[nodiscard]] std::size_t full_central_rows() const;
    [[nodiscard]] std::size_t full_central_columns() const;

    /// Lemma 9: |boundary(B)| for a subset B of the Central Zone, given as a
    /// mask over all cell ids (non-zero = in B). Cells of B outside the
    /// Central Zone raise std::invalid_argument. The boundary is the set of
    /// Central-Zone cells not in B orthogonally adjacent to some cell of B.
    [[nodiscard]] std::size_t boundary_size(const std::vector<std::uint8_t>& b_mask) const;

    /// Lemma 9's functional |dB| / sqrt(min(|B|, |CZ|-|B|)); the lemma says
    /// this is >= 1 for every non-trivial B. Returns +inf for empty/full B.
    [[nodiscard]] double expansion_ratio(const std::vector<std::uint8_t>& b_mask) const;

    /// Connected components (4-adjacency) of the Suburb; the paper's geometry
    /// gives exactly four corner components in the non-degenerate regime.
    [[nodiscard]] std::vector<std::vector<std::size_t>> suburb_components() const;

    /// Max Chebyshev extent of the Suburb measured from its nearest square
    /// corner, per corner order SW, SE, NW, NE. Lemma 15 bounds each by S.
    /// Entries are 0 for corners with no suburb cells.
    [[nodiscard]] std::array<double, 4> suburb_corner_extents() const;

 private:
    std::size_t n_;
    double radius_;
    geom::grid_spec grid_;
    double threshold_;
    double suburb_diameter_;
    std::vector<double> mass_;
    std::vector<std::uint8_t> in_central_;
    std::vector<std::size_t> suburb_ids_;
    std::size_t central_count_ = 0;
};

}  // namespace manhattan::core
