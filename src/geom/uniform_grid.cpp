#include "geom/uniform_grid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace manhattan::geom {

uniform_grid::uniform_grid(double side, double min_bucket_side) : side_(side) {
    if (!(side > 0.0) || !(min_bucket_side > 0.0)) {
        throw std::invalid_argument("uniform_grid: side and bucket side must be positive");
    }
    m_ = std::max<std::int32_t>(1, static_cast<std::int32_t>(std::floor(side / min_bucket_side)));
    bucket_side_ = side / m_;
    offsets_.assign(static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_) + 1, 0);
}

std::int32_t uniform_grid::bucket_index(double v) const noexcept {
    const auto idx = static_cast<std::int32_t>(std::floor(v / bucket_side_));
    return std::clamp(idx, std::int32_t{0}, m_ - 1);
}

void uniform_grid::rebuild(std::span<const vec2> positions) {
    util::serial_executor one_lane;
    rebuild(positions, one_lane);
}

template <typename IdOf>
void uniform_grid::rebuild_with(std::span<const vec2> positions, IdOf id_of,
                                util::parallel_executor& ex) {
    const std::size_t lanes = ex.lanes();
    const std::size_t n = positions.size();
    const std::size_t bucket_count =
        static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_);
    items_.resize(n);
    sorted_points_.resize(n);
    bucket_of_.resize(n);
    lane_hist_.assign(lanes * bucket_count, 0);

    // Counting sort: per-lane histograms over contiguous index slices
    // (lanes whose slice is empty keep an all-zero histogram).
    ex.run(n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        std::size_t* hist = lane_hist_.data() + lane * bucket_count;
        for (std::size_t i = begin; i < end; ++i) {
            const std::size_t b = bucket_of(positions[i]);
            bucket_of_[i] = static_cast<std::uint32_t>(b);
            ++hist[b];
        }
    });

    // Prefix sum: CSR offsets plus a starting write cursor per
    // (bucket, lane). Within a bucket, lane slots are laid out in lane
    // order, so items end up in input order at any lane count.
    offsets_.resize(bucket_count + 1);
    offsets_[0] = 0;
    for (std::size_t b = 0; b < bucket_count; ++b) {
        std::size_t next = offsets_[b];
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            std::size_t& slot = lane_hist_[lane * bucket_count + b];
            const std::size_t count = slot;
            slot = next;
            next += count;
        }
        offsets_[b + 1] = next;
    }

    // Scatter into disjoint slot ranges (same lane partition as the
    // histogram pass — lane_begin is a pure function of (n, lanes)).
    ex.run(n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        std::size_t* cursor = lane_hist_.data() + lane * bucket_count;
        for (std::size_t i = begin; i < end; ++i) {
            const std::size_t slot = cursor[bucket_of_[i]]++;
            items_[slot] = id_of(i);
            sorted_points_[slot] = positions[i];
        }
    });
}

void uniform_grid::rebuild(std::span<const vec2> positions,
                           std::span<const std::uint32_t> ids, util::parallel_executor& ex) {
    if (ids.size() != positions.size()) {
        throw std::invalid_argument("uniform_grid::rebuild: ids and positions differ in size");
    }
    rebuild_with(positions, [ids](std::size_t i) { return ids[i]; }, ex);
}

void uniform_grid::rebuild(std::span<const vec2> positions, util::parallel_executor& ex) {
    rebuild_with(positions, [](std::size_t i) { return static_cast<std::uint32_t>(i); }, ex);
}

std::vector<std::uint32_t> uniform_grid::query(vec2 p, double r) const {
    std::vector<std::uint32_t> out;
    for_each_in_radius(p, r, [&](std::uint32_t idx) { out.push_back(idx); });
    return out;
}

}  // namespace manhattan::geom
