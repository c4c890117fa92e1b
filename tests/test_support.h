/// \file test_support.h
/// Helpers shared by the test suites.
#pragma once

#include <cstddef>
#include <functional>

#include "core/spread.h"
#include "util/parallel.h"

namespace manhattan::test_support {

/// The paper's single flood: one one-hop message from agent \p source.
inline core::spread_config one_message(std::size_t source = 0) {
    core::spread_config cfg;
    cfg.spread.messages.push_back({.sources = core::source_spec::agents({source})});
    return cfg;
}

/// A k-lane executor that splits an index space into k lanes exactly as a
/// thread pool of k workers would, then runs the lanes one after another on
/// the calling thread. Determinism tests use it to cover any lane count,
/// including more lanes than items, without starting threads. Lanes run in
/// descending order, so a kernel whose merge leaned on lane 0 finishing
/// first would show up here.
class inline_lanes final : public util::parallel_executor {
 public:
    explicit inline_lanes(std::size_t lanes) : lanes_(lanes) {}

    [[nodiscard]] std::size_t lanes() const noexcept override { return lanes_; }

    void run(std::size_t count,
             const std::function<void(std::size_t, std::size_t, std::size_t)>& body) override {
        for (std::size_t lane = lanes_; lane-- > 0;) {
            const std::size_t begin = lane_begin(count, lane);
            const std::size_t end = lane_begin(count, lane + 1);
            if (begin < end) {
                body(lane, begin, end);
            }
        }
    }

 private:
    std::size_t lanes_;
};

}  // namespace manhattan::test_support
