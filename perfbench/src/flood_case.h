// The flood_1e6 scenario — n agents in the paper's standard case at c1 = 1
// (R = sqrt(ln n)), stationary MRWP, one one-hop message from the
// centre-most agent — shared by the workload and the pin tool, plus the
// flood_steps pinned for it per benchmark seed at n = 10^6.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>

#include "core/flooding.h"
#include "core/params.h"
#include "mobility/factory.h"

namespace perfbench {

struct flood_case {
    std::size_t n = 0;
    double radius = 0.0;
    manhattan::core::net_params params;
    std::shared_ptr<const manhattan::mobility::mobility_model> model;
    manhattan::core::spread_config config;
};

[[nodiscard]] inline flood_case make_flood_case(std::size_t n) {
    using namespace manhattan;
    flood_case fc;
    fc.n = n;
    fc.radius = std::sqrt(std::log(static_cast<double>(n)));
    fc.params = core::net_params::standard_case(n, fc.radius, core::paper::speed_bound(fc.radius));
    fc.model = mobility::make_model(mobility::model_kind::mrwp, fc.params.side);
    core::message_spec message;
    message.sources = core::source_spec::at(core::source_placement::center_most);
    fc.config.spread.messages = {message};
    fc.config.record_timeline = false;
    fc.config.max_steps = 100'000;
    return fc;
}

/// flood_steps at n = 10^6 per seed, recorded from the commit that added the
/// benchmark with pin_flood_steps. The flood is bit-identical at any lane
/// count, so the pins were computed on a parallel executor; a change that
/// moves any of them changed the simulation, not only its speed.
[[nodiscard]] inline std::optional<std::uint64_t> pinned_flood_steps(std::uint64_t seed) {
    static constexpr std::uint64_t pins[] = {
        242,  // seed 0
        248,  // seed 1
        253,  // seed 2
        267,  // seed 3
        232,  // seed 4
        236,  // seed 5
        245,  // seed 6
        243,  // seed 7
        247,  // seed 8
        232,  // seed 9
        286,  // seed 10
        260,  // seed 11
        255,  // seed 12
        242,  // seed 13
        227,  // seed 14
        266,  // seed 15
        245,  // seed 16
        241,  // seed 17
        247,  // seed 18
        238,  // seed 19
        258,  // seed 20
        249,  // seed 21
        241,  // seed 22
        248,  // seed 23
        267,  // seed 24
        247,  // seed 25
        260,  // seed 26
        236,  // seed 27
        259,  // seed 28
        224,  // seed 29
        236,  // seed 30
        239,  // seed 31
        244,  // seed 32
        231,  // seed 33
        297,  // seed 34
        261,  // seed 35
        252,  // seed 36
        253,  // seed 37
        244,  // seed 38
        247,  // seed 39
        238,  // seed 40
        233,  // seed 41
    };
    constexpr std::uint64_t count = sizeof(pins) / sizeof(pins[0]);
    if (seed >= count) {
        return std::nullopt;
    }
    return pins[seed];
}

}  // namespace perfbench
