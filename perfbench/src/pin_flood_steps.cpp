// Prints the flood_1e6 flood_steps for a range of seeds, in the form
// src/flood_case.h holds. The flood is bit-identical at any lane count
// (docs/PERF.md), so the pins may be computed on several lanes.
//
// Usage: pin_flood_steps FIRST_SEED COUNT [LANES]
#include <cstdio>
#include <cstdlib>

#include "core/cell_partition.h"
#include "engine/thread_pool.h"
#include "flood_case.h"
#include "mobility/walker.h"

using namespace manhattan;

int main(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: pin_flood_steps FIRST_SEED COUNT [LANES]\n");
        return 2;
    }
    const std::uint64_t first = std::strtoull(argv[1], nullptr, 10);
    const std::uint64_t count = std::strtoull(argv[2], nullptr, 10);
    const std::size_t lanes = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
    const perfbench::flood_case fc = perfbench::make_flood_case(1'000'000);
    const core::cell_partition cells(fc.n, fc.params.side, fc.radius);
    engine::thread_pool pool(lanes);
    for (std::uint64_t seed = first; seed < first + count; ++seed) {
        core::flooding_sim sim(mobility::walker(fc.model, fc.n, fc.params.speed, rng::rng(seed)),
                               fc.radius, fc.config, &cells,
                               lanes > 1 ? &pool.executor() : nullptr);
        const core::spread_result result = sim.run_spread();
        std::printf("        %llu,  // seed %llu%s\n",
                    static_cast<unsigned long long>(result.messages.front().flooding_time),
                    static_cast<unsigned long long>(seed), result.completed ? "" : " INCOMPLETE");
        std::fflush(stdout);
    }
    return 0;
}
