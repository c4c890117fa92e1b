#include "engine/runner.h"

#include "engine/thread_pool.h"
#include "rng/splitmix64.h"

namespace manhattan::engine {

std::vector<std::uint64_t> replica_seeds(std::uint64_t base_seed, std::size_t count) {
    rng::splitmix64 expand(base_seed);
    std::vector<std::uint64_t> seeds(count);
    for (auto& s : seeds) {
        s = expand();
    }
    return seeds;
}

std::vector<core::scenario_outcome> run_replicas(const core::scenario& base,
                                                 std::size_t repetitions,
                                                 const run_options& opts) {
    const auto seeds = replica_seeds(base.seed, repetitions);
    std::vector<core::scenario_outcome> outcomes(repetitions);
    thread_pool pool(opts.threads);
    pool.parallel_for(
        repetitions,
        [&](std::size_t r) {
            core::scenario sc = base;
            sc.seed = seeds[r];
            outcomes[r] = core::run_scenario(sc);
        },
        1);
    return outcomes;
}

std::vector<double> flooding_times(const core::scenario& base, std::size_t repetitions,
                                   const run_options& opts) {
    // Reduce each outcome to its flooding time inside the worker: the full
    // scenario_outcome carries n-sized vectors and need not be retained.
    const auto seeds = replica_seeds(base.seed, repetitions);
    std::vector<double> times(repetitions);
    thread_pool pool(opts.threads);
    pool.parallel_for(
        repetitions,
        [&](std::size_t r) {
            core::scenario sc = base;
            sc.seed = seeds[r];
            const core::scenario_outcome out = core::run_scenario(sc);
            times[r] = static_cast<double>(out.spread.messages.front().flooding_time);
        },
        1);
    return times;
}

}  // namespace manhattan::engine
