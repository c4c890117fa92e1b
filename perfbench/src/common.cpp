#include "common.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "engine/sink.h"

using namespace manhattan;

namespace perfbench {

void report::e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
}

void report::layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
}

double report::e2e_value(const std::string& name) const {
    for (const metric& m : end_to_end) {
        if (m.name == name) {
            return m.value;
        }
    }
    throw std::logic_error("perfbench: no end-to-end metric '" + name + "'");
}

void report::operation(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "perfbench: operation failed: %s\n", why.c_str());
    }
}

void report::check(bool ok, const std::string& what) {
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

engine::sweep_spec t3a_spec(std::size_t n, std::size_t repetitions, std::uint64_t seed) {
    engine::sweep_spec spec;
    spec.base.source = core::source_placement::center_most;
    spec.base.seed = seed;
    spec.base.max_steps = 500'000;
    spec.repetitions = repetitions;
    spec.n = {n};
    spec.c1 = {1.5, 2.0, 2.5, 3.0, 4.0, 6.0};
    spec.speed_factor = {1.0};
    return spec;
}

std::string rows_csv(const std::vector<engine::sweep_row>& rows) {
    std::ostringstream out;
    engine::csv_sink sink(out);
    for (const engine::sweep_row& row : rows) {
        sink.on_row(row);
    }
    sink.finish();
    return out.str();
}

}  // namespace perfbench
