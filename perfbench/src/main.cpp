// The repository benchmark: one process runs one named workload for a
// measured window and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the run makes an untraced pass and
// a traced pass of the same workload and reports the per-layer numbers of
// the traced pass plus the tracing overhead between the two. Each run also
// prints a host record (cores, cache sizes, build flags, triad bandwidth).
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--tiny] [--workdir DIR]
// Workloads: t3a_sweep, flood_1e6 (README.md).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_VECTORIZE
#define PERFBENCH_VECTORIZE 0
#endif

using namespace perfbench;

namespace {

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb() {
    // VmHWM belongs to this process image; getrusage's ru_maxrss would carry
    // the launching process's peak across exec.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // reported in kB
        }
    }
    throw std::runtime_error("perfbench: no VmHWM in /proc/self/status");
}

/// A fresh, empty directory for one pass's files (caches, ledgers,
/// sockets), removed again by the destructor.
class scratch_dir {
 public:
    explicit scratch_dir(std::string path) : path_(std::move(path)) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~scratch_dir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    scratch_dir(const scratch_dir&) = delete;
    scratch_dir& operator=(const scratch_dir&) = delete;
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
    std::string path_;
};

/// Size of the level-\p level unified/data cache of cpu0 in KiB (0 unknown).
long cache_kib(int level) {
    for (int index = 0; index < 8; ++index) {
        const std::string base =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
        std::ifstream lvl(base + "level");
        std::ifstream type(base + "type");
        std::ifstream size(base + "size");
        int l = 0;
        std::string t;
        std::string s;
        if (!(lvl >> l) || !(type >> t) || !(size >> s)) {
            continue;
        }
        if (l == level && t != "Instruction") {
            long kib = std::atol(s.c_str());
            if (!s.empty() && s.back() == 'M') {
                kib *= 1024;
            }
            return kib;
        }
    }
    return 0;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/// STREAM-style triad a[i] = b[i] + s*c[i] over three 8 MiB arrays — the
/// size of the flood_1e6 position array, so it reads the bandwidth of the
/// cache level geom.rebuild_gbps_computed runs against. Best of the
/// repetitions, counting 3 x 8 MiB per pass (as STREAM does).
double triad_gbps() {
    constexpr std::size_t n = (8u << 20) / sizeof(double);
    std::vector<double> a(n, 0.0);
    std::vector<double> b(n, 1.0);
    std::vector<double> c(n, 2.0);
    double best = 0.0;
    for (int rep = 0; rep < 20; ++rep) {
        const double s = 0.5 + rep;
        const auto t0 = clock_type::now();
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = b[i] + s * c[i];
        }
        const double secs = seconds_since(t0);
        best = std::max(best, 3.0 * sizeof(double) * n / secs / 1e9);
    }
    if (a[n / 2] < 0.0) {  // keeps the stores observable
        std::puts("");
    }
    return best;
}

void print_host_record(double triad) {
    std::printf(
        "{\"host\": {\"nproc\": %u, \"cpu\": \"%s\", \"l2_kib\": %ld, \"l3_kib\": %ld, "
        "\"build_type\": \"%s\", \"manhattan_vectorize\": %s, \"triad_gbps\": %.4f, "
        "\"triad_bytes\": %zu}}\n",
        std::thread::hardware_concurrency(), cpu_model().c_str(), cache_kib(2), cache_kib(3),
        PERFBENCH_BUILD_TYPE, PERFBENCH_VECTORIZE ? "true" : "false", triad,
        static_cast<std::size_t>(3u * (8u << 20)));
}

void print_metrics_json(const std::vector<metric>& metrics) {
    std::printf("{");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}");
}

/// Every per-layer metric, in BENCHMARK.json order. A workload reports the
/// layers it exercises; the rest print as 0 (that layer does no work there).
const std::vector<metric> layer_catalogue{
    {"mobility.advance_s", 0, "s"},
    {"mobility.init_s", 0, "s"},
    {"geom.rebuild_s", 0, "s"},
    {"geom.rebuild_gbps_computed", 0, "GB/s"},
    {"core.scan_s", 0, "s"},
    {"core.step_p50_ms", 0, "ms"},
    {"core.step_p90_ms", 0, "ms"},
    {"core.partition_s", 0, "s"},
    {"core.flood_steps", 0, "count"},
    {"core.phase_gap_frac", 0, "frac"},
    {"engine.replica_mean_s", 0, "s"},
    {"engine.busy_frac", 0, "frac"},
    {"engine.manifest.save_ms", 0, "ms"},
    {"engine.fabric.init_s", 0, "s"},
    {"engine.fabric.drain_s", 0, "s"},
    {"engine.fabric.merge_s", 0, "s"},
    {"engine.fabric.replay_s", 0, "s"},
    {"engine.fabric.replicas_per_s", 0, "1/s"},
    {"engine.fabric.useful_frac", 0, "frac"},
    {"engine.fabric.skipped", 0, "count"},
    {"engine.fabric.worker_skew_s", 0, "s"},
    {"engine.fabric.ledger_warnings", 0, "count"},
    {"service.daemon.setup_s", 0, "s"},
    {"service.daemon.jobs_per_s", 0, "1/s"},
    {"service.daemon.hit_p50_ms", 0, "ms"},
    {"service.daemon.hit_p90_ms", 0, "ms"},
    {"service.daemon.cold_p50_ms", 0, "ms"},
    {"service.daemon.cold_p90_ms", 0, "ms"},
    {"service.daemon.first_row_p50_ms", 0, "ms"},
    {"service.daemon.hit_rate", 0, "frac"},
    {"service.daemon.fresh_replicas", 0, "count"},
    {"service.admission.shed", 0, "count"},
    {"service.admission.queue_wait_s", 0, "s"},
    {"service.result_cache.load_ms", 0, "ms"},
    {"service.result_cache.store_ms", 0, "ms"},
    {"service.wire.encode_mb_s", 0, "MB/s"},
    {"service.wire.decode_mb_s", 0, "MB/s"},
    {"trace.overhead_frac", 0, "frac"},
    {"host.triad_gbps", 0, "GB/s"},
};

/// The catalogue with the values \p measured holds.
std::vector<metric> layer_metrics(const std::vector<metric>& measured) {
    std::vector<metric> out = layer_catalogue;
    for (const metric& m : measured) {
        const auto slot = std::find_if(out.begin(), out.end(),
                                       [&](const metric& c) { return c.name == m.name; });
        if (slot == out.end() || slot->unit != m.unit) {
            throw std::logic_error("perfbench: layer metric '" + m.name + "' is not catalogued");
        }
        slot->value = m.value;
    }
    return out;
}

/// The end-to-end metric a workload's throughput is read from.
const char* headline_metric(const std::string& workload) {
    return workload == "flood_1e6" ? "steps_per_s" : "replicas_per_s";
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload t3a_sweep|flood_1e6 "
                 "--seed N --seconds S --trace 0|1 [--tiny] [--workdir DIR]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    options opts;
    std::string workdir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--tiny") {
            opts.tiny = true;
        } else if (arg == "--workload" && has_value) {
            opts.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            opts.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            opts.trace = std::string(argv[++i]) != "0";
        } else if (arg == "--workdir" && has_value) {
            workdir = argv[++i];
        } else {
            return usage();
        }
    }
    const std::map<std::string, void (*)(const options&, const std::string&, report&)> workloads{
        {"t3a_sweep", run_t3a_sweep},
        {"flood_1e6", run_flood_1e6},
    };
    const auto it = workloads.find(opts.workload);
    if (it == workloads.end() || !(opts.seconds > 0.0)) {
        return usage();
    }
    // Relative paths keep the daemon's AF_UNIX socket path short however
    // deep the checkout sits.
    std::filesystem::create_directories(workdir);
    if (::chdir(workdir.c_str()) != 0) {
        std::perror("perfbench: chdir");
        return 2;
    }

    // The untraced pass always runs: it gives the end-to-end numbers, and in
    // a traced run the baseline the tracing overhead is measured against.
    report untraced;
    report traced;
    try {
        options pass = opts;
        pass.trace = false;
        {
            const scratch_dir files("untraced");
            it->second(pass, files.path(), untraced);
        }
        if (opts.trace) {
            const scratch_dir files("traced");
            it->second(opts, files.path(), traced);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opts.workload.c_str(), e.what());
        return 3;
    }
    const double rss = peak_rss_mb();  // before the triad allocates
    untraced.e2e("peak_rss_mb", rss, "MiB");
    const double triad = triad_gbps();
    print_host_record(triad);

    const std::size_t attempted = untraced.attempted + traced.attempted;
    const std::size_t failed = untraced.failed + traced.failed;
    std::vector<metric> metrics;
    if (opts.trace) {
        traced.e2e("peak_rss_mb", rss, "MiB");
        std::printf("{\"trace_overhead\": {");
        for (std::size_t i = 0; i < untraced.end_to_end.size(); ++i) {
            const metric& base = untraced.end_to_end[i];
            std::printf("%s\"%s\": {\"untraced\": %.6g, \"traced\": %.6g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", base.name.c_str(), base.value,
                        traced.e2e_value(base.name), base.unit.c_str());
        }
        std::printf("}}\n");
        const char* headline = headline_metric(opts.workload);
        traced.layer("trace.overhead_frac",
                     untraced.e2e_value(headline) / traced.e2e_value(headline) - 1.0, "frac");
        traced.layer("host.triad_gbps", triad, "GB/s");
        metrics = layer_metrics(traced.layers);
    } else {
        metrics = untraced.end_to_end;
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": ",
                failed == 0 ? "true" : "false", attempted, failed);
    print_metrics_json(metrics);
    std::printf("}\n");
    return 0;
}
