// The fabric layer probe of the traced t3a_sweep pass: the T3a grid at
// n = 8000 (8 replicas per point, 48 pairs) published with init_fabric in
// batches of 2 pairs, drained by two in-process run_fabric_worker threads of
// one replica thread each at the default 200 ms poll, then merge_fabric +
// replay_rows. About half of a drain is lease, ledger and poll overhead.
// Drains repeat for a quarter of the window, at least twice. Its timings
// follow the disk's fsync latency, which is why it is a probe and not a
// gated workload (README.md).
#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "engine/fabric.h"
#include "engine/sink.h"
#include "engine/thread_pool.h"

namespace fs = std::filesystem;
using namespace manhattan;

namespace perfbench {

namespace {

constexpr std::size_t workers = 2;
constexpr std::size_t batch = 2;
const std::array<std::string, workers> owners{"w0", "w1"};

/// Redirects the process's stderr into a file for a scope, then copies
/// what was captured back to the real stderr. Lets the benchmark count the
/// library's warnings without touching the library.
class stderr_capture {
 public:
    explicit stderr_capture(const std::string& path);
    ~stderr_capture();
    stderr_capture(const stderr_capture&) = delete;
    stderr_capture& operator=(const stderr_capture&) = delete;
    /// Restore stderr and return what was written meanwhile (idempotent).
    std::string finish();

 private:
    std::string path_;
    int saved_ = -1;
    std::string text_;
};

stderr_capture::stderr_capture(const std::string& path) : path_(path) {
    std::fflush(stderr);
    const int fd = ::open(path_.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) {
        throw std::runtime_error("perfbench: cannot open " + path_);
    }
    saved_ = ::dup(STDERR_FILENO);
    ::dup2(fd, STDERR_FILENO);
    ::close(fd);
}

stderr_capture::~stderr_capture() { (void)finish(); }

std::string stderr_capture::finish() {
    if (saved_ < 0) {
        return text_;
    }
    std::fflush(stderr);
    ::dup2(saved_, STDERR_FILENO);
    ::close(saved_);
    saved_ = -1;
    std::ifstream in(path_);
    text_.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    std::fputs(text_.c_str(), stderr);
    return text_;
}

/// Lines of \p text containing \p needle.
std::size_t count_lines_with(const std::string& text, const std::string& needle) {
    std::size_t count = 0;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        count += line.find(needle) != std::string::npos ? 1 : 0;
    }
    return count;
}

struct worker_result {
    engine::fabric_report report;
    double return_s = 0.0;  ///< since the drain started
    std::string error;
};

}  // namespace

void probe_fabric(const options& opts, const std::string& dir, report& out) {
    const std::size_t n = opts.tiny ? 1'000 : 8'000;
    const engine::sweep_spec spec = t3a_spec(n, opts.tiny ? 2 : 8, opts.seed);

    // The reference every merge must replay byte for byte (untimed).
    std::string reference;
    {
        engine::thread_pool pool(workers);
        engine::memory_sink rows;
        engine::result_sink* sink = &rows;
        (void)engine::run_sweep(spec, {.pool = &pool}, {&sink, 1});
        reference = rows_csv(rows.rows());
    }

    std::vector<std::unique_ptr<engine::thread_pool>> replica_threads;
    for (std::size_t w = 0; w < workers; ++w) {
        replica_threads.push_back(std::make_unique<engine::thread_pool>(1));
    }
    std::vector<double> init_s, drain_s, merge_s, replay_s, skew_s, useful, replicas_per_s;
    double skipped = 0.0;
    double warnings = 0.0;
    const auto window = clock_type::now();
    for (std::size_t d = 0; d < 2 || seconds_since(window) < opts.seconds / 4; ++d) {
        const std::string fdir = dir + "/fabric-" + std::to_string(d);
        const auto t0 = clock_type::now();
        const engine::fabric_spec fspec = engine::init_fabric(fdir, spec, batch);
        init_s.push_back(seconds_since(t0));

        std::vector<worker_result> results(workers);
        std::string captured;
        const auto t1 = clock_type::now();
        {
            stderr_capture capture(dir + "/fabric-stderr.txt");
            std::vector<std::thread> threads;
            for (std::size_t w = 0; w < workers; ++w) {
                threads.emplace_back([&, w] {
                    engine::fabric_options fo;
                    fo.dir = fdir;
                    fo.owner = owners[w];
                    engine::run_options run;
                    run.pool = replica_threads[w].get();
                    try {
                        results[w].report = engine::run_fabric_worker(fo, run);
                    } catch (const std::exception& e) {
                        results[w].error = e.what();
                    }
                    results[w].return_s = seconds_since(t1);
                });
            }
            for (std::thread& t : threads) {
                t.join();
            }
            captured = capture.finish();
        }
        const double drain = seconds_since(t1);
        const auto t2 = clock_type::now();
        engine::fabric_merge merged = engine::merge_fabric(fdir, fspec);
        merge_s.push_back(seconds_since(t2));
        const auto t3 = clock_type::now();
        engine::memory_sink rows;
        engine::result_sink* sink = &rows;
        (void)engine::replay_rows(fspec, merged, {&sink, 1}, true);
        replay_s.push_back(seconds_since(t3));

        std::string why;
        double fresh = 0.0;
        for (const worker_result& r : results) {
            if (!r.error.empty()) {
                why = "fabric worker threw: " + r.error;
            }
            fresh += static_cast<double>(r.report.fresh);
            skipped += static_cast<double>(r.report.skipped);
        }
        if (why.empty() && !merged.complete()) {
            why = "merge is incomplete";
        }
        if (why.empty() && rows_csv(rows.rows()) != reference) {
            why = "replayed rows differ from run_sweep";
        }
        out.operation(why.empty(), why);

        const auto pairs = static_cast<double>(fspec.pair_count());
        drain_s.push_back(drain);
        replicas_per_s.push_back(pairs / drain);
        skew_s.push_back(std::abs(results[0].return_s - results[1].return_s));
        useful.push_back(fresh > 0.0 ? pairs / fresh : 0.0);
        warnings += static_cast<double>(count_lines_with(captured, "ignoring unreadable ledger"));
        fs::remove_all(fdir);
    }
    const auto drains = static_cast<double>(drain_s.size());
    out.layer("engine.fabric.init_s", median(init_s), "s");
    out.layer("engine.fabric.drain_s", median(drain_s), "s");
    out.layer("engine.fabric.merge_s", median(merge_s), "s");
    out.layer("engine.fabric.replay_s", median(replay_s), "s");
    out.layer("engine.fabric.replicas_per_s", median(replicas_per_s), "1/s");
    out.layer("engine.fabric.useful_frac", median(useful), "frac");
    out.layer("engine.fabric.skipped", skipped / drains, "count");
    out.layer("engine.fabric.worker_skew_s", median(skew_s), "s");
    out.layer("engine.fabric.ledger_warnings", warnings / drains, "count");
}

}  // namespace perfbench
