// The service layer probe of the traced t3a_sweep pass: an in-process
// service::daemon (2-thread pool, max_running = 2) driven by 2 closed-loop
// service::clients for a quarter of the window. Each client alternates a
// cache hit (one of a few fixed seeds, cached during set-up) with a cold job
// (a fresh seed: the daemon runs it, checkpoints a manifest and stores a
// cache entry). The cache layer is read and written side by side and the
// kernels barely matter (n = 1200). Closed loop: a client submits its next
// job only after the previous one's done event, so no backlog can grow. A
// cold job fsyncs its ledger after every replica, so its timings follow the
// disk, which is why this is a probe and not a gated workload (README.md).
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "engine/sink.h"
#include "engine/thread_pool.h"
#include "rng/splitmix64.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/result_cache.h"
#include "service/wire.h"

namespace fs = std::filesystem;
using namespace manhattan;

namespace perfbench {

namespace {

constexpr std::size_t clients = 2;
constexpr std::size_t hit_seeds = 4;
constexpr std::size_t setup_repeats = 5;
constexpr std::size_t replicas_per_job = 2 * 3;  // c1 points x repetitions

engine::sweep_spec job_spec(std::size_t n, std::uint64_t seed) {
    engine::sweep_spec spec;
    spec.base.seed = seed;
    spec.base.max_steps = 50'000;
    spec.repetitions = 3;
    spec.n = {n};
    spec.c1 = {2.5, 3.0};
    spec.speed_factor = {1.0};
    return spec;
}

/// Sink timing the first row and keeping every row.
class timed_sink final : public engine::result_sink {
 public:
    explicit timed_sink(clock_type::time_point start) : start_(start) {}
    void on_row(const engine::sweep_row& row) override {
        if (rows_.rows().empty()) {
            first_row_ms_ = seconds_since(start_) * 1e3;
        }
        rows_.on_row(row);
    }
    [[nodiscard]] const std::vector<engine::sweep_row>& rows() const { return rows_.rows(); }
    [[nodiscard]] double first_row_ms() const { return first_row_ms_; }

 private:
    clock_type::time_point start_;
    engine::memory_sink rows_;
    double first_row_ms_ = 0.0;
};

std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    return h;
}

struct job_record {
    bool hit = false;
    std::uint64_t seed = 0;
    double latency_ms = 0.0;
    double first_row_ms = 0.0;
    std::uint64_t csv_hash = 0;  ///< of the rows' CSV; jobs are too many to keep it
    service::submit_outcome outcome;
    std::string error;  ///< non-empty: the submit threw (shed, transport, ...)
};

job_record submit(service::client& client, const std::string& id, std::size_t n,
                  std::uint64_t seed, bool hit) {
    job_record job;
    job.hit = hit;
    job.seed = seed;
    const auto t0 = clock_type::now();
    timed_sink rows(t0);
    engine::result_sink* sink = &rows;
    try {
        job.outcome = client.submit(job_spec(n, seed), id, {&sink, 1});
    } catch (const std::exception& e) {
        job.error = e.what();
    }
    job.latency_ms = seconds_since(t0) * 1e3;
    job.first_row_ms = rows.first_row_ms();
    job.csv_hash = fnv1a(rows_csv(rows.rows()));
    return job;
}

service::daemon_config daemon_config_for(const std::string& dir) {
    service::daemon_config config;
    config.socket_path = dir + "/svc.sock";
    config.cache_dir = dir + "/cache";
    config.work_dir = dir + "/work";
    config.threads = 2;
    config.admission.max_running = 2;
    config.admission.max_queue = 16;
    config.admission.per_client_inflight = 4;
    return config;
}

double stats_number(const service::json_value& stats, const std::string& key) {
    const service::json_value* metrics = stats.find("metrics");
    const service::json_value* v = metrics != nullptr ? metrics->find(key) : nullptr;
    if (v == nullptr) {
        return 0.0;
    }
    if (v->what == service::json_value::kind::integer) {
        return static_cast<double>(v->whole);
    }
    return service::decode_f64(*v, key);
}

/// Median milliseconds of \p count calls of \p fn.
template <typename Fn>
double median_ms(std::size_t count, Fn&& fn) {
    std::vector<double> ms;
    for (std::size_t i = 0; i < count; ++i) {
        const auto t0 = clock_type::now();
        fn(i);
        ms.push_back(seconds_since(t0) * 1e3);
    }
    return median(ms);
}

}  // namespace

void probe_service(const options& opts, const std::string& dir, report& out) {
    const std::size_t n = opts.tiny ? 400 : 1'200;
    std::vector<std::uint64_t> fixed;
    rng::splitmix64 seeds(opts.seed);
    for (std::size_t i = 0; i < hit_seeds; ++i) {
        fixed.push_back(seeds());
    }

    // Set-up: start the daemon, ping it, and fill the cache with the fixed
    // seeds (their first, cold submissions). Repeated on fresh directories
    // for a median; the last daemon serves the mix.
    std::vector<double> setup_s;
    std::unique_ptr<service::daemon> daemon;
    std::vector<job_record> jobs;
    std::string live_dir;
    for (std::size_t k = 0; k < setup_repeats; ++k) {
        daemon.reset();
        jobs.clear();
        live_dir = dir + "/daemon-" + std::to_string(k);
        fs::create_directories(live_dir);
        const auto t0 = clock_type::now();
        daemon = std::make_unique<service::daemon>(daemon_config_for(live_dir));
        daemon->start();
        service::client warm(daemon->config().socket_path);
        (void)warm.ping();
        for (const std::uint64_t seed : fixed) {
            jobs.push_back(submit(warm, "warm", n, seed, false));
        }
        setup_s.push_back(seconds_since(t0));
    }
    const std::size_t warm_jobs = jobs.size();

    // The mix: each client alternates hit / cold, starting out of phase.
    std::mutex jobs_mutex;
    const auto window = clock_type::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            const std::string id = "client-" + std::to_string(c);
            rng::splitmix64 fresh(opts.seed ^ (0x636f6c64ULL << 16) ^ (c << 40));
            std::vector<job_record> mine;
            try {
                service::client client(daemon->config().socket_path);
                for (std::size_t i = 0; seconds_since(window) < opts.seconds / 4; ++i) {
                    const bool hit = (i + c) % 2 == 0;
                    const std::uint64_t seed = hit ? fixed[(i / 2 + c) % hit_seeds] : fresh();
                    mine.push_back(submit(client, id, n, seed, hit));
                }
            } catch (const std::exception& e) {
                job_record failed;
                failed.error = std::string("client connection: ") + e.what();
                mine.push_back(failed);
            }
            const std::lock_guard lock(jobs_mutex);
            jobs.insert(jobs.end(), mine.begin(), mine.end());
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    const double window_s = seconds_since(window);
    const service::json_value stats = service::client(daemon->config().socket_path).stats();
    daemon->stop();

    // Output checks against a local run_sweep of each distinct spec.
    engine::thread_pool pool(2);
    std::map<std::uint64_t, std::uint64_t> reference;  // seed -> CSV hash
    std::vector<engine::sweep_row> sample_rows;
    for (const job_record& job : jobs) {
        if (!job.error.empty() || reference.count(job.seed) != 0) {
            continue;
        }
        engine::memory_sink rows;
        engine::result_sink* sink = &rows;
        (void)engine::run_sweep(job_spec(n, job.seed), {.pool = &pool}, {&sink, 1});
        reference[job.seed] = fnv1a(rows_csv(rows.rows()));
        if (sample_rows.size() < 256) {
            sample_rows.insert(sample_rows.end(), rows.rows().begin(), rows.rows().end());
        }
    }
    std::vector<double> hit_ms, cold_ms, first_row_ms;
    std::uint64_t hit_fresh = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const job_record& job = jobs[i];
        if (!job.error.empty()) {
            out.operation(false, "submit threw: " + job.error);
            continue;
        }
        const bool same = job.csv_hash == reference[job.seed];
        const bool kind_ok = job.hit ? job.outcome.cached && job.outcome.fresh_replicas == 0
                                     : !job.outcome.cached &&
                                           job.outcome.fresh_replicas == replicas_per_job;
        out.operation(same && kind_ok, !same ? "daemon rows differ from a local run_sweep"
                                             : "cache-hit/fresh-replica accounting is wrong");
        if (i < warm_jobs) {
            continue;  // set-up submissions
        }
        if (job.hit) {
            hit_ms.push_back(job.latency_ms);
            hit_fresh += job.outcome.fresh_replicas;
        } else {
            cold_ms.push_back(job.latency_ms);
            first_row_ms.push_back(job.first_row_ms);
        }
    }
    const double mix_jobs = static_cast<double>(jobs.size() - warm_jobs);
    out.layer("service.daemon.setup_s", median(setup_s), "s");
    out.layer("service.daemon.jobs_per_s", mix_jobs / window_s, "1/s");
    out.layer("service.daemon.hit_p50_ms", quantile(hit_ms, 0.5), "ms");
    out.layer("service.daemon.cold_p50_ms", quantile(cold_ms, 0.5), "ms");
    out.layer("service.daemon.cold_p90_ms", quantile(cold_ms, 0.9), "ms");
    const double hits = stats_number(stats, "cache.hits");
    const double misses = stats_number(stats, "cache.misses");
    out.layer("service.daemon.first_row_p50_ms", quantile(first_row_ms, 0.5), "ms");
    out.layer("service.daemon.hit_p90_ms", quantile(hit_ms, 0.9), "ms");
    out.layer("service.daemon.hit_rate", hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
              "frac");
    out.layer("service.daemon.fresh_replicas", static_cast<double>(hit_fresh), "count");
    out.layer("service.admission.shed", stats_number(stats, "admission.shed"), "count");
    out.layer("service.admission.queue_wait_s", stats_number(stats, "pool.queue_wait_seconds"),
              "s");

    // Direct calls on a copy of the run's cache: load every entry, then
    // store each loaded manifest into an empty cache.
    const std::string copy = dir + "/cache-copy";
    fs::copy(live_dir + "/cache", copy, fs::copy_options::recursive);
    std::vector<std::uint64_t> keys;
    for (const auto& entry : fs::directory_iterator(copy)) {
        if (entry.path().extension() == ".manifest") {
            keys.push_back(std::stoull(entry.path().stem().string(), nullptr, 16));
        }
    }
    std::sort(keys.begin(), keys.end());
    keys.resize(std::min<std::size_t>(keys.size(), 64));
    service::result_cache loaded_cache(service::cache_config{.dir = copy});
    std::vector<engine::run_manifest> manifests(keys.size());
    const double load_ms = median_ms(keys.size(), [&](std::size_t i) {
        std::optional<engine::run_manifest> m = loaded_cache.load(keys[i]);
        out.check(m.has_value(), "cache copy lost an entry");
        if (m) {
            manifests[i] = std::move(*m);
        }
    });
    service::result_cache store_cache(service::cache_config{.dir = dir + "/cache-store"});
    const double store_ms =
        median_ms(manifests.size(), [&](std::size_t i) { store_cache.store(manifests[i]); });
    const double save_ms = median_ms(manifests.size(), [&](std::size_t i) {
        engine::save_manifest(manifests[i], dir + "/job.manifest");
    });
    out.layer("service.result_cache.load_ms", load_ms, "ms");
    out.layer("service.result_cache.store_ms", store_ms, "ms");
    out.layer("engine.manifest.save_ms", save_ms, "ms");

    // Wire codec over the run's rows: encode_sweep_row + dump, then
    // parse_json + decode_sweep_row; the round trip must be exact.
    std::vector<std::string> lines;
    double bytes = 0.0;
    const auto te = clock_type::now();
    std::size_t rounds = 0;
    for (; rounds == 0 || seconds_since(te) < 0.25; ++rounds) {
        lines.clear();
        for (const engine::sweep_row& row : sample_rows) {
            lines.push_back(service::dump(service::encode_sweep_row(row)));
            bytes += static_cast<double>(lines.back().size());
        }
    }
    const double encode_s = seconds_since(te);
    std::vector<engine::sweep_row> decoded;
    const auto td = clock_type::now();
    for (std::size_t r = 0; r < rounds; ++r) {
        decoded.clear();
        for (const std::string& line : lines) {
            decoded.push_back(service::decode_sweep_row(service::parse_json(line)));
        }
    }
    const double decode_s = seconds_since(td);
    out.check(rows_csv(decoded) == rows_csv(sample_rows), "wire round trip changed a row");
    out.layer("service.wire.encode_mb_s", bytes / 1e6 / encode_s, "MB/s");
    out.layer("service.wire.decode_mb_s", bytes / 1e6 / decode_s, "MB/s");
}

}  // namespace perfbench
