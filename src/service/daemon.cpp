#include "service/daemon.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <optional>

#include "engine/fabric.h"
#include "engine/sink.h"
#include "service/wire.h"
#include "util/telemetry.h"

namespace manhattan::service {

namespace fs = std::filesystem;

namespace {

/// The event that ends every completed submit: the rows streamed, whether
/// they came from the cache, and how many replicas were computed anew.
void send_done(int fd, const std::string& job, std::size_t rows, bool cached,
               std::size_t fresh) {
    json_value done = json_value::object();
    done.set("event", json_value::string("done"));
    done.set("job", json_value::string(job));
    done.set("rows", json_value::integer(rows));
    done.set("cached", json_value::boolean(cached));
    done.set("fresh_replicas", json_value::integer(fresh));
    send_line(fd, done);
}

json_value error_response(const std::string& op, const char* cls,
                          const std::string& message) {
    json_value v = json_value::object();
    v.set("ok", json_value::boolean(false));
    v.set("op", json_value::string(op));
    v.set("error", json_value::string(cls));
    v.set("message", json_value::string(message));
    return v;
}

/// Streams each aggregated row to the peer as it completes. Driver-thread
/// only (the connection thread runs the sweep), like every sink. A dead
/// peer stops the streaming but never the job.
class stream_sink final : public engine::result_sink {
 public:
    stream_sink(int fd, std::string job) : fd_(fd), job_(std::move(job)) {}

    void on_row(const engine::sweep_row& row) override {
        ++rows_;
        if (broken_) {
            return;
        }
        json_value event = json_value::object();
        event.set("event", json_value::string("row"));
        event.set("job", json_value::string(job_));
        event.set("row", encode_sweep_row(row));
        broken_ = !send_line(fd_, event);
    }

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] bool broken() const noexcept { return broken_; }

 private:
    int fd_;
    std::string job_;
    std::size_t rows_ = 0;
    bool broken_ = false;
};

}  // namespace

struct daemon::job_state {
    std::string id;
    std::uint64_t fingerprint = 0;

    std::mutex m;
    std::condition_variable cv;
    admission_ticket* ticket = nullptr;  ///< guarded by m; null once released
    std::string status = "queued";       ///< queued / running / done / cancelled / error
    bool finished = false;

    void transition(const std::string& next, bool final_state) {
        std::lock_guard lock(m);
        status = next;
        if (final_state) {
            finished = true;
            ticket = nullptr;
            cv.notify_all();
        }
    }
};

daemon::daemon(daemon_config config)
    : config_(std::move(config)),
      pool_(std::make_unique<engine::thread_pool>(config_.threads)),
      cache_(cache_config{config_.cache_dir, config_.cache_max_entries,
                          config_.cache_max_bytes},
             &metrics_),
      admission_(config_.admission, &metrics_) {
    if (config_.socket_path.empty()) {
        throw std::invalid_argument("daemon: empty socket path");
    }
    fs::create_directories(config_.cache_dir);
    fs::create_directories(config_.work_dir);
}

daemon::~daemon() { stop(); }

void daemon::start() {
    listener_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener_ < 0) {
        throw engine::error(engine::errc::io, "daemon: socket() failed", true);
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
        throw std::invalid_argument("daemon: socket path '" + config_.socket_path +
                                    "' exceeds the AF_UNIX limit");
    }
    std::strncpy(addr.sun_path, config_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(config_.socket_path.c_str());  // stale socket from a killed daemon
    if (::bind(listener_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listener_, 64) != 0) {
        const std::string what = std::strerror(errno);
        ::close(listener_);
        listener_ = -1;
        throw engine::error(engine::errc::io,
                            "daemon: cannot listen on '" + config_.socket_path +
                                "': " + what,
                            true);
    }
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void daemon::request_stop() noexcept {
    stopping_.store(true, std::memory_order_relaxed);
    const int fd = listener_;
    if (fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);  // wakes the blocking accept()
    }
}

void daemon::wait() {
    // Polling keeps the SIGTERM path trivial: the handler only flips the
    // atomic and shuts the listener down — both async-signal-safe enough —
    // and this loop notices within a tick.
    while (!stopping_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

void daemon::stop() {
    {
        std::lock_guard lock(stopped_mutex_);
        if (stopped_) {
            return;
        }
        stopped_ = true;
    }
    request_stop();
    if (accept_thread_.joinable()) {
        accept_thread_.join();
    }
    if (listener_ >= 0) {
        ::close(listener_);
        listener_ = -1;
        ::unlink(config_.socket_path.c_str());
    }
    std::list<connection> connections;
    {
        std::lock_guard lock(connections_mutex_);
        connections.swap(connections_);
        for (const connection& c : connections) {
            if (!c.done) {
                ::shutdown(c.fd, SHUT_RDWR);  // wakes the thread's blocking recv()
            }
        }
    }
    for (connection& c : connections) {
        if (c.thread.joinable()) {
            c.thread.join();
        }
        ::close(c.fd);
    }
    stopped_cv_.notify_all();
}

void daemon::accept_loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
        const int fd = ::accept(listener_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;  // listener shut down (or broken): stop accepting
        }
        std::list<connection> finished;
        {
            std::lock_guard lock(connections_mutex_);
            if (stopping_.load(std::memory_order_relaxed)) {
                ::close(fd);
                break;
            }
            for (auto it = connections_.begin(); it != connections_.end();) {
                const auto next = std::next(it);
                if (it->done) {
                    finished.splice(finished.end(), connections_, it);
                }
                it = next;
            }
            connection& c = connections_.emplace_back();
            c.fd = fd;
            c.thread = std::thread([this, fd, &c] {
                handle_connection(fd);
                std::lock_guard done_lock(connections_mutex_);
                c.done = true;
            });
        }
        for (connection& c : finished) {
            c.thread.join();  // the thread has returned or is about to
            ::close(c.fd);
        }
    }
    stopping_.store(true, std::memory_order_relaxed);
}

void daemon::handle_connection(int fd) {
    line_reader reader(fd);
    while (true) {
        const std::optional<std::string> line = reader.next();
        if (!line) {
            return;
        }
        if (line->empty()) {
            continue;
        }
        std::string op = "?";
        try {
            const json_value request = parse_json(*line);
            op = str_field(request, "op");
            if (op == "ping") {
                json_value v = json_value::object();
                v.set("ok", json_value::boolean(true));
                v.set("op", json_value::string("ping"));
                send_line(fd, v);
            } else if (op == "submit") {
                handle_submit(fd, request);
            } else if (op == "status") {
                handle_status(fd, request);
            } else if (op == "cancel") {
                handle_cancel(fd, request);
            } else if (op == "stats") {
                handle_stats(fd);
            } else if (op == "shutdown") {
                json_value v = json_value::object();
                v.set("ok", json_value::boolean(true));
                v.set("op", json_value::string("shutdown"));
                send_line(fd, v);
                request_stop();
                return;
            } else {
                send_line(fd, error_response(op, "spec", "unknown op '" + op + "'"));
            }
        } catch (const busy_error& e) {
            send_line(fd, error_response(op, "busy", e.what()));
        } catch (const engine::error& e) {
            send_line(fd, error_response(op, engine::errc_name(e.cls()), e.what()));
        } catch (const std::exception& e) {
            send_line(fd, error_response(op, engine::errc_name(engine::classify(e)),
                                         e.what()));
        }
    }
}

void daemon::handle_submit(int fd, const json_value& request) {
    const engine::sweep_spec spec = decode_sweep_spec(require(request, "spec"));
    const std::string client = [&] {
        const json_value* c = request.find("client");
        return c != nullptr && c->what == json_value::kind::string ? c->text
                                                                   : std::string{"anon"};
    }();
    const std::vector<engine::sweep_point> points = spec.expand();
    const std::uint64_t fp = engine::sweep_fingerprint(points, spec.repetitions);
    const std::string job = engine::fingerprint_hex(fp);

    const auto send_header = [&](bool cached) {
        json_value v = json_value::object();
        v.set("ok", json_value::boolean(true));
        v.set("op", json_value::string("submit"));
        v.set("job", json_value::string(job));
        v.set("cached", json_value::boolean(cached));
        v.set("points", json_value::integer(points.size()));
        v.set("reps", json_value::integer(spec.repetitions));
        send_line(fd, v);
    };

    // The one cache-hit path: when the cache holds this sweep, run \p on_hit,
    // replay every row from the cached manifest and end with the done event
    // — zero pool tasks by construction.
    const auto serve_cached = [&](const auto& on_hit) {
        const std::optional<engine::run_manifest> hit = cache_.load(fp);
        if (!hit) {
            return false;
        }
        on_hit();
        stream_sink rows(fd, job);
        engine::result_sink* sink = &rows;
        engine::replay_rows(points, spec.repetitions, *hit, {&sink, 1});
        send_done(fd, job, rows.rows(), true, 0);
        return true;
    };

    // Fast path: already memoized — serve without consuming admission.
    if (serve_cached([&] { send_header(true); })) {
        return;
    }

    // Duplicate-submission rendezvous: an identical job already in flight
    // finishes exactly once; this submission waits for it and serves the
    // cache instead of competing for a run slot.
    if (std::shared_ptr<job_state> live = [&] {
            std::lock_guard lock(jobs_mutex_);
            const auto it = jobs_.find(fp);
            return it != jobs_.end() ? it->second : nullptr;
        }()) {
        {
            std::unique_lock lock(live->m);
            live->cv.wait(lock, [&] { return live->finished; });
        }
        if (serve_cached([&] { send_header(true); })) {
            return;
        }
        // The in-flight twin was cancelled or failed: fall through and run.
    }

    std::unique_ptr<admission_ticket> ticket = admission_.admit(client);  // throws busy
    auto state = std::make_shared<job_state>();
    state->id = job;
    state->fingerprint = fp;
    state->ticket = ticket.get();
    {
        std::lock_guard lock(jobs_mutex_);
        jobs_[fp] = state;
    }
    const auto unregister = [&] {
        std::lock_guard lock(jobs_mutex_);
        const auto it = jobs_.find(fp);
        if (it != jobs_.end() && it->second == state) {
            jobs_.erase(it);
        }
    };

    send_header(false);
    if (!ticket->acquire_run_slot()) {
        state->transition("cancelled", true);
        unregister();
        json_value v = json_value::object();
        v.set("event", json_value::string("cancelled"));
        v.set("job", json_value::string(job));
        send_line(fd, v);
        return;
    }
    state->transition("running", false);

    // Between admission and the run slot another connection may have
    // completed the same sweep; one more probe keeps the work done once.
    if (serve_cached([&] {
            state->transition("done", true);
            unregister();
        })) {
        return;
    }

    try {
        std::size_t fresh = points.size() * spec.repetitions;
        stream_sink rows(fd, job);
        engine::result_sink* sinks[] = {&rows};
        engine::run_options opts;
        opts.pool = pool_.get();
        if (!config_.fabric_root.empty()) {
            // One fabric directory per job: this daemon drains it and
            // external sweepd workers may join in. They share the tally, so
            // the whole grid is reported fresh.
            engine::fabric_options fabric;
            fabric.dir = config_.fabric_root + "/job-" + job;
            fabric.owner = "daemon";
            cache_.store(engine::drain_fabric(spec, 8, fabric, opts, sinks).manifest);
        } else {
            // A crash ledger left in work_dir resumes at the replica boundary;
            // only the replicas it lacks are fresh.
            const std::string work = config_.work_dir + "/" + job + ".manifest";
            const engine::sweep_result result =
                engine::run_sweep(spec, opts, sinks, {.manifest_path = work});
            fresh -= result.replayed;
            cache_.store(result.manifest);
            std::error_code ec;
            fs::remove(work, ec);  // promoted to the cache; the ledger is spent
        }
        state->transition("done", true);
        unregister();
        send_done(fd, job, rows.rows(), false, fresh);
    } catch (const std::exception& e) {
        state->transition("error", true);
        unregister();
        const engine::errc cls = engine::classify(e);
        json_value event = json_value::object();
        event.set("event", json_value::string("error"));
        event.set("job", json_value::string(job));
        event.set("error", json_value::string(engine::errc_name(cls)));
        event.set("message", json_value::string(e.what()));
        send_line(fd, event);
    }
}

void daemon::handle_status(int fd, const json_value& request) {
    const std::string job = str_field(request, "job");
    std::string status = "unknown";
    {
        std::lock_guard lock(jobs_mutex_);
        for (const auto& [fp, state] : jobs_) {
            if (state->id == job) {
                std::lock_guard state_lock(state->m);
                status = state->status;
                break;
            }
        }
    }
    if (status == "unknown" && job.size() == 16) {
        try {
            if (fs::exists(cache_.entry_path(std::stoull(job, nullptr, 16)))) {
                status = "cached";
            }
        } catch (const std::exception&) {
            // not a fingerprint: stays unknown
        }
    }
    json_value v = json_value::object();
    v.set("ok", json_value::boolean(true));
    v.set("op", json_value::string("status"));
    v.set("job", json_value::string(job));
    v.set("status", json_value::string(status));
    send_line(fd, v);
}

void daemon::handle_cancel(int fd, const json_value& request) {
    const std::string job = str_field(request, "job");
    bool found = false;
    {
        std::lock_guard lock(jobs_mutex_);
        for (const auto& [fp, state] : jobs_) {
            if (state->id == job) {
                std::lock_guard state_lock(state->m);
                if (state->ticket != nullptr) {
                    state->ticket->cancel();
                }
                found = true;
                break;
            }
        }
    }
    json_value v = json_value::object();
    v.set("ok", json_value::boolean(found));
    v.set("op", json_value::string("cancel"));
    v.set("job", json_value::string(job));
    if (!found) {
        v.set("error", json_value::string("state"));
        v.set("message", json_value::string("no live job '" + job + "'"));
    }
    send_line(fd, v);
}

void daemon::handle_stats(int fd) {
    json_value v = json_value::object();
    v.set("ok", json_value::boolean(true));
    v.set("op", json_value::string("stats"));
    v.set("queued", json_value::integer(admission_.queued()));
    v.set("running", json_value::integer(admission_.running()));
    json_value metrics = json_value::object();
    // Daemon registry (cache.*, admission.*) plus the shared pool's
    // instruments (pool.tasks_run pins the zero-fresh-replica contract).
    for (const engine::metrics_registry* registry :
         {static_cast<const engine::metrics_registry*>(&metrics_), &pool_->metrics()}) {
        for (const engine::metric_snapshot& m : registry->snapshot()) {
            if (m.what == engine::metric_snapshot::kind::counter) {
                metrics.set(m.name, json_value::integer(
                                        static_cast<std::uint64_t>(m.value)));
            } else if (m.what == engine::metric_snapshot::kind::gauge) {
                metrics.set(m.name, encode_f64(m.value));
            }
        }
    }
    v.set("metrics", std::move(metrics));
    send_line(fd, v);
}

}  // namespace manhattan::service
