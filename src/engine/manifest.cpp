#include "engine/manifest.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "core/scenario.h"
#include "engine/fault.h"
#include "engine/scenario_schema.h"
#include "engine/sweep.h"

namespace manhattan::engine {

namespace {

/// splitmix64 finaliser as a hash-combine step: strong bit diffusion, and a
/// pure function of the fed words — the fingerprint is stable across runs,
/// hosts and thread counts.
std::uint64_t mix(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// The fingerprint: every word of the schema word stream folded through
/// mix(); tags feed nothing.
class fingerprint_hasher {
 public:
    void word(std::uint64_t v, bool = false) { state_ = mix(state_ ^ v); }
    void tag(const char*) {}
    [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
    std::uint64_t state_ = 0x6d616e6966657374ULL;  // "manifest"
};

/// One scenario flattened to its schema words, each with its path
/// ("stop.how", "messages[1].sources.ids[0].id") and its rendering. Doubles
/// render as bit patterns: the fingerprint hashes bits, so two values that
/// print alike but differ in the last ulp are a real difference. Optional
/// blocks add a presence word (the hash needs none: absence feeds nothing).
class word_recorder {
 public:
    struct entry {
        std::string path;
        std::uint64_t bits;
        std::string shown;
    };
    std::vector<entry> words;

    template <typename T>
    void field(const char* name, T v) {
        const std::uint64_t bits = schema::word_of(v);
        std::string shown = std::is_floating_point_v<T> ? hex64(bits) : std::to_string(bits);
        if constexpr (std::is_enum_v<T>) {
            if (const char* label = schema::name_of(v)) {
                shown = label;
            }
        }
        words.push_back({path(name), bits, std::move(shown)});
    }
    template <typename F>
    void group(const char* name, const char*, F&& fn) {
        nested(path(name), fn);
    }
    template <typename T, typename F>
    void list(const char* name, const char*, const std::vector<T>& items, schema::layout,
              std::size_t, F&& fn) {
        const std::string base = path(name);
        words.push_back({base + ".size", items.size(), std::to_string(items.size())});
        for (std::size_t i = 0; i < items.size(); ++i) {
            nested(base + "[" + std::to_string(i) + "]", [&] { fn(items[i]); });
        }
    }
    template <typename F>
    void block(const char* name, const char*, bool present, F&& fn) {
        words.push_back({path(name), present, present ? "present" : "absent"});
        if (present) {
            fn();
        }
    }
    void tag(const char*) {}

 private:
    [[nodiscard]] std::string path(const char* name) const {
        return prefix_.empty() ? name : prefix_ + "." + name;
    }
    template <typename F>
    void nested(std::string prefix, F&& fn) {
        std::swap(prefix_, prefix);
        fn();
        std::swap(prefix_, prefix);
    }

    std::string prefix_;
};

}  // namespace

std::vector<std::vector<const replica_record*>> run_manifest::by_point() const {
    std::vector<std::vector<const replica_record*>> table(
        points, std::vector<const replica_record*>(repetitions, nullptr));
    for (const auto& rec : records) {
        if (rec.point >= points || rec.replica >= repetitions) {
            throw manifest_error("manifest: record (" + std::to_string(rec.point) + ", " +
                                 std::to_string(rec.replica) + ") outside the " +
                                 std::to_string(points) + " x " + std::to_string(repetitions) +
                                 " grid");
        }
        if (table[rec.point][rec.replica] != nullptr) {
            throw manifest_error("manifest: duplicate record for point " +
                                 std::to_string(rec.point) + " replica " +
                                 std::to_string(rec.replica));
        }
        table[rec.point][rec.replica] = &rec;
    }
    return table;
}

bool run_manifest::complete() const {
    return records.size() == points * repetitions && !by_point().empty();
}

std::uint64_t sweep_fingerprint(std::span<const sweep_point> points,
                                std::size_t repetitions) {
    fingerprint_hasher h;
    h.word(run_manifest::format_version);
    h.word(engine_output_version);
    h.word(repetitions);
    h.word(points.size());
    schema::word_stream walk(h);
    for (const auto& point : points) {
        schema::visit_scenario(point.sc, walk);
    }
    return h.value();
}

std::uint64_t sweep_fingerprint(const sweep_spec& spec) {
    return sweep_fingerprint(spec.expand(), spec.repetitions);
}

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return {buf};
}

std::string first_spec_difference(std::span<const sweep_point> a,
                                  std::size_t repetitions_a,
                                  std::span<const sweep_point> b,
                                  std::size_t repetitions_b) {
    const auto differ = [](const char* name, std::size_t x, std::size_t y) {
        return std::string{name} + " (" + std::to_string(x) + " vs " + std::to_string(y) + ")";
    };
    if (repetitions_a != repetitions_b) {
        return differ("repetitions", repetitions_a, repetitions_b);
    }
    if (a.size() != b.size()) {
        return differ("points", a.size(), b.size());
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        word_recorder wa;
        word_recorder wb;
        schema::visit_scenario(a[i].sc, wa);
        schema::visit_scenario(b[i].sc, wb);
        // Both walks take the same shape until a count or presence word
        // differs, and that word is then the first difference.
        for (std::size_t w = 0; w < wa.words.size() && w < wb.words.size(); ++w) {
            if (wa.words[w].bits != wb.words[w].bits) {
                return "point " + std::to_string(i) + ": " + wa.words[w].path + " (" +
                       wa.words[w].shown + " vs " + wb.words[w].shown + ")";
            }
        }
    }
    return {};
}

void atomic_write_file(const std::string& path, const std::string& contents) {
    // All failures below raise transient io errors: an interrupted syscall,
    // a momentarily full descriptor table or a busy file may clear on retry,
    // and a genuinely broken destination fails identically a few hundred
    // milliseconds later (engine::with_retry caps the total).
    const std::string tmp = path + ".tmp";
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr) {
        throw error(errc::io, "cannot open '" + tmp + "' for writing", true);
    }
    const bool wrote = contents.empty() ||
                       std::fwrite(contents.data(), 1, contents.size(), file) ==
                           contents.size();
    const bool flushed = std::fflush(file) == 0;
    // fsync before rename: the rename must never publish a file whose bytes
    // are still in the page cache only.
    const bool synced = ::fsync(::fileno(file)) == 0;
    std::fclose(file);
    if (!(wrote && flushed && synced)) {
        std::remove(tmp.c_str());
        throw error(errc::io, "write failed for '" + tmp + "'", true);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw error(errc::io, "cannot rename '" + tmp + "' to '" + path + "'", true);
    }
    // Best-effort directory sync so the rename itself survives a power cut.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd >= 0) {
        ::fsync(dir_fd);
        ::close(dir_fd);
    }
}

std::string serialize_manifest(const run_manifest& manifest) {
    std::string out = "manhattan-manifest v" + std::to_string(run_manifest::format_version) +
                      "\nfingerprint " + hex64(manifest.fingerprint) + "\npoints " +
                      std::to_string(manifest.points) + "\nrepetitions " +
                      std::to_string(manifest.repetitions) + "\n";
    for (const auto& rec : manifest.records) {
        out += "record " + std::to_string(rec.point) + ' ' + std::to_string(rec.replica) +
               ' ' + hex64(std::bit_cast<std::uint64_t>(rec.stat.time)) + ' ' +
               (rec.stat.completed ? '1' : '0') + ' ' +
               (rec.stat.cz_step ? std::to_string(*rec.stat.cz_step) : std::string{"-"}) +
               ' ' + hex64(std::bit_cast<std::uint64_t>(rec.stat.suburb_diameter)) + ' ' +
               hex64(std::bit_cast<std::uint64_t>(rec.stat.wall_seconds)) + ' ' +
               std::to_string(rec.stat.message_times.size());
        for (const double t : rec.stat.message_times) {
            out += ' ' + hex64(std::bit_cast<std::uint64_t>(t));
        }
        for (const std::uint8_t c : rec.stat.message_completed) {
            out += c != 0 ? " 1" : " 0";
        }
        out += '\n';
    }
    // Trailing count line: a truncated file (lost records, cut mid-line)
    // can never parse as a valid manifest.
    out += "end " + std::to_string(manifest.records.size()) + "\n";
    return out;
}

run_manifest parse_manifest(const std::string& text) {
    text_reader in(text, "manifest");
    std::string version = "v";  // split concat: GCC 12 -Wrestrict false positive
    version += std::to_string(run_manifest::format_version);
    if (const std::string found = in.keyed("manhattan-manifest"); found != version) {
        in.corrupt("unsupported format '" + found + "'");
    }
    run_manifest manifest;
    manifest.fingerprint = in.keyed_u64("fingerprint", 16);
    manifest.points = in.keyed_u64("points");
    manifest.repetitions = in.keyed_u64("repetitions");

    while (in.next_line()) {
        if (in.accept("end")) {
            const std::uint64_t count = in.parse_u64("record count");
            if (count != manifest.records.size()) {
                in.corrupt("record count mismatch: end says " + std::to_string(count) +
                           ", file holds " + std::to_string(manifest.records.size()));
            }
            in.end_text();
            (void)manifest.by_point();  // range/duplicate validation
            return manifest;
        }
        in.expect("record");
        replica_record rec;
        rec.point = in.parse_u64("point");
        rec.replica = in.parse_u64("replica");
        rec.stat.time = in.parse_f64_bits("time");
        rec.stat.completed = in.parse_u64("completed") != 0;
        if (!in.accept("-")) {
            rec.stat.cz_step = in.parse_u64("cz_step");
        }
        rec.stat.suburb_diameter = in.parse_f64_bits("suburb_diameter");
        rec.stat.wall_seconds = in.parse_f64_bits("wall_seconds");
        const std::uint64_t messages = in.parse_u64("message count");
        for (std::uint64_t m = 0; m < messages; ++m) {
            rec.stat.message_times.push_back(in.parse_f64_bits("message time"));
        }
        for (std::uint64_t m = 0; m < messages; ++m) {
            rec.stat.message_completed.push_back(
                in.parse_u64("message completed") != 0 ? 1 : 0);
        }
        in.end_line();
        manifest.records.push_back(std::move(rec));
    }
    in.corrupt("truncated file: missing 'end' line");
}

void save_manifest(const run_manifest& manifest, const std::string& path) {
    atomic_write_file(path, serialize_manifest(manifest));
}

std::optional<std::string> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return std::nullopt;
    }
    return std::string{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

namespace {

run_manifest parse_manifest_file(const std::string& text, const std::string& path) {
    try {
        return parse_manifest(text);
    } catch (const manifest_error& e) {
        throw manifest_error(std::string{e.what()} + " (file '" + path + "')");
    }
}

}  // namespace

run_manifest load_manifest(const std::string& path) {
    const std::optional<std::string> text = read_file(path);
    if (!text) {
        throw manifest_error("manifest: cannot open '" + path + "'");
    }
    return parse_manifest_file(*text, path);
}

run_manifest open_manifest(const std::string& path, std::uint64_t fp, std::size_t points,
                           std::size_t reps) {
    const std::optional<std::string> text = read_file(path);
    if (!text) {
        return {fp, points, reps, {}};
    }
    run_manifest manifest = parse_manifest_file(*text, path);
    if (!manifest.matches(fp, points, reps)) {
        throw manifest_error(
            "manifest: '" + path + "' does not match this sweep (manifest fingerprint " +
            fingerprint_hex(manifest.fingerprint) + ", " + std::to_string(manifest.points) +
            " points x " + std::to_string(manifest.repetitions) + " reps; sweep fingerprint " +
            fingerprint_hex(fp) + ", " + std::to_string(points) + " points x " +
            std::to_string(reps) +
            " reps). The axes, seed, repetitions or engine version changed since the ledger "
            "was written — delete it, or rerun without --resume= or in a fresh fabric "
            "directory");
    }
    return manifest;
}

checkpoint_ledger::checkpoint_ledger(run_manifest manifest, std::string path,
                                     std::size_t checkpoint_every)
    : manifest_(std::move(manifest)),
      path_(std::move(path)),
      checkpoint_every_(checkpoint_every == 0 ? 1 : checkpoint_every) {}

void checkpoint_ledger::record(std::size_t point, std::size_t replica, replica_stat stat) {
    std::string snapshot;
    std::size_t generation = 0;
    {
        const std::lock_guard<std::mutex> lock(state_mutex_);
        manifest_.records.push_back({point, replica, std::move(stat)});
        ++unsaved_;
        const fault::outcome due = fault::hit("ledger.record");
        if (due.act == fault::action::crash) {
            // Crash injection for the CI resume/chaos smokes: publish while
            // still holding the state lock (keeping the on-disk record count
            // exactly the fatal hit number — no concurrent record can slip
            // in), then die exactly like an external `kill -9`: no stack
            // unwinding, no sink finish(), no final flush.
            publish(serialize_manifest(manifest_), manifest_.records.size(), true);
        }
        fault::act("ledger.record", due);  // crash / fail / delay
        if (unsaved_ >= checkpoint_every_) {
            snapshot = serialize_manifest(manifest_);
            generation = manifest_.records.size();
            unsaved_ = 0;
        }
    }
    if (!snapshot.empty()) {
        publish(snapshot, generation, false);
    }
}

void checkpoint_ledger::flush() {
    std::string snapshot;
    std::size_t generation = 0;
    {
        const std::lock_guard<std::mutex> lock(state_mutex_);
        snapshot = serialize_manifest(manifest_);
        generation = manifest_.records.size();
        unsaved_ = 0;
    }
    publish(snapshot, generation, true);
}

void checkpoint_ledger::publish(const std::string& snapshot, std::size_t generation,
                                bool surface_errors) {
    const std::lock_guard<std::mutex> lock(io_mutex_);
    // A concurrent thread may already have landed a snapshot with more
    // records; never overwrite newer state with older. Equal generations
    // republish (same content — lets flush() always force a write).
    if (generation < published_generation_) {
        return;
    }
    try {
        with_retry(backoff_policy{}, "manifest publish", [&] {
            fault::inject("ledger.publish");
            atomic_write_file(path_, snapshot);
        });
    } catch (const error&) {
        if (surface_errors) {
            throw;
        }
        // Report and keep sweeping: the records stay in the in-memory
        // manifest, so the next checkpoint retries the full snapshot and a
        // recovered filesystem loses nothing. Only the final flush() makes
        // a persistent failure fatal.
        std::fprintf(stderr,
                     "manifest: checkpoint publish of '%s' failed (will retry at the "
                     "next checkpoint)\n",
                     path_.c_str());
        return;
    }
    published_generation_ = generation;
}

}  // namespace manhattan::engine
