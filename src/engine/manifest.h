/// \file manifest.h
/// Checkpoint/restart for long sweeps: the run manifest is a sweep-spec
/// fingerprint plus a (grid point, replica) completion ledger, written
/// atomically alongside the sink output. An interrupted run_sweep resumes by
/// replaying recorded replicas and computing only the missing ones — with
/// the splitmix64 replica sharding, the resumed run restarts each partially
/// complete point at the exact replica boundary and its output is
/// bit-identical to an uninterrupted run at any thread count (docs/ENGINE.md
/// pins the contract).
///
/// Safety rules:
///   - save_manifest publishes via write-temp + fsync + rename, so a crash
///     at any instant leaves either the previous manifest or the new one on
///     disk — never a half-written ledger.
///   - A manifest whose fingerprint does not match the sweep it is resumed
///     against (edited axes, different seed or repetitions, an engine whose
///     output semantics changed) hard-fails with manifest_error rather than
///     silently mixing rows from two different experiments.
#pragma once

#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "engine/error.h"

namespace manhattan::engine {

class result_sink;
struct sweep_point;
struct sweep_row;
struct sweep_spec;

/// Raised on a truncated, corrupt or mismatched manifest (or other text
/// state file: a fabric spec, a ledger). A state error in the engine
/// taxonomy (engine/error.h): durable state disagrees with what this binary
/// expects, and no retry can fix that. The message names the file and what
/// disagreed. (Manifest *I/O* failures raise engine::error with class io
/// instead — those may be transient and are retried.)
class manifest_error : public error {
 public:
    explicit manifest_error(const std::string& what) : error(errc::state, what) {}
};

/// Canonical 16-hex-char lower-case rendering of a 64-bit word: the form
/// every text state file and the wire use for digests and IEEE-754 bits.
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Strict reader of a line-oriented text state file (the run manifest, the
/// fabric spec): whitespace-separated tokens, doubles as hex64 bit patterns.
/// Anything missing or malformed throws manifest_error prefixed with the
/// file kind ("manifest: ...", "fabric: ...").
class text_reader {
 public:
    text_reader(const std::string& text, std::string file)
        : text_(text), file_(std::move(file)) {}

    /// Advance to the next line; false at the end of the text.
    [[nodiscard]] bool next_line() {
        if (!std::getline(text_, line_)) {
            return false;
        }
        fields_ = std::istringstream(line_);
        return true;
    }
    /// The value of the next line, which must be exactly "<key> <value>".
    [[nodiscard]] std::string keyed(const std::string& key) {
        if (!next_line()) {
            corrupt("truncated file: missing '" + key + "' line");
        }
        if (next_token("key") != key) {
            corrupt("expected '" + key + "' line, got '" + line_ + "'");
        }
        std::string value = next_token(key);
        end_line();
        return value;
    }
    [[nodiscard]] std::uint64_t keyed_u64(const std::string& key, int base = 10) {
        return to_u64(keyed(key), key, base);
    }
    /// The current line's next token, parsed by the next two as a decimal
    /// (or \p base) integer and as hex64 IEEE-754 bits.
    [[nodiscard]] std::string next_token(const std::string& what) {
        std::string t;
        if (!(fields_ >> t)) {
            corrupt("truncated line: missing " + what);
        }
        return t;
    }
    [[nodiscard]] std::uint64_t parse_u64(const std::string& what, int base = 10) {
        return to_u64(next_token(what), what, base);
    }
    [[nodiscard]] double parse_f64_bits(const std::string& what) {
        return std::bit_cast<double>(parse_u64(what, 16));
    }
    /// Consume the next token when it is \p tag.
    [[nodiscard]] bool accept(const char* tag) {
        const auto at = fields_.tellg();
        std::string t;
        if (fields_ >> t && t == tag) {
            return true;
        }
        fields_.clear();
        fields_.seekg(at);
        return false;
    }
    void expect(const char* tag) {
        if (!accept(tag)) {
            corrupt(std::string{"expected '"} + tag + "' on line '" + line_ + "'");
        }
    }
    /// The rest of the current line after one separating space.
    [[nodiscard]] std::string rest() {
        std::string out;
        std::getline(fields_, out);
        return !out.empty() && out.front() == ' ' ? out.substr(1) : out;
    }
    /// Throw unless the current line has no tokens left.
    void end_line() {
        std::string extra;
        if (fields_ >> extra) {
            corrupt("trailing tokens on line '" + line_ + "'");
        }
    }
    /// Throw unless nothing follows on this line or after it.
    void end_text() {
        end_line();
        if (next_line()) {
            corrupt("trailing content after 'end'");
        }
    }
    [[noreturn]] void corrupt(const std::string& what) const {
        throw manifest_error(file_ + ": " + what);
    }

 private:
    [[nodiscard]] std::uint64_t to_u64(const std::string& token, const std::string& what,
                                       int base) const {
        std::uint64_t value = 0;
        const char* end = token.data() + token.size();
        const auto [stop, ec] = std::from_chars(token.data(), end, value, base);
        if (ec != std::errc{} || stop != end) {
            corrupt("malformed " + what + " '" + token + "'");
        }
        return value;
    }

    std::istringstream text_;
    std::istringstream fields_;
    std::string line_;
    std::string file_;
};

/// Bumped whenever the engine's per-replica output semantics change (row
/// aggregation, seeding scheme, recorded fields): a manifest written by an
/// incompatible binary must not resume, so this tag feeds the fingerprint.
inline constexpr std::uint64_t engine_output_version = 1;

/// The scalars one completed replica contributes to its sweep row — exactly
/// what the sweep driver aggregates, so replaying a record reproduces the
/// row bit-for-bit (wall_seconds included: a replayed row reports the wall
/// time of the run that actually computed it).
struct replica_stat {
    double time = 0.0;                  ///< flooding time (steps)
    bool completed = false;             ///< all agents informed
    std::optional<std::uint64_t> cz_step;  ///< Central-Zone informing step
    double suburb_diameter = 0.0;
    double wall_seconds = 0.0;
    std::vector<double> message_times;  ///< per-message flooding time
    std::vector<std::uint8_t> message_completed;

    friend bool operator==(const replica_stat&, const replica_stat&) = default;
};

/// One ledger entry: replica \p replica of grid point \p point completed
/// with \p stat. Records are sparse (replicas finish out of order); the
/// resume path skips exactly the recorded pairs.
struct replica_record {
    std::size_t point = 0;
    std::size_t replica = 0;
    replica_stat stat;

    friend bool operator==(const replica_record&, const replica_record&) = default;
};

/// The on-disk checkpoint state of one run_sweep call.
struct run_manifest {
    static constexpr std::uint32_t format_version = 1;

    std::uint64_t fingerprint = 0;  ///< sweep_fingerprint of the owning sweep
    std::size_t points = 0;         ///< expanded grid size
    std::size_t repetitions = 0;    ///< replicas per point
    std::vector<replica_record> records;  ///< completion order, sparse

    /// records indexed as table[point][replica] (nullptr = not completed).
    /// Throws manifest_error on an out-of-range or duplicate record.
    [[nodiscard]] std::vector<std::vector<const replica_record*>> by_point() const;

    /// Every (point, replica) pair recorded?
    [[nodiscard]] bool complete() const;

    /// Does this ledger belong to the sweep with \p fp over \p grid_points
    /// x \p reps?
    [[nodiscard]] bool matches(std::uint64_t fp, std::size_t grid_points,
                               std::size_t reps) const noexcept {
        return fingerprint == fp && points == grid_points && repetitions == reps;
    }

    friend bool operator==(const run_manifest&, const run_manifest&) = default;
};

/// Fingerprint of a fully-expanded sweep: a hash over every output-affecting
/// field of every grid point (parameters, model + options, propagation mode,
/// seeds, spread workload, stop rule, ...) plus the replica count and
/// engine_output_version. intra_threads is deliberately excluded — the
/// determinism contract makes it (like --threads) a wall-clock-only knob, so
/// resuming at a different thread count is legal.
[[nodiscard]] std::uint64_t sweep_fingerprint(std::span<const sweep_point> points,
                                              std::size_t repetitions);

/// Convenience overload: expand the spec, then fingerprint it.
[[nodiscard]] std::uint64_t sweep_fingerprint(const sweep_spec& spec);

/// hex64 of a fingerprint — the form the manifest header, the result cache's
/// file names, and every mismatch diagnostic use.
[[nodiscard]] inline std::string fingerprint_hex(std::uint64_t fingerprint) {
    return hex64(fingerprint);
}

/// Diagnose a fingerprint mismatch: the first output-affecting field that
/// differs between two expanded sweeps, named by its scenario schema path,
/// as "repetitions (3 vs 5)", "point 2: radius (<hex64> vs <hex64>)" or
/// "point 0: messages[1].sources.ids[0].id (5 vs 6)" — empty when the
/// expansions are identical (then only engine_output_version can explain a
/// digest difference). Walks exactly the fields sweep_fingerprint hashes.
[[nodiscard]] std::string first_spec_difference(std::span<const sweep_point> a,
                                                std::size_t repetitions_a,
                                                std::span<const sweep_point> b,
                                                std::size_t repetitions_b);

/// Publish \p contents to \p path atomically: write path.tmp, fsync, rename
/// over path (then best-effort fsync the directory). A reader or a crash
/// never observes a partial file. Throws engine::error (class io, marked
/// transient) on failure — wrap calls in with_retry to ride out transient
/// filesystem hiccups.
void atomic_write_file(const std::string& path, const std::string& contents);

/// The whole file at \p path, or nullopt when it cannot be opened (absent,
/// vanished, unreadable) — the one way every state file is read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Serialize / parse the manifest text format (see docs/ENGINE.md). Doubles
/// are stored as IEEE-754 bit patterns, so a round trip is always exact.
[[nodiscard]] std::string serialize_manifest(const run_manifest& manifest);
[[nodiscard]] run_manifest parse_manifest(const std::string& text);

/// Atomic save (see atomic_write_file). Throws engine::error (class io) on
/// an I/O failure.
void save_manifest(const run_manifest& manifest, const std::string& path);

/// Load and strictly validate a manifest file. Throws manifest_error on a
/// missing, truncated or corrupt file (truncation is caught by the trailing
/// record-count line that serialize_manifest always writes).
[[nodiscard]] run_manifest load_manifest(const std::string& path);

/// The ledger of one sweep (fingerprint \p fp, \p points x \p reps): the
/// file at \p path when it exists, else an empty ledger for this sweep.
/// Throws manifest_error when the file is corrupt or belongs to another
/// sweep — the message names the path and both digests, so an edited sweep
/// never silently mixes rows with a stale ledger. run_sweep's checkpoint
/// and each fabric worker's own ledger open through here.
[[nodiscard]] run_manifest open_manifest(const std::string& path, std::uint64_t fp,
                                         std::size_t points, std::size_t reps);

/// Reduce one scenario run's outcome (which carries n-sized vectors) to the
/// scalars its sweep row aggregates — the ledger's replica_stat. The single
/// definition run_sweep and the fabric workers share, so a record is
/// bit-identical no matter which process computed it.
[[nodiscard]] replica_stat reduce_outcome(const core::scenario_outcome& out);

/// Aggregate one grid point's replica stats into its sweep row — the exact
/// reduction run_sweep performs, exposed so a resumed, merged or fabric-
/// drained sweep re-derives rows bit-identical to an uninterrupted run
/// (stats must be in replica order, one per repetition).
[[nodiscard]] sweep_row aggregate_sweep_row(const sweep_point& point,
                                            std::span<const replica_stat> stats);

/// Re-derive the rows of the sweep over \p points x \p repetitions from the
/// records of \p manifest and stream them to \p sinks in expansion order —
/// bit-identical to the run_sweep that recorded them (same
/// aggregate_sweep_row reduction, zero simulation). Points with missing
/// replicas are skipped when \p allow_partial, otherwise throw
/// engine::error (class state). Returns the number of rows emitted. The
/// daemon's cache hits, the fabric merge and sweep-merge replay through here.
std::size_t replay_rows(std::span<const sweep_point> points, std::size_t repetitions,
                        const run_manifest& manifest, std::span<result_sink* const> sinks,
                        bool allow_partial = false);

/// Thread-safe checkpoint writer for one run_sweep call: workers record()
/// replicas as they complete, and every `checkpoint_every` fresh records the
/// whole manifest is republished atomically. flush() forces a final publish
/// (the driver calls it once the workers drained — also on the error path,
/// so a failed sweep keeps its completed work).
///
/// The ledger state and the file I/O are guarded separately: a publishing
/// thread serializes its snapshot under the state lock but writes (fsync is
/// ms-scale) outside it, so other workers keep recording — and simulating —
/// while a checkpoint lands on disk. A publish generation counter keeps an
/// older snapshot from overwriting a newer one.
///
/// Failure handling: each publish retries transient I/O errors with
/// exponential backoff (engine::with_retry). A mid-run publish that still
/// fails is *reported and skipped* — the records stay in memory and the next
/// publish retries the full snapshot, so a recovered disk loses nothing and
/// a broken one never aborts the sweep mid-flight. Only flush() (the final,
/// driver-side publish) surfaces the failure to the caller.
///
/// Fault injection (engine/fault.h): record() hits site "ledger.record" —
/// a crash rule publishes the ledger under the state lock first, so the
/// on-disk record count is exactly the fatal hit number (the CI resume
/// smoke's SIGKILL, formerly --abort-after-replicas) — and every publish
/// hits "ledger.publish" inside its retry loop.
class checkpoint_ledger {
 public:
    checkpoint_ledger(run_manifest manifest, std::string path,
                      std::size_t checkpoint_every);

    /// Record one completed replica (any worker thread).
    void record(std::size_t point, std::size_t replica, replica_stat stat);

    /// Publish the current state unconditionally (driver thread). Throws
    /// engine::error (class io) when the publish fails even after retries.
    void flush();

    /// Driver-only (after workers drained): the accumulated manifest.
    [[nodiscard]] const run_manifest& manifest() const noexcept { return manifest_; }

 private:
    /// Atomically write \p snapshot (serialized at generation \p generation,
    /// i.e. with that many records) unless a newer snapshot already landed.
    /// \p surface_errors: rethrow a persistent publish failure (flush) vs
    /// report-and-continue (worker-side checkpoints).
    void publish(const std::string& snapshot, std::size_t generation,
                 bool surface_errors);

    std::mutex state_mutex_;
    run_manifest manifest_;
    std::string path_;
    std::size_t checkpoint_every_;
    std::size_t unsaved_ = 0;  ///< records since the last publish snapshot

    std::mutex io_mutex_;
    std::size_t published_generation_ = 0;
};

}  // namespace manhattan::engine
