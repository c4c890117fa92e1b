// Checkpoint/restart tests: manifest round trips and edge cases (truncated
// file, corrupt fields, fingerprint mismatch), resuming a sweep at the exact
// replica boundary, resuming with a different thread count (bit-identical
// contract), the checkpoint ledger's publish cadence, and the crash-safe
// atomic file sinks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>

#include "engine/fabric.h"
#include "engine/manifest.h"
#include "engine/runner.h"
#include "engine/sink.h"
#include "engine/sweep.h"
#include "service/wire.h"

namespace {

namespace core = manhattan::core;
namespace engine = manhattan::engine;

core::scenario small_scenario() {
    core::scenario sc;
    const std::size_t n = 1200;
    sc.params = core::net_params::standard_case(
        n, 3.0 * std::sqrt(std::log(static_cast<double>(n))), 1.0);
    sc.seed = 42;
    sc.max_steps = 50'000;
    return sc;
}

/// Two grid points x three replicas — small enough for the fast tier, big
/// enough that a mid-grid boundary exists.
engine::sweep_spec small_spec() {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.repetitions = 3;
    spec.c1 = {2.5, 3.0};
    return spec;
}

/// Scratch file in the test working directory, deleted on scope exit.
class scratch_file {
 public:
    explicit scratch_file(const std::string& name) : path_("manifest_test_" + name) {
        std::remove(path_.c_str());
    }
    ~scratch_file() {
        std::remove(path_.c_str());
        std::remove((path_ + ".tmp").c_str());
    }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    [[nodiscard]] bool exists() const { return std::filesystem::exists(path_); }
    [[nodiscard]] std::string read() const {
        std::ifstream in(path_, std::ios::binary);
        return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    }

 private:
    std::string path_;
};

/// A manifest exercising every field shape: unset and set cz_step, negative
/// zero, a non-representable decimal, multi-message vectors, sparse records.
engine::run_manifest tricky_manifest() {
    engine::run_manifest m;
    m.fingerprint = 0xdeadbeefcafef00dULL;
    m.points = 3;
    m.repetitions = 4;
    engine::replica_record a;
    a.point = 2;
    a.replica = 3;
    a.stat.time = 0.1;  // not exactly representable: exercises bit round-trip
    a.stat.completed = true;
    a.stat.cz_step = 17;
    a.stat.suburb_diameter = -0.0;
    a.stat.wall_seconds = 1.5e-7;
    a.stat.message_times = {123.0, 0.30000000000000004};
    a.stat.message_completed = {1, 0};
    engine::replica_record b;
    b.point = 0;
    b.replica = 1;
    b.stat.time = 4096.0;
    b.stat.cz_step = std::nullopt;
    m.records = {a, b};
    return m;
}

// --------------------------------------------------------------- manifest ---

TEST(manifest_test, serialize_parse_round_trip_is_exact) {
    const auto m = tricky_manifest();
    const auto parsed = engine::parse_manifest(engine::serialize_manifest(m));
    EXPECT_EQ(parsed, m);
}

TEST(manifest_test, save_load_round_trip_and_no_temp_file_left) {
    scratch_file file("roundtrip.manifest");
    const auto m = tricky_manifest();
    engine::save_manifest(m, file.path());
    EXPECT_TRUE(file.exists());
    EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));
    EXPECT_EQ(engine::load_manifest(file.path()), m);

    // Saving again overwrites atomically.
    auto m2 = m;
    m2.records.pop_back();
    engine::save_manifest(m2, file.path());
    EXPECT_EQ(engine::load_manifest(file.path()), m2);
}

TEST(manifest_test, missing_file_fails) {
    EXPECT_THROW((void)engine::load_manifest("manifest_test_does_not_exist.manifest"),
                 engine::manifest_error);
}

TEST(manifest_test, truncated_manifest_fails) {
    const std::string text = engine::serialize_manifest(tricky_manifest());
    // Drop the trailing 'end' line: lost-tail truncation.
    const std::string no_end = text.substr(0, text.rfind("end "));
    EXPECT_THROW((void)engine::parse_manifest(no_end), engine::manifest_error);
    // Cut mid-record: a half-written line can never parse.
    EXPECT_THROW((void)engine::parse_manifest(text.substr(0, text.size() / 2)),
                 engine::manifest_error);
    // Empty file.
    EXPECT_THROW((void)engine::parse_manifest(""), engine::manifest_error);
}

TEST(manifest_test, corrupt_manifest_fails) {
    const auto m = tricky_manifest();
    const std::string text = engine::serialize_manifest(m);

    // Wrong format header.
    std::string bad = text;
    bad.replace(bad.find("v1"), 2, "v9");
    EXPECT_THROW((void)engine::parse_manifest(bad), engine::manifest_error);

    // Garbage in a numeric field.
    bad = text;
    bad.replace(bad.find("fingerprint ") + 12, 4, "zzzz");
    EXPECT_THROW((void)engine::parse_manifest(bad), engine::manifest_error);

    // Record-count trailer disagrees with the records present.
    bad = text;
    bad.replace(bad.rfind("end 2"), 5, "end 7");
    EXPECT_THROW((void)engine::parse_manifest(bad), engine::manifest_error);

    // Content after the trailer.
    EXPECT_THROW((void)engine::parse_manifest(text + "extra\n"), engine::manifest_error);

    // A record outside the declared grid.
    auto out_of_grid = m;
    out_of_grid.records[0].point = m.points;
    EXPECT_THROW((void)engine::parse_manifest(engine::serialize_manifest(out_of_grid)),
                 engine::manifest_error);

    // Duplicate (point, replica) records.
    auto duplicated = m;
    duplicated.records.push_back(duplicated.records[0]);
    EXPECT_THROW((void)engine::parse_manifest(engine::serialize_manifest(duplicated)),
                 engine::manifest_error);
}

TEST(manifest_test, complete_reflects_the_ledger) {
    engine::run_manifest m;
    m.points = 1;
    m.repetitions = 2;
    EXPECT_FALSE(m.complete());
    m.records.push_back({0, 0, {}});
    m.records.push_back({0, 1, {}});
    EXPECT_TRUE(m.complete());
}

// ------------------------------------------------------------ fingerprint ---

TEST(manifest_test, fingerprint_is_stable_and_spec_sensitive) {
    const auto spec = small_spec();
    const auto fp = engine::sweep_fingerprint(spec);
    EXPECT_EQ(engine::sweep_fingerprint(spec), fp);

    auto other_seed = spec;
    other_seed.base.seed = 43;
    EXPECT_NE(engine::sweep_fingerprint(other_seed), fp);

    auto other_reps = spec;
    other_reps.repetitions = 4;
    EXPECT_NE(engine::sweep_fingerprint(other_reps), fp);

    auto other_axis = spec;
    other_axis.c1 = {2.5, 3.5};
    EXPECT_NE(engine::sweep_fingerprint(other_axis), fp);

    auto extra_point = spec;
    extra_point.c1 = {2.5, 3.0, 3.5};
    EXPECT_NE(engine::sweep_fingerprint(extra_point), fp);

    auto other_mode = spec;
    other_mode.gossip_p = {0.5};
    EXPECT_NE(engine::sweep_fingerprint(other_mode), fp);

    // intra_threads is a wall-clock-only knob: excluded by contract, so a
    // resume may change it freely (like --threads).
    auto other_intra = spec;
    other_intra.base.intra_threads = 8;
    EXPECT_EQ(engine::sweep_fingerprint(other_intra), fp);
}

// ----------------------------------------------------------------- ledger ---

TEST(manifest_test, ledger_publishes_every_k_records_and_on_flush) {
    scratch_file file("ledger.manifest");
    engine::run_manifest initial;
    initial.fingerprint = 7;
    initial.points = 2;
    initial.repetitions = 3;
    engine::checkpoint_ledger ledger(initial, file.path(), 2);

    ledger.record(0, 0, {});
    EXPECT_FALSE(file.exists());  // 1 unsaved < checkpoint_every
    ledger.record(0, 1, {});
    ASSERT_TRUE(file.exists());
    EXPECT_EQ(engine::load_manifest(file.path()).records.size(), 2u);

    ledger.record(1, 0, {});
    EXPECT_EQ(engine::load_manifest(file.path()).records.size(), 2u);
    ledger.flush();
    EXPECT_EQ(engine::load_manifest(file.path()).records.size(), 3u);
}

// ------------------------------------------------------- checkpointed sweep ---

/// The ledger run_sweep hands back agrees with the one it published to
/// \p path on every (point, replica) record, wall_seconds included — only
/// the record order may differ (point-major vs completion order).
void expect_returned_ledger_matches_file(const engine::run_manifest& returned,
                                         const std::string& path) {
    const engine::run_manifest on_disk = engine::load_manifest(path);
    EXPECT_TRUE(returned.matches(on_disk.fingerprint, on_disk.points, on_disk.repetitions));
    const auto mine = returned.by_point();
    const auto theirs = on_disk.by_point();
    ASSERT_EQ(mine.size(), theirs.size());
    for (std::size_t p = 0; p < mine.size(); ++p) {
        for (std::size_t r = 0; r < mine[p].size(); ++r) {
            ASSERT_NE(mine[p][r], nullptr);
            ASSERT_NE(theirs[p][r], nullptr);
            EXPECT_EQ(*mine[p][r], *theirs[p][r]) << "point " << p << " replica " << r;
        }
    }
}

/// Rows replayed from \p manifest (the points form of replay_rows), as CSV.
std::string replayed_csv(const engine::sweep_spec& spec,
                         const engine::run_manifest& manifest) {
    const auto points = spec.expand();
    std::ostringstream out;
    engine::csv_sink sink(out);
    engine::result_sink* sinks[] = {&sink};
    EXPECT_EQ(engine::replay_rows(points, spec.repetitions, manifest, sinks), points.size());
    return out.str();
}

TEST(manifest_test, checkpointed_sweep_writes_a_complete_manifest) {
    scratch_file file("sweep.manifest");
    const auto spec = small_spec();
    std::ostringstream csv;
    engine::csv_sink csv_rows(csv);
    engine::result_sink* sinks[] = {&csv_rows};
    const auto result = engine::run_sweep(spec, {.threads = 2}, sinks,
                                          {.manifest_path = file.path()});
    ASSERT_EQ(result.rows.size(), 2u);
    const auto manifest = engine::load_manifest(file.path());
    EXPECT_EQ(manifest.fingerprint, engine::sweep_fingerprint(spec));
    EXPECT_EQ(manifest.points, 2u);
    EXPECT_EQ(manifest.repetitions, 3u);
    EXPECT_TRUE(manifest.complete());
    EXPECT_TRUE(result.manifest.complete());
    expect_returned_ledger_matches_file(result.manifest, file.path());
    EXPECT_EQ(replayed_csv(spec, result.manifest), csv.str());
}

TEST(manifest_test, resume_at_replica_boundary_is_bit_identical) {
    const auto spec = small_spec();

    // Reference: one uninterrupted run, rendered through a json_sink (the
    // fully deterministic artifact — wall times are not part of it).
    std::ostringstream ref_json;
    engine::json_sink ref_sink(ref_json);
    engine::result_sink* ref_sinks[] = {&ref_sink};
    const auto reference = engine::run_sweep(spec, {.threads = 1}, ref_sinks);
    ref_sink.finish();

    // A full checkpointed run gives us a complete ledger to carve up.
    scratch_file file("resume.manifest");
    (void)engine::run_sweep(spec, {.threads = 2}, {}, {.manifest_path = file.path()});
    const auto full = engine::load_manifest(file.path());
    ASSERT_TRUE(full.complete());

    // Simulate an interruption mid-grid: keep point 0's replicas 0 and 2
    // only (a *sparse* partial point) and nothing of point 1.
    auto partial = full;
    partial.records.clear();
    for (const auto& rec : full.records) {
        if (rec.point == 0 && rec.replica != 1) {
            partial.records.push_back(rec);
        }
    }
    ASSERT_EQ(partial.records.size(), 2u);
    engine::save_manifest(partial, file.path());

    // Resume — at a different thread count than either prior run: the
    // determinism contract makes threads (and intra_threads) wall-only.
    std::ostringstream res_json;
    engine::json_sink res_sink(res_json);
    std::ostringstream res_csv;
    engine::csv_sink res_csv_sink(res_csv);
    engine::result_sink* res_sinks[] = {&res_sink, &res_csv_sink};
    const auto resumed = engine::run_sweep(spec, {.threads = 4}, res_sinks,
                                           {.manifest_path = file.path()});
    res_sink.finish();

    EXPECT_EQ(res_json.str(), ref_json.str());  // byte-identical output
    ASSERT_EQ(resumed.rows.size(), reference.rows.size());
    for (std::size_t p = 0; p < reference.rows.size(); ++p) {
        EXPECT_EQ(resumed.rows[p].times, reference.rows[p].times);
    }
    // And the manifest was completed by the resumed run, which hands back
    // the same ledger: the two replayed records keep their ledger values.
    EXPECT_TRUE(engine::load_manifest(file.path()).complete());
    expect_returned_ledger_matches_file(resumed.manifest, file.path());
    EXPECT_EQ(replayed_csv(spec, resumed.manifest), res_csv.str());
}

TEST(manifest_test, resume_of_a_complete_manifest_is_a_pure_replay) {
    scratch_file file("replay.manifest");
    const auto spec = small_spec();
    std::ostringstream first_csv;
    engine::csv_sink first_sink(first_csv);
    engine::result_sink* first_sinks[] = {&first_sink};
    const auto first = engine::run_sweep(spec, {.threads = 2}, first_sinks,
                                         {.manifest_path = file.path()});
    std::ostringstream replay_csv;
    engine::csv_sink replay_sink(replay_csv);
    engine::result_sink* replay_sinks[] = {&replay_sink};
    const auto replayed = engine::run_sweep(spec, {.threads = 2}, replay_sinks,
                                            {.manifest_path = file.path()});
    EXPECT_EQ(first.replayed, 0u);
    EXPECT_EQ(replayed.replayed, 6u);  // every replica came from the ledger
    ASSERT_EQ(replayed.rows.size(), first.rows.size());
    for (std::size_t p = 0; p < first.rows.size(); ++p) {
        EXPECT_EQ(replayed.rows[p].times, first.rows[p].times);
        // Pure replay reproduces even the recorded per-replica wall times.
        EXPECT_DOUBLE_EQ(replayed.rows[p].wall_seconds, first.rows[p].wall_seconds);
    }
    expect_returned_ledger_matches_file(first.manifest, file.path());
    expect_returned_ledger_matches_file(replayed.manifest, file.path());
    EXPECT_EQ(replayed_csv(spec, first.manifest), first_csv.str());
    EXPECT_EQ(replayed_csv(spec, replayed.manifest), replay_csv.str());
}

TEST(manifest_test, fingerprint_mismatch_hard_fails_with_diagnostic) {
    scratch_file file("mismatch.manifest");
    const auto spec = small_spec();
    (void)engine::run_sweep(spec, {.threads = 2}, {}, {.manifest_path = file.path()});

    auto edited = spec;
    edited.base.seed = 7;  // a different experiment
    try {
        (void)engine::run_sweep(edited, {.threads = 2}, {},
                                {.manifest_path = file.path()});
        FAIL() << "resuming an edited spec must throw manifest_error";
    } catch (const engine::manifest_error& e) {
        EXPECT_NE(std::string{e.what()}.find("does not match"), std::string::npos)
            << e.what();
    }

    // Changed repetitions must fail too (the grid shape disagrees).
    auto more_reps = spec;
    more_reps.repetitions = 5;
    EXPECT_THROW((void)engine::run_sweep(more_reps, {.threads = 2}, {},
                                         {.manifest_path = file.path()}),
                 engine::manifest_error);
}

TEST(manifest_test, mismatch_diagnostic_carries_both_digests) {
    scratch_file file("digests.manifest");
    const auto spec = small_spec();
    (void)engine::run_sweep(spec, {.threads = 2}, {}, {.manifest_path = file.path()});

    auto edited = spec;
    edited.base.max_steps = 60'000;
    try {
        (void)engine::run_sweep(edited, {.threads = 2}, {},
                                {.manifest_path = file.path()});
        FAIL() << "resuming an edited spec must throw manifest_error";
    } catch (const engine::manifest_error& e) {
        // The message names both fingerprints in their canonical hex form.
        const std::string what = e.what();
        const std::string ledger =
            engine::fingerprint_hex(engine::sweep_fingerprint(spec));
        const std::string ours =
            engine::fingerprint_hex(engine::sweep_fingerprint(edited));
        EXPECT_NE(what.find(ledger), std::string::npos) << what;
        EXPECT_NE(what.find(ours), std::string::npos) << what;
    }
}

TEST(manifest_test, open_manifest_starts_an_absent_ledger_and_rejects_a_foreign_one) {
    scratch_file file("open.manifest");
    EXPECT_FALSE(engine::read_file(file.path()));
    const engine::run_manifest fresh = engine::open_manifest(file.path(), 0xabcULL, 2, 3);
    EXPECT_EQ(fresh, (engine::run_manifest{0xabcULL, 2, 3, {}}));
    EXPECT_FALSE(file.exists());  // opening never writes

    engine::save_manifest(fresh, file.path());
    EXPECT_EQ(engine::read_file(file.path()), engine::serialize_manifest(fresh));
    EXPECT_EQ(engine::open_manifest(file.path(), 0xabcULL, 2, 3), fresh);
    for (const auto& [fp, points, reps] :
         {std::tuple{0xabdULL, 2, 3}, std::tuple{0xabcULL, 1, 3}, std::tuple{0xabcULL, 2, 4}}) {
        EXPECT_FALSE(fresh.matches(fp, points, reps));
        EXPECT_THROW((void)engine::open_manifest(file.path(), fp, points, reps),
                     engine::manifest_error);
    }
}

TEST(manifest_test, fingerprint_hex_is_canonical_lower_case) {
    EXPECT_EQ(engine::fingerprint_hex(0x0123456789abcdefULL), "0123456789abcdef");
    EXPECT_EQ(engine::fingerprint_hex(0), "0000000000000000");
    EXPECT_EQ(engine::fingerprint_hex(0xffffffffffffffffULL), "ffffffffffffffff");
}

TEST(manifest_test, first_spec_difference_names_the_differing_field) {
    const auto spec = small_spec();
    const auto points = spec.expand();

    // Identical expansions: no difference to report.
    EXPECT_EQ(engine::first_spec_difference(points, spec.repetitions, points,
                                            spec.repetitions),
              "");

    // Replica-count difference wins before any per-point field.
    EXPECT_EQ(engine::first_spec_difference(points, 3, points, 5),
              "repetitions (3 vs 5)");

    // A per-point double difference reports the field and both bit patterns
    // (the fingerprint hashes bits, so last-ulp differences are real).
    auto other = spec;
    other.c1 = {2.5, 3.25};
    const auto other_points = other.expand();
    const std::string diff = engine::first_spec_difference(
        points, spec.repetitions, other_points, other.repetitions);
    EXPECT_NE(diff.find("point 1: radius ("), std::string::npos) << diff;

    // An integer field renders its values directly.
    auto reseeded = spec;
    reseeded.base.seed = 43;
    const auto reseeded_points = reseeded.expand();
    EXPECT_EQ(engine::first_spec_difference(points, spec.repetitions, reseeded_points,
                                            reseeded.repetitions),
              "point 0: seed (42 vs 43)");
}

// ------------------------------------------------------- atomic file sinks ---

TEST(manifest_test, atomic_json_sink_publishes_closed_documents_per_row) {
    // Rows to feed come from a real (tiny) sweep.
    engine::memory_sink memory;
    engine::result_sink* mem_sinks[] = {&memory};
    auto spec = small_spec();
    spec.repetitions = 2;
    (void)engine::run_sweep(spec, {.threads = 2}, mem_sinks);
    ASSERT_EQ(memory.rows().size(), 2u);

    scratch_file file("rows.json");
    engine::atomic_file_sink sink(file.path(), engine::atomic_file_sink::format::json);
    // Construction publishes an empty, closed document.
    EXPECT_EQ(file.read(), "{\"rows\": [\n]}\n");

    sink.on_row(memory.rows()[0]);
    std::string mid = file.read();
    // The mid-stream document is closed (valid) and holds exactly one row.
    EXPECT_EQ(mid.substr(mid.size() - 4), "\n]}\n");
    EXPECT_NE(mid.find("\"index\": 0"), std::string::npos);
    EXPECT_EQ(mid.find("\"index\": 1"), std::string::npos);

    sink.on_row(memory.rows()[1]);
    sink.finish();
    sink.finish();  // idempotent

    // The final document is byte-identical to a plain json_sink rendering.
    std::ostringstream reference;
    engine::json_sink ref(reference);
    ref.on_row(memory.rows()[0]);
    ref.on_row(memory.rows()[1]);
    ref.finish();
    EXPECT_EQ(file.read(), reference.str());
    EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));
}

TEST(manifest_test, atomic_csv_sink_matches_the_stream_sink) {
    engine::memory_sink memory;
    engine::result_sink* mem_sinks[] = {&memory};
    auto spec = small_spec();
    spec.repetitions = 2;
    (void)engine::run_sweep(spec, {.threads = 2}, mem_sinks);

    scratch_file file("rows.csv");
    engine::atomic_file_sink sink(file.path(), engine::atomic_file_sink::format::csv);
    for (const auto& row : memory.rows()) {
        sink.on_row(row);
    }
    sink.finish();

    std::ostringstream reference;
    engine::csv_sink ref(reference);
    for (const auto& row : memory.rows()) {
        ref.on_row(row);
    }
    EXPECT_EQ(file.read(), reference.str());
}

// ----------------------------------------------------------------- runner ---

TEST(manifest_test, replica_seeds_are_prefix_stable) {
    // The resume-at-replica-boundary contract: seed r never depends on the
    // batch size, so the replicas a resumed run still has to compute get
    // exactly the seeds the uninterrupted run would have used.
    const auto full = engine::replica_seeds(123, 6);
    for (std::size_t count = 0; count <= full.size(); ++count) {
        const auto prefix = engine::replica_seeds(123, count);
        ASSERT_EQ(prefix.size(), count);
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(prefix[i], full[i]) << i;
        }
    }
}

// ----------------------------------------------------------- golden pins ---
// Exact bytes and digests of every scenario encoding, pinned so that a change
// to how scenarios are walked cannot move any of them unnoticed: the
// fingerprint keys manifests, fabric directories and the result cache, and
// the spec file and wire bytes are read back by other processes.

/// Every scenario field set away from its default, with two messages (one
/// placement source set, one explicit id list).
core::scenario rich_scenario() {
    core::scenario sc;
    sc.params = core::net_params::standard_case(1200, 9.5, 0.75);
    sc.model = manhattan::mobility::model_kind::random_walk;
    sc.model_opts.walk_step_radius = 1.25;
    sc.model_opts.direction_max_leg = 4.5;
    sc.mode = core::propagation::gossip;
    sc.gossip_p = 0.625;
    sc.source = core::source_placement::corner_ne;
    sc.seed = 0xdeadbeefcafef00dULL;
    sc.stationary_start = false;
    sc.warmup_time = 2.5;
    sc.max_steps = 12'345;
    sc.record_timeline = true;
    sc.with_cell_partition = false;
    sc.spread.stop = core::stop_rule::informed_fraction(0.9);
    core::message_spec first;
    first.sources = core::source_spec::at(core::source_placement::center_most, 3);
    first.spawn_step = 7;
    first.mode = core::propagation::per_component;
    core::message_spec second;
    second.sources = core::source_spec::agents({5, 9, 11});
    second.spawn_step = 0;
    second.mode = core::propagation::gossip;
    second.gossip_p = 0.5;
    second.gossip_seed = 77;
    second.source_seed = 78;
    sc.spread.messages = {first, second};
    return sc;
}

TEST(golden_pins, pure_grid_fabric_spec_bytes) {
    engine::sweep_spec sweep;
    sweep.base = rich_scenario();
    sweep.standard_case = false;
    sweep.repetitions = 3;
    sweep.speed_factor = {0.5, 1.0};
    engine::fabric_spec spec;
    spec.points = sweep.expand();
    spec.repetitions = sweep.repetitions;
    spec.batch = 2;
    spec.fingerprint = engine::sweep_fingerprint(spec.points, spec.repetitions);
    EXPECT_EQ(engine::serialize_fabric_spec(spec),
              "manhattan-fabric v1\n"
              "fingerprint a5dab12b77605403\n"
              "repetitions 3\n"
              "batch 2\n"
              "points 2\n"
              "point 0 1200 4041520cd1372feb 4023000000000000 3fdf505017613168 2 "
              "3ff4000000000000 4012000000000000 2 3fe4000000000000 3 16045690984503111693 0 "
              "4004000000000000 12345 1 0 stop 1 3feccccccccccccd 0 messages 2 "
              "src 0 1 3 0 msg 7 1 3ff0000000000000 1 1 "
              "src 1 0 1 3 5 9 11 msg 0 2 3fe0000000000000 77 78 "
              "label n=1200 R=9.5 v=0.4893 model=random_walk gossip_p=0.625 msgs=2 src=3\n"
              "point 1 1200 4041520cd1372feb 4023000000000000 3fef505017613168 2 "
              "3ff4000000000000 4012000000000000 2 3fe4000000000000 3 16045690984503111693 0 "
              "4004000000000000 12345 1 0 stop 1 3feccccccccccccd 0 messages 2 "
              "src 0 1 3 0 msg 7 1 3ff0000000000000 1 1 "
              "src 1 0 1 3 5 9 11 msg 0 2 3fe0000000000000 77 78 "
              "label n=1200 R=9.5 v=0.9786 model=random_walk gossip_p=0.625 msgs=2 src=3\n"
              "end 2\n");
}

/// The pinned wire bytes of rich_scenario().
const char* const rich_scenario_wire =
    "{\"n\":1200,\"side\":\"4041520cd1372feb\",\"radius\":\"4023000000000000\","
    "\"speed\":\"3fe8000000000000\",\"model\":\"random_walk\","
    "\"walk_step_radius\":\"3ff4000000000000\","
    "\"direction_max_leg\":\"4012000000000000\",\"mode\":\"gossip\","
    "\"gossip_p\":\"3fe4000000000000\",\"source\":\"corner_ne\","
    "\"seed\":16045690984503111693,\"stationary_start\":false,"
    "\"warmup_time\":\"4004000000000000\",\"max_steps\":12345,"
    "\"record_timeline\":true,\"with_cell_partition\":false,"
    "\"stop\":{\"how\":\"informed_fraction\",\"fraction\":\"3feccccccccccccd\","
    "\"steps\":0},"
    "\"messages\":[{\"sources\":{\"how\":\"placement\",\"placement\":\"center_most\","
    "\"count\":3,\"ids\":[]},\"spawn_step\":7,\"mode\":\"per_component\","
    "\"gossip_p\":\"3ff0000000000000\",\"gossip_seed\":1,\"source_seed\":1},"
    "{\"sources\":{\"how\":\"explicit_ids\",\"placement\":\"random_agent\","
    "\"count\":1,\"ids\":[5,9,11]},\"spawn_step\":0,\"mode\":\"gossip\","
    "\"gossip_p\":\"3fe0000000000000\",\"gossip_seed\":77,\"source_seed\":78}]}";

TEST(golden_pins, pure_grid_wire_bytes) {
    EXPECT_EQ(manhattan::service::dump(manhattan::service::encode_scenario(rich_scenario())),
              rich_scenario_wire);
}

TEST(golden_pins, street_and_trace_fingerprints) {
    engine::sweep_spec streets;
    streets.base.params = {800, 30.0, 7.0, 1.0};
    streets.base.seed = 99;
    manhattan::geom::street_graph_spec plan =
        manhattan::geom::street_graph_spec::graded(30.0, 5, 1.5);
    plan.blocked.push_back({1, 1, 2, 1});
    plan.one_way.push_back({0, 0, 0, 1});
    streets.base.topology = manhattan::geom::topology_spec::streets(std::move(plan));
    streets.standard_case = false;
    streets.repetitions = 4;
    EXPECT_EQ(engine::fingerprint_hex(engine::sweep_fingerprint(streets)), "bc114af4b1d3febf");

    engine::sweep_spec traced;
    traced.base.params = {100, 12.0, 4.0, 1.0};
    traced.base.seed = 5;
    traced.base.model = manhattan::mobility::model_kind::trace_replay;
    traced.base.model_opts.trace =
        std::make_shared<const std::vector<manhattan::geom::vec2>>(
            std::vector<manhattan::geom::vec2>{{1.0, 1.0}, {11.0, 1.0}, {6.0, 9.0}});
    traced.standard_case = false;
    traced.repetitions = 2;
    EXPECT_EQ(engine::fingerprint_hex(engine::sweep_fingerprint(traced)), "10d7470930f83570");
}

TEST(golden_pins, sweep_spec_and_row_wire_bytes) {
    engine::sweep_spec spec;
    spec.base = rich_scenario();
    spec.repetitions = 5;
    spec.standard_case = false;
    spec.n = {400, 900};
    spec.c1 = {2.5};
    spec.speed_factor = {0.5, 1.0};
    spec.model = {manhattan::mobility::model_kind::mrwp,
                  manhattan::mobility::model_kind::static_agents};
    spec.mode = {core::propagation::one_hop, core::propagation::gossip};
    spec.num_sources = {1, 4};
    spec.block_ratio = {1.5};
    spec.street_blocks = 5;
    EXPECT_EQ(manhattan::service::dump(manhattan::service::encode_sweep_spec(spec)),
              std::string{"{\"base\":"} + rich_scenario_wire +
                  ",\"repetitions\":5,\"standard_case\":false,\"axes\":{\"n\":[400,900],"
                  "\"c1\":[\"4004000000000000\"],"
                  "\"speed_factor\":[\"3fe0000000000000\",\"3ff0000000000000\"],"
                  "\"model\":[\"mrwp\",\"static\"],\"mode\":[\"one_hop\",\"gossip\"],"
                  "\"num_sources\":[1,4],\"block_ratio\":[\"3ff8000000000000\"]},"
                  "\"street_blocks\":5}");

    engine::sweep_row row;
    row.point = {rich_scenario(), 3, "row label"};
    row.times = {12.0, -0.0, 0.1};
    row.summary = {3, 4.0, 1.5, -0.0, 12.0, 0.1, 0.05, 6.05};
    row.mean_ci = {1.25, 9.5};
    row.completed_fraction = 2.0 / 3.0;
    row.message_mean_times = {4.0, 7.5};
    row.message_completed_fraction = {1.0, 0.5};
    row.mean_cz_step = 3.5;
    row.cz_fraction = 0.25;
    row.suburb_diameter = 6.0;
    row.wall_seconds = 1e-3;
    EXPECT_EQ(manhattan::service::dump(manhattan::service::encode_sweep_row(row)),
              std::string{"{\"index\":3,\"label\":\"row label\",\"scenario\":"} +
                  rich_scenario_wire +
                  ",\"times\":[\"4028000000000000\",\"8000000000000000\","
                  "\"3fb999999999999a\"],"
                  "\"summary\":{\"count\":3,\"mean\":\"4010000000000000\","
                  "\"stddev\":\"3ff8000000000000\",\"min\":\"8000000000000000\","
                  "\"max\":\"4028000000000000\",\"median\":\"3fb999999999999a\","
                  "\"p25\":\"3fa999999999999a\",\"p75\":\"4018333333333333\"},"
                  "\"mean_ci\":{\"lo\":\"3ff4000000000000\",\"hi\":\"4023000000000000\"},"
                  "\"completed_fraction\":\"3fe5555555555555\","
                  "\"message_mean_times\":[\"4010000000000000\",\"401e000000000000\"],"
                  "\"message_completed_fraction\":[\"3ff0000000000000\","
                  "\"3fe0000000000000\"],"
                  "\"mean_cz_step\":\"400c000000000000\",\"max_cz_step\":null,"
                  "\"cz_fraction\":\"3fd0000000000000\","
                  "\"suburb_diameter\":\"4018000000000000\","
                  "\"wall_seconds\":\"3f50624dd2f1a9fc\"}");
}

}  // namespace
