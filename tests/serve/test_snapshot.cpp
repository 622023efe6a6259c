// Snapshot format, atomicity and defensive-restore tests (DESIGN.md
// §16).  The corruption battery works on in-memory images via
// serialize/deserialize_into so it can patch bytes and recompute CRCs
// without touching disk; the file-level tests use a per-test temp path.

#include "serve/snapshot.hpp"

#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace serve = silicon::serve;
namespace snap = silicon::serve::snapshot;
using serve::memo_cache;

namespace {

// Offsets from the documented layout (snapshot.hpp).
constexpr std::size_t kFileHeader = 48;
constexpr std::size_t kShardHeader = 24;
constexpr std::size_t kVersionOff = 8;
constexpr std::size_t kShardCountOff = 12;
constexpr std::size_t kEntryCountOff = 24;
constexpr std::size_t kPayloadBytesOff = 32;
constexpr std::size_t kHeaderCrcOff = 40;

std::uint32_t read_u32(const std::string& image, std::size_t off) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
        v = (v << 8) | static_cast<unsigned char>(image[off + i]);
    }
    return v;
}

std::uint64_t read_u64(const std::string& image, std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
        v = (v << 8) | static_cast<unsigned char>(image[off + i]);
    }
    return v;
}

void patch_u32(std::string& image, std::size_t off, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        image[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
}

void patch_u64(std::string& image, std::size_t off, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        image[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
}

/// Recompute every shard CRC and the file-header CRC so structural
/// corruption tests isolate the check they target (the CRCs stay
/// valid; only the patched semantics are wrong).
void recompute_crcs(std::string& image) {
    const std::uint32_t shards = read_u32(image, kShardCountOff);
    std::size_t at = kFileHeader;
    for (std::uint32_t s = 0; s < shards; ++s) {
        const std::uint64_t record_bytes = read_u64(image, at + 8);
        patch_u32(image, at + 16,
                  snap::crc32c(image.data() + at + kShardHeader,
                               record_bytes));
        at += kShardHeader + record_bytes;
    }
    patch_u32(image, kHeaderCrcOff, snap::crc32c(image.data(), 40));
}

const std::uint64_t kFp = snap::config_fingerprint(false);

/// Seed a cache with deterministic contents for image surgery.
void seed_cache(memo_cache& cache) {
    cache.put("alpha", "{\"a\":1}");
    cache.put("bravo", "{\"b\":2}");
    cache.put("charlie", "{\"c\":3}");
}

/// The image of a freshly-seeded capacity-16, 2-shard cache.
std::string seeded_image() {
    memo_cache cache{16, 2};
    seed_cache(cache);
    return snap::serialize(cache, kFp);
}

std::string temp_path(const char* tag) {
    return "snapshot_test_" + std::string{tag} + "_" +
           std::to_string(::getpid()) + ".bin";
}

/// RAII cleanup for on-disk snapshot tests.
struct file_guard {
    explicit file_guard(std::string p) : path{std::move(p)} {}
    ~file_guard() {
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }
    std::string path;
};

void expect_cold_corrupt(const snap::restore_result& r,
                         const memo_cache& cache, const char* what) {
    EXPECT_EQ(r.outcome, snap::restore_outcome::cold_corrupt) << what;
    EXPECT_FALSE(r.reason.empty()) << what;
    EXPECT_EQ(cache.snapshot().entries, 0u)
        << what << ": corrupt restore must not leave partial entries";
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(Snapshot, EmptyCacheRoundTrips) {
    memo_cache cache{8, 4};
    const std::string image = snap::serialize(cache, kFp);
    EXPECT_EQ(image.size(), kFileHeader + 4 * kShardHeader);

    memo_cache restored{8, 4};
    const snap::restore_result r =
        snap::deserialize_into(restored, kFp, image);
    EXPECT_EQ(r.outcome, snap::restore_outcome::restored);
    EXPECT_EQ(r.entries, 0u);
    EXPECT_EQ(restored.snapshot().entries, 0u);
}

TEST(Snapshot, RoundTripPreservesEveryEntry) {
    memo_cache cache{64, 4};
    std::vector<std::pair<std::string, std::string>> entries;
    for (int i = 0; i < 20; ++i) {
        entries.emplace_back("key-" + std::to_string(i),
                             "{\"value\":" + std::to_string(i * i) + "}");
        cache.put(entries.back().first, entries.back().second);
    }
    std::uint64_t counted = 0;
    const std::string image = snap::serialize(cache, kFp, &counted);
    EXPECT_EQ(counted, 20u);
    EXPECT_EQ(read_u64(image, kEntryCountOff), 20u);
    EXPECT_EQ(read_u64(image, kPayloadBytesOff),
              image.size() - kFileHeader);

    memo_cache restored{64, 4};
    const snap::restore_result r =
        snap::deserialize_into(restored, kFp, image);
    ASSERT_EQ(r.outcome, snap::restore_outcome::restored);
    EXPECT_EQ(r.entries, 20u);
    std::string hit;
    for (const auto& [key, value] : entries) {
        ASSERT_TRUE(restored.get_if_present(key, &hit)) << key;
        EXPECT_EQ(hit, value) << key;
    }
}

TEST(Snapshot, RoundTripPreservesRecencyOrder) {
    // Records are written LRU -> MRU, so replaying through put()
    // reproduces the eviction order: the pre-snapshot LRU victim is
    // still the post-restore victim.
    memo_cache cache{2, 1};
    cache.put("older", "1");
    cache.put("newer", "2");
    ASSERT_TRUE(cache.get("older"));  // "older" is now MRU

    memo_cache restored{2, 1};
    ASSERT_EQ(snap::deserialize_into(restored, kFp,
                                     snap::serialize(cache, kFp))
                  .outcome,
              snap::restore_outcome::restored);
    restored.put("evictor", "3");  // must evict "newer", the LRU
    EXPECT_FALSE(restored.get_if_present("newer"));
    EXPECT_TRUE(restored.get_if_present("older"));
    EXPECT_TRUE(restored.get_if_present("evictor"));
}

TEST(Snapshot, RestoresAcrossDifferentShardCounts) {
    // Replay goes through put(), so the restoring cache's geometry is
    // free to differ from the writer's.
    const std::string image = seeded_image();
    memo_cache restored{16, 7};
    const snap::restore_result r =
        snap::deserialize_into(restored, kFp, image);
    ASSERT_EQ(r.outcome, snap::restore_outcome::restored);
    EXPECT_EQ(restored.snapshot().entries, 3u);
    EXPECT_TRUE(restored.get_if_present("charlie"));
}

TEST(Snapshot, FileRoundTripIsAtomic) {
    const file_guard guard{temp_path("roundtrip")};
    memo_cache cache{16, 2};
    seed_cache(cache);
    const snap::write_result w = snap::write_file(cache, kFp, guard.path);
    ASSERT_TRUE(w.ok) << w.error;
    EXPECT_EQ(w.entries, 3u);
    EXPECT_GT(w.bytes, kFileHeader);
    // The temp file was renamed away, never left behind.
    EXPECT_NE(::access((guard.path + ".tmp").c_str(), F_OK), 0);

    memo_cache restored{16, 2};
    const snap::restore_result r =
        snap::restore_file(restored, kFp, guard.path);
    ASSERT_EQ(r.outcome, snap::restore_outcome::restored);
    EXPECT_EQ(r.entries, 3u);
    EXPECT_EQ(r.bytes, w.bytes);

    // A second write atomically replaces the first.
    ASSERT_TRUE(snap::write_file(cache, kFp, guard.path).ok);
    memo_cache again{16, 2};
    EXPECT_EQ(snap::restore_file(again, kFp, guard.path).outcome,
              snap::restore_outcome::restored);
}

// ---------------------------------------------------------------------------
// Defensive restore: every corruption degrades to a clean cold start
// ---------------------------------------------------------------------------

TEST(Snapshot, MissingFileIsColdMissingNotCorrupt) {
    memo_cache cache{8, 1};
    const snap::restore_result r = snap::restore_file(
        cache, kFp, "no_such_directory_xyz/snapshot.bin.absent");
    EXPECT_EQ(r.outcome, snap::restore_outcome::cold_missing);
    EXPECT_EQ(r.entries, 0u);
}

TEST(Snapshot, NonRegularFileIsColdCorrupt) {
    memo_cache cache{8, 1};
    const snap::restore_result r = snap::restore_file(cache, kFp, "/");
    expect_cold_corrupt(r, cache, "directory as snapshot");
}

TEST(Snapshot, FingerprintMismatchIsColdCorrupt) {
    const std::string image = seeded_image();
    memo_cache restored{16, 2};
    const snap::restore_result r = snap::deserialize_into(
        restored, snap::config_fingerprint(true), image);
    expect_cold_corrupt(r, restored, "fast_math fingerprint");
}

TEST(Snapshot, StaleFormatVersionIsColdCorrupt) {
    std::string image = seeded_image();
    patch_u32(image, kVersionOff, snap::format_version + 1);
    recompute_crcs(image);  // isolate the version check from the CRC
    memo_cache restored{16, 2};
    expect_cold_corrupt(snap::deserialize_into(restored, kFp, image),
                        restored, "future format version");
}

TEST(Snapshot, EveryTruncationIsColdCorrupt) {
    const std::string image = seeded_image();
    for (std::size_t len = 0; len < image.size(); ++len) {
        memo_cache restored{16, 2};
        const snap::restore_result r = snap::deserialize_into(
            restored, kFp, image.substr(0, len));
        EXPECT_EQ(r.outcome, snap::restore_outcome::cold_corrupt)
            << "truncated to " << len << " of " << image.size();
        EXPECT_EQ(restored.snapshot().entries, 0u) << "len=" << len;
    }
}

TEST(Snapshot, EveryBitFlipIsContained) {
    // Flip two bits at every byte position.  A flip in a checksummed
    // region must fail closed (cold, empty cache); a flip in a
    // reserved/don't-care byte may restore, but then the contents must
    // be exactly the original entries — never a poisoned or partial
    // cache.
    memo_cache cache{16, 2};
    seed_cache(cache);
    const std::string pristine = snap::serialize(cache, kFp);
    for (std::size_t i = 0; i < pristine.size(); ++i) {
        for (const unsigned char mask : {0x01u, 0x80u}) {
            std::string image = pristine;
            image[i] = static_cast<char>(
                static_cast<unsigned char>(image[i]) ^ mask);
            memo_cache restored{16, 2};
            const snap::restore_result r =
                snap::deserialize_into(restored, kFp, image);
            if (r.outcome == snap::restore_outcome::restored) {
                EXPECT_EQ(restored.snapshot().entries, 3u)
                    << "byte " << i << " mask " << unsigned{mask};
                for (const char* key : {"alpha", "bravo", "charlie"}) {
                    std::string hit;
                    std::string want;
                    ASSERT_TRUE(restored.get_if_present(key, &hit))
                        << "byte " << i;
                    ASSERT_TRUE(cache.get_if_present(key, &want));
                    EXPECT_EQ(hit, want) << "byte " << i;
                }
            } else {
                EXPECT_EQ(r.outcome,
                          snap::restore_outcome::cold_corrupt);
                EXPECT_EQ(restored.snapshot().entries, 0u)
                    << "byte " << i << " mask " << unsigned{mask};
            }
        }
    }
}

TEST(Snapshot, ZeroLengthRecordFieldIsColdCorrupt) {
    // Values are JSON documents ("{}" at minimum) and keys are
    // canonical requests, so a zero length can only be corruption.
    memo_cache cache{8, 1};
    cache.put("k", "v");
    std::string image = snap::serialize(cache, kFp);
    // First record of the only shard: value_len at +4 past the header.
    patch_u32(image, kFileHeader + kShardHeader + 4, 0);
    recompute_crcs(image);
    memo_cache restored{8, 1};
    expect_cold_corrupt(snap::deserialize_into(restored, kFp, image),
                        restored, "zero value_len");

    image = snap::serialize(cache, kFp);
    patch_u32(image, kFileHeader + kShardHeader, 0);  // key_len
    recompute_crcs(image);
    memo_cache restored2{8, 1};
    expect_cold_corrupt(snap::deserialize_into(restored2, kFp, image),
                        restored2, "zero key_len");
}

TEST(Snapshot, OversizedLengthPrefixIsColdCorrupt) {
    memo_cache cache{8, 1};
    cache.put("k", "v");
    std::string image = snap::serialize(cache, kFp);
    patch_u32(image, kFileHeader + kShardHeader, 0x00ffffffu);  // key_len
    recompute_crcs(image);
    memo_cache restored{8, 1};
    expect_cold_corrupt(snap::deserialize_into(restored, kFp, image),
                        restored, "oversized key_len");
}

TEST(Snapshot, ShardEntryCountMismatchIsColdCorrupt) {
    memo_cache cache{16, 1};
    seed_cache(cache);
    std::string image = snap::serialize(cache, kFp);
    patch_u64(image, kFileHeader, read_u64(image, kFileHeader) + 1);
    recompute_crcs(image);
    memo_cache restored{16, 1};
    expect_cold_corrupt(snap::deserialize_into(restored, kFp, image),
                        restored, "shard header overcounts");
}

TEST(Snapshot, TotalEntryCountMismatchIsColdCorrupt) {
    std::string image = seeded_image();
    patch_u64(image, kEntryCountOff, read_u64(image, kEntryCountOff) + 1);
    recompute_crcs(image);
    memo_cache restored{16, 2};
    expect_cold_corrupt(snap::deserialize_into(restored, kFp, image),
                        restored, "file header overcounts");
}

TEST(Snapshot, TrailingGarbageIsColdCorrupt) {
    std::string image = seeded_image();
    image += "extra bytes the writer never produced";
    {
        memo_cache restored{16, 2};
        expect_cold_corrupt(snap::deserialize_into(restored, kFp, image),
                            restored, "appended without header fixup");
    }
    // Even with the payload length and CRCs patched to admit the tail,
    // the shard walk must account for every byte.
    patch_u64(image, kPayloadBytesOff, image.size() - kFileHeader);
    recompute_crcs(image);
    memo_cache restored{16, 2};
    expect_cold_corrupt(snap::deserialize_into(restored, kFp, image),
                        restored, "appended with header fixup");
}

// ---------------------------------------------------------------------------
// Concurrency: snapshots race puts and overload sheds without tearing
// ---------------------------------------------------------------------------

TEST(Snapshot, ConcurrentShedAndPutNeverTearTheImage) {
    // The writer captures one shard at a time under that shard's lock
    // and derives every count and CRC from the captured bytes, so a
    // racing shed_shards (overload) or put yields a stale but always
    // restorable image.
    memo_cache cache{256, 4};
    for (int i = 0; i < 64; ++i) {
        cache.put("seed-" + std::to_string(i), "{\"v\":1}");
    }
    std::atomic<bool> done{false};
    std::thread mutator{[&] {
        int i = 0;
        while (!done.load(std::memory_order_relaxed)) {
            cache.shed_shards(1 + (i % 4));
            for (int j = 0; j < 8; ++j, ++i) {
                cache.put("hot-" + std::to_string(i % 97), "{\"v\":2}");
            }
        }
    }};
    for (int round = 0; round < 200; ++round) {
        const std::string image = snap::serialize(cache, kFp);
        memo_cache scratch{256, 4};
        const snap::restore_result r =
            snap::deserialize_into(scratch, kFp, image);
        ASSERT_EQ(r.outcome, snap::restore_outcome::restored)
            << "round " << round << ": " << r.reason;
    }
    done.store(true, std::memory_order_relaxed);
    mutator.join();
}

// ---------------------------------------------------------------------------
// Engine integration: counters, byte-identical warm serving
// ---------------------------------------------------------------------------

serve::engine_config engine_config_with(unsigned parallelism,
                                        bool fast_math = false) {
    serve::engine_config c;
    c.parallelism = parallelism;
    c.fast_math = fast_math;
    return c;
}

TEST(EngineSnapshot, RestoredEngineServesIdenticalBytesWarm) {
    const file_guard guard{temp_path("engine")};
    const std::vector<std::string> lines = {
        R"({"op":"scenario1","lambda_um":0.5})",
        R"({"op":"scenario2","lambda_um":1.1,"y0":0.8})",
        R"({"op":"table3","row":3})",
        R"({"op":"chiplet","chiplets":4})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.5,
            "count":5,"target":{"op":"scenario2"}})",
    };
    serve::engine writer{engine_config_with(1)};
    std::vector<std::string> expected;
    expected.reserve(lines.size());
    for (const std::string& line : lines) {
        expected.push_back(writer.handle_line(line));
    }
    const snap::write_result w = writer.snapshot_write(guard.path);
    ASSERT_TRUE(w.ok) << w.error;

    serve::engine reader{engine_config_with(1)};
    const snap::restore_result r = reader.snapshot_restore(guard.path);
    ASSERT_EQ(r.outcome, snap::restore_outcome::restored);
    const auto before = reader.cache_stats();
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(reader.handle_line(lines[i]), expected[i]) << lines[i];
    }
    const auto after = reader.cache_stats();
    EXPECT_EQ(after.misses, before.misses)
        << "a restored engine must answer the writer's corpus warm";
    EXPECT_EQ(after.hits, before.hits + lines.size());
}

TEST(EngineSnapshot, RestoredGridSplicesEveryLaneFromTheCache) {
    // A snapshot carries no metrics: restore reads each entry's from its
    // bytes.  Replaying a grid on the restored engine through
    // evaluate_into (which bypasses the grid's own entry) must splice
    // every lane from the cache — no miss, no new entry — and give the
    // writer's bytes, so each restored metric is the one the writer
    // stored.  Sweeps whose lanes the scalar planner feeds: gross_die
    // (an integer metric), cost_tr through a nested path, chiplet over
    // d2d_area_mm2 with infeasible lanes, the integer chiplets with
    // rejected lanes, and mc_yield over its seed.
    const std::vector<std::string> grids = {
        R"({"op":"sweep","param":"die_width_mm","from":3,"to":30,
            "count":12,"target":{"op":"gross_die"}})",
        R"({"op":"sweep","param":"process.yield.y0","from":0.3,"to":0.9,
            "count":9,"target":{"op":"cost_tr"}})",
        R"({"op":"sweep","param":"d2d_area_mm2","from":-10,"to":60,
            "count":8,"target":{"op":"chiplet","chiplets":4,
            "substrate":"rdl"}})",
        R"({"op":"sweep","param":"chiplets","from":0,"to":20,
            "count":21,"target":{"op":"chiplet"}})",
        R"({"op":"sweep","param":"seed","from":1,"to":6,
            "count":6,"target":{"op":"mc_yield","dies":100}})",
    };
    const std::string ok_prefix = R"({"ok":true,"result":)";
    for (const std::string& grid : grids) {
        SCOPED_TRACE(grid);
        const file_guard guard{temp_path("grid")};
        serve::engine writer{engine_config_with(1)};
        const std::string reply = writer.handle_line(grid);
        ASSERT_EQ(reply.rfind(ok_prefix, 0), 0u) << reply;
        const std::string body = reply.substr(
            ok_prefix.size(), reply.size() - ok_prefix.size() - 1);
        ASSERT_TRUE(writer.snapshot_write(guard.path).ok);

        serve::engine reader{engine_config_with(1)};
        ASSERT_EQ(reader.snapshot_restore(guard.path).outcome,
                  snap::restore_outcome::restored);
        const auto before = reader.cache_stats();
        ASSERT_GT(before.entries, 1u);
        std::string out;
        (void)reader.evaluate_into(
            serve::parse_request(serve::json::parse(grid)), out);
        EXPECT_EQ(out, body);
        const auto after = reader.cache_stats();
        // Every entry but the grid's own is a lane, and each one hit.
        EXPECT_EQ(after.hits, before.hits + before.entries - 1);
        EXPECT_EQ(after.misses, before.misses);
        EXPECT_EQ(after.entries, before.entries);
        // And the grid line itself is a whole-reply hit.
        EXPECT_EQ(reader.handle_line(grid), reply);
    }
}

TEST(EngineSnapshot, InfoCountersTrackWritesAndRestores) {
    const file_guard guard{temp_path("counters")};
    serve::engine engine{engine_config_with(1)};
    (void)engine.handle_line(R"({"op":"table3","row":1})");

    serve::engine::snapshot_stats s = engine.snapshot_info();
    EXPECT_EQ(s.writes, 0u);
    EXPECT_LT(s.age_seconds, 0.0);  // never written

    ASSERT_TRUE(engine.snapshot_write(guard.path).ok);
    s = engine.snapshot_info();
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(s.write_failures, 0u);
    EXPECT_EQ(s.last_entries, 1u);
    EXPECT_GT(s.last_bytes, 0u);
    EXPECT_GE(s.last_write_seconds, 0.0);
    EXPECT_GE(s.age_seconds, 0.0);

    serve::engine reader{engine_config_with(1)};
    ASSERT_EQ(reader.snapshot_restore(guard.path).outcome,
              snap::restore_outcome::restored);
    s = reader.snapshot_info();
    EXPECT_EQ(s.restores, 1u);
    EXPECT_EQ(s.restore_failures, 0u);
    EXPECT_EQ(s.restored_entries, 1u);
    EXPECT_GE(s.last_restore_seconds, 0.0);
}

TEST(EngineSnapshot, MissingFileIsNotCountedAsFailure) {
    serve::engine engine{engine_config_with(1)};
    EXPECT_EQ(engine.snapshot_restore("absent_snapshot.bin").outcome,
              snap::restore_outcome::cold_missing);
    const serve::engine::snapshot_stats s = engine.snapshot_info();
    EXPECT_EQ(s.restores, 0u);
    EXPECT_EQ(s.restore_failures, 0u);
}

TEST(EngineSnapshot, CorruptFileCountsOneFailureAndServesCold) {
    const file_guard guard{temp_path("corrupt")};
    {
        std::FILE* f = std::fopen(guard.path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not a snapshot at all", f);
        std::fclose(f);
    }
    serve::engine engine{engine_config_with(1)};
    EXPECT_EQ(engine.snapshot_restore(guard.path).outcome,
              snap::restore_outcome::cold_corrupt);
    const serve::engine::snapshot_stats s = engine.snapshot_info();
    EXPECT_EQ(s.restore_failures, 1u);
    EXPECT_EQ(engine.cache_stats().entries, 0u);
    // The engine still serves.
    EXPECT_EQ(engine.handle_line(R"({"op":"table3","row":1})")
                  .substr(0, 10),
              R"({"ok":true)");
}

TEST(EngineSnapshot, FastMathFingerprintRejectsScalarSnapshot) {
    // fast_math lanes never enter the cache, and scalar bytes must not
    // leak into a fast-math engine (or vice versa): the fingerprint
    // makes the snapshot non-transferable across the flag.
    const file_guard guard{temp_path("fastmath")};
    serve::engine scalar{engine_config_with(1, false)};
    (void)scalar.handle_line(R"({"op":"table3","row":2})");
    ASSERT_TRUE(scalar.snapshot_write(guard.path).ok);

    serve::engine fast{engine_config_with(1, true)};
    EXPECT_EQ(fast.snapshot_restore(guard.path).outcome,
              snap::restore_outcome::cold_corrupt);
    EXPECT_EQ(fast.snapshot_info().restore_failures, 1u);
    EXPECT_EQ(fast.cache_stats().entries, 0u);
}

TEST(EngineSnapshot, StatsAndPrometheusExposeSnapshotState) {
    const file_guard guard{temp_path("expose")};
    serve::engine engine{engine_config_with(1)};
    (void)engine.handle_line(R"({"op":"table3","row":1})");
    ASSERT_TRUE(engine.snapshot_write(guard.path).ok);

    const std::string stats =
        engine.handle_line(R"({"op":"stats"})");
    EXPECT_NE(stats.find("\"snapshot\""), std::string::npos);
    EXPECT_NE(stats.find("\"writes\":1"), std::string::npos);

    const std::string prom = engine.prometheus_text();
    for (const char* metric :
         {"silicon_cache_snapshot_writes_total 1",
          "silicon_cache_snapshot_write_failures_total 0",
          "silicon_cache_snapshot_restores_total 0",
          "silicon_cache_snapshot_restore_failures_total 0",
          "silicon_cache_snapshot_last_entries 1",
          "silicon_cache_snapshot_age_seconds"}) {
        EXPECT_NE(prom.find(metric), std::string::npos) << metric;
    }
}

}  // namespace
