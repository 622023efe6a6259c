// Warm-restart economics: what a cache snapshot buys at boot.
//
// Measurements:
//
//   warm serve      - hit ratio and req/s of a fully warmed engine
//                     (the pre-restart steady state)
//   restored serve  - the same corpus on a FRESH engine that restored
//                     the warm engine's snapshot: the first pass after
//                     a restart
//   cold serve      - the same corpus on a fresh engine with no
//                     snapshot (what a restart costs without one)
//   snapshot ladder - write/restore latency and file size at
//                     representative cache populations
//
// Gate: the snapshot-restored first pass must reach >= 90% of the
// pre-restart warm hit ratio (deterministic — restore replays every
// entry — so the gate is enforced even under SILICON_BENCH_TINY=1),
// and a truncated snapshot must restore as a clean cold start.  The
// req/s columns are recorded for the ledger but not gated: absolute
// throughput jitters on shared machines, hit ratios do not.

#include "bench_host.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/json.hpp"
#include "serve/snapshot.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace {

namespace serve = silicon::serve;
namespace json = silicon::serve::json;

bool tiny_mode() {
    const char* v = std::getenv("SILICON_BENCH_TINY");
    return v != nullptr && std::strcmp(v, "0") != 0;
}

std::string num(double v) { return json::format_number(v); }

double now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Deterministic cacheable corpus over `distinct` unique keys: the mix
/// silicond actually serves (cheap point endpoints), with every key
/// revisited `repeat` times so a warm cache answers the tail from
/// memory.
std::vector<std::string> make_requests(std::size_t distinct,
                                       std::size_t repeat) {
    std::vector<std::string> lines;
    lines.reserve(distinct * repeat);
    for (std::size_t pass = 0; pass < repeat; ++pass) {
        for (std::size_t i = 0; i < distinct; ++i) {
            const double lambda = 0.35 + 0.001 * static_cast<double>(i);
            switch (i % 4) {
            case 0:
                lines.push_back(R"({"op":"scenario1","lambda_um":)" +
                                num(lambda) + "}");
                break;
            case 1:
                lines.push_back(R"({"op":"scenario2","lambda_um":)" +
                                num(lambda) + "}");
                break;
            case 2:
                lines.push_back(
                    R"({"op":"yield","model":"murphy","die_area_cm2":)" +
                    num(0.5 + 0.001 * static_cast<double>(i)) +
                    R"(,"defects_per_cm2":0.8})");
                break;
            default:
                lines.push_back(R"({"op":"chiplet","chiplets":)" +
                                std::to_string(1 + i % 8) + "}");
                break;
            }
        }
    }
    return lines;
}

struct pass_result {
    double hit_ratio = 0.0;
    double req_per_s = 0.0;
};

/// Run one batch pass and report the pass's own hit ratio (hits taken
/// during this pass over lines served) and throughput.
pass_result run_pass(serve::engine& engine,
                     const std::vector<std::string>& lines) {
    const serve::memo_cache::stats before = engine.cache_stats();
    const double start = now_seconds();
    const std::vector<std::string> responses = engine.handle_batch(lines);
    const double seconds = now_seconds() - start;
    const serve::memo_cache::stats after = engine.cache_stats();
    pass_result r;
    const std::uint64_t hits = after.hits - before.hits;
    const std::uint64_t misses = after.misses - before.misses;
    if (hits + misses > 0) {
        r.hit_ratio = static_cast<double>(hits) /
                      static_cast<double>(hits + misses);
    }
    r.req_per_s = static_cast<double>(responses.size()) / seconds;
    return r;
}

/// Fill a standalone cache with `entries` synthetic key/value pairs
/// shaped like real memo entries (canonical-JSON key, response value).
void fill_cache(serve::memo_cache& cache, std::size_t entries) {
    for (std::size_t i = 0; i < entries; ++i) {
        const std::string key =
            R"({"lambda_um":)" + num(0.3 + 1e-6 * static_cast<double>(i)) +
            R"(,"op":"scenario1"})";
        const std::string value =
            R"({"id":null,"ok":true,"result":{"cost_per_yielded_cm2_usd":)" +
            num(10.0 + 1e-3 * static_cast<double>(i)) + "}}";
        cache.put(key, value);
    }
}

struct ladder_point {
    std::size_t entries = 0;
    std::uint64_t bytes = 0;
    double write_seconds = 0.0;
    double restore_seconds = 0.0;
};

/// Snapshot write + restore latency for a cache of `entries` entries.
ladder_point measure_ladder(std::size_t entries, const std::string& path) {
    ladder_point p;
    const std::uint64_t fp = serve::snapshot::config_fingerprint(false);
    // Double the budget: per-shard capacity plus hash skew would
    // otherwise evict a few entries and skew the ladder's entry count.
    serve::memo_cache cache{entries * 2, 16};
    fill_cache(cache, entries);
    p.entries = cache.snapshot().entries;

    double start = now_seconds();
    const serve::snapshot::write_result w =
        serve::snapshot::write_file(cache, fp, path);
    p.write_seconds = now_seconds() - start;
    if (!w.ok) {
        std::fprintf(stderr, "ladder write failed: %s\n", w.error.c_str());
        std::exit(1);
    }
    p.bytes = w.bytes;

    serve::memo_cache fresh{entries * 2, 16};
    start = now_seconds();
    const serve::snapshot::restore_result r =
        serve::snapshot::restore_file(fresh, fp, path);
    p.restore_seconds = now_seconds() - start;
    if (r.outcome != serve::snapshot::restore_outcome::restored ||
        r.entries != p.entries) {
        std::fprintf(stderr, "ladder restore failed at %zu entries: %s\n",
                     entries, r.reason.c_str());
        std::exit(1);
    }
    std::remove(path.c_str());
    return p;
}

/// A snapshot cut off mid-file must restore as a clean cold start.
bool truncated_restore_is_cold(const std::string& path) {
    const std::uint64_t fp = serve::snapshot::config_fingerprint(false);
    serve::memo_cache cache{256, 4};
    fill_cache(cache, 64);
    const serve::snapshot::write_result w =
        serve::snapshot::write_file(cache, fp, path);
    if (!w.ok) {
        return false;
    }
    std::string image;
    {
        std::ifstream in{path, std::ios::binary};
        image.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    {
        std::ofstream out{path, std::ios::binary | std::ios::trunc};
        out.write(image.data(),
                  static_cast<std::streamsize>(image.size() / 2));
    }
    serve::memo_cache fresh{256, 4};
    const serve::snapshot::restore_result r =
        serve::snapshot::restore_file(fresh, fp, path);
    std::remove(path.c_str());
    return r.outcome == serve::snapshot::restore_outcome::cold_corrupt &&
           fresh.snapshot().entries == 0;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string path = argc > 1 ? argv[1] : "BENCH_warmstart.json";
    const bool tiny = tiny_mode();
    const std::size_t distinct = tiny ? 256 : 2048;
    const std::size_t repeat = 3;
    constexpr double kMinRestoredRatio = 0.90;
    const std::string scratch = "bench_warmstart_" +
                                std::to_string(::getpid()) + ".snap";

    const std::vector<std::string> lines = make_requests(distinct, repeat);

    // Pre-restart steady state: cold fill, then a fully warm pass.
    serve::engine warm_engine{{.parallelism = 0}};
    (void)warm_engine.handle_batch(lines);
    const pass_result warm = run_pass(warm_engine, lines);

    // Snapshot the warm cache (the shutdown write a real restart takes).
    const serve::snapshot::write_result w =
        warm_engine.snapshot_write(scratch);
    if (!w.ok) {
        std::fprintf(stderr, "snapshot write failed: %s\n", w.error.c_str());
        return 1;
    }
    const serve::engine::snapshot_stats ws = warm_engine.snapshot_info();

    // Restart: a fresh engine restores the snapshot, then serves the
    // same corpus.  Its first pass is the number the gate protects.
    serve::engine restored_engine{{.parallelism = 0}};
    const serve::snapshot::restore_result r =
        restored_engine.snapshot_restore(scratch);
    if (r.outcome != serve::snapshot::restore_outcome::restored) {
        std::fprintf(stderr, "snapshot restore failed: %s\n",
                     r.reason.c_str());
        return 1;
    }
    const serve::engine::snapshot_stats rs = restored_engine.snapshot_info();
    const pass_result restored = run_pass(restored_engine, lines);
    std::remove(scratch.c_str());

    // The restart without a snapshot: a fully cold first pass.
    serve::engine cold_engine{{.parallelism = 0}};
    const pass_result cold = run_pass(cold_engine, lines);

    // Snapshot latency ladder at representative cache populations.
    std::vector<std::size_t> sizes =
        tiny ? std::vector<std::size_t>{256, 1024}
             : std::vector<std::size_t>{256, 4096, 65536};
    std::vector<ladder_point> ladder;
    ladder.reserve(sizes.size());
    for (const std::size_t entries : sizes) {
        ladder.push_back(measure_ladder(entries, scratch));
    }

    const bool truncated_cold = truncated_restore_is_cold(scratch);
    const double ratio_vs_warm =
        warm.hit_ratio > 0.0 ? restored.hit_ratio / warm.hit_ratio : 0.0;
    const bool ratio_ok = ratio_vs_warm >= kMinRestoredRatio;

    std::printf("bench_warmstart (%zu requests, %zu distinct keys)\n",
                lines.size(), distinct);
    std::printf("  %-18s hit ratio %6.4f   %12.0f req/s\n", "warm",
                warm.hit_ratio, warm.req_per_s);
    std::printf("  %-18s hit ratio %6.4f   %12.0f req/s  (%.3fx warm ratio)\n",
                "snapshot-restored", restored.hit_ratio, restored.req_per_s,
                ratio_vs_warm);
    std::printf("  %-18s hit ratio %6.4f   %12.0f req/s\n", "cold",
                cold.hit_ratio, cold.req_per_s);
    std::printf("  snapshot: %llu entries, %llu bytes, write %.3f ms, "
                "restore %.3f ms\n",
                static_cast<unsigned long long>(w.entries),
                static_cast<unsigned long long>(w.bytes),
                ws.last_write_seconds * 1e3, rs.last_restore_seconds * 1e3);
    for (const ladder_point& p : ladder) {
        std::printf("  ladder %6zu entries: %9llu bytes, write %8.3f ms, "
                    "restore %8.3f ms\n",
                    p.entries, static_cast<unsigned long long>(p.bytes),
                    p.write_seconds * 1e3, p.restore_seconds * 1e3);
    }

    json::object doc;
    doc.set("bench", json::value{std::string{"bench_warmstart"}});
    doc.set("tiny", json::value{tiny});
    doc.set("host", json::value{bench::host_fingerprint()});
    json::object ws_obj;
    ws_obj.set("requests", json::value{static_cast<double>(lines.size())});
    ws_obj.set("distinct_keys", json::value{static_cast<double>(distinct)});
    ws_obj.set("warm_hit_ratio", json::value{warm.hit_ratio});
    ws_obj.set("warm_req_per_s", json::value{warm.req_per_s});
    ws_obj.set("restored_hit_ratio", json::value{restored.hit_ratio});
    ws_obj.set("restored_req_per_s", json::value{restored.req_per_s});
    ws_obj.set("cold_hit_ratio", json::value{cold.hit_ratio});
    ws_obj.set("cold_req_per_s", json::value{cold.req_per_s});
    ws_obj.set("restored_ratio_vs_warm", json::value{ratio_vs_warm});
    ws_obj.set("min_restored_ratio_vs_warm", json::value{kMinRestoredRatio});
    ws_obj.set("snapshot_entries",
               json::value{static_cast<double>(w.entries)});
    ws_obj.set("snapshot_bytes", json::value{static_cast<double>(w.bytes)});
    ws_obj.set("snapshot_write_seconds",
               json::value{ws.last_write_seconds});
    ws_obj.set("snapshot_restore_seconds",
               json::value{rs.last_restore_seconds});
    ws_obj.set("truncated_restore_cold", json::value{truncated_cold});
    json::array ladder_arr;
    for (const ladder_point& p : ladder) {
        json::object lp;
        lp.set("entries", json::value{static_cast<double>(p.entries)});
        lp.set("bytes", json::value{static_cast<double>(p.bytes)});
        lp.set("write_seconds", json::value{p.write_seconds});
        lp.set("restore_seconds", json::value{p.restore_seconds});
        ladder_arr.push_back(json::value{std::move(lp)});
    }
    ws_obj.set("ladder", json::value{std::move(ladder_arr)});
    doc.set("warmstart", json::value{std::move(ws_obj)});
    json::object gate;
    // The hit-ratio and truncation checks are deterministic, so the
    // gate is never skipped — tiny mode only shrinks the corpus.
    gate.set("skipped", json::value{false});
    gate.set("pass", json::value{ratio_ok && truncated_cold});
    doc.set("gate", json::value{std::move(gate)});

    std::ofstream file{path, std::ios::binary | std::ios::trunc};
    file << json::dump(json::value{std::move(doc)}) << "\n";
    file.close();
    std::printf("[json] wrote %s\n", path.c_str());

    if (!truncated_cold) {
        std::printf("FAIL: truncated snapshot did not restore as a clean "
                    "cold start\n");
        return 1;
    }
    if (!ratio_ok) {
        std::printf("FAIL: restored hit ratio %.4f is %.3fx warm, "
                    "want >= %.2fx\n",
                    restored.hit_ratio, ratio_vs_warm, kMinRestoredRatio);
        return 1;
    }
    std::printf("OK: snapshot restore preserves >= %.0f%% of the warm hit "
                "ratio\n", kMinRestoredRatio * 100.0);
    return 0;
}
