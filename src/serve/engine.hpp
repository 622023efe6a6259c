// engine.hpp — the batched cost-query engine.
//
// The engine is the dispatcher behind `silicond`: it turns request
// lines (see request.hpp for the schema) into response lines, routing
// each endpoint into the model library — core/ (cost model, scenarios,
// Table 3), geometry/ (gross die), yield/ (model family, Monte-Carlo),
// cost/ (wafer cost) — and running batches on the src/exec thread
// pool.
//
// One pipeline serves every line, lone or batched: `parse_line`, the
// one parse site, parses it once into a monotonic arena
// (json_arena.hpp) and canonicalizes it with the allocation-free
// request parser (request_fast.hpp); `serve_line` serves that parse.
// It feeds the cache probe, the miss evaluation, the stats reply and
// every error reply: a line that failed is answered from the failure
// its parse recorded, never parsed again.
//
// Five layers of speed, none of which may change a byte of output:
//
//   * Batching: `handle_batch` parses each line once, estimates its
//     work from the op, and fans the lines across exec::parallel_for
//     with the configured `parallelism` knob (0 = hardware
//     concurrency, 1 = serial) only when the batch carries more work
//     than the exec grain; below it the lines run inline in line
//     order.  Every response depends only on its own request line,
//     and responses land in line order, so the output is
//     bit-identical at every thread count — the same determinism
//     contract as the rest of the library (DESIGN.md §7/§8).  The
//     event loop hands over every ready connection's lines as one
//     batch of segments, one per connection; the per-batch rules
//     (line bound, admission) apply per segment.
//   * Memoization: evaluated results are cached in a sharded LRU
//     (cache.hpp) keyed by the request's canonical serialization;
//     endpoints are pure functions of their canonical request, so a
//     hit returns exactly the bytes a fresh evaluation would produce.
//     The lanes of a sweep with no batch kernel share the same cache
//     as top-level point requests (see the lane planner below).
//     A warm cache hit is answered without a single heap allocation:
//     the cached bytes are spliced into the response envelope in a
//     reused buffer.  So is a miss of a closed-form point op with
//     caching off: every op has one result path, `evaluate_into`,
//     which runs the model once and writes the result bytes straight
//     into a reused buffer (DESIGN.md §10).
//   * Intra-batch dedup (on whenever the cache is): identical
//     canonical keys within one `handle_batch` call evaluate once —
//     the first occurrence is the representative, and its twins answer
//     from the cache after it: right after it inline, or in a
//     twins-only pass (run only when there are twins) when the batch
//     fans out.  Error responses are never coalesced — a twin whose
//     representative failed re-evaluates individually, and every
//     response keeps its own `id` (DESIGN.md §10).
//   * Grid kernels and the lane planner: a `sweep` whose target has a
//     SoA batch kernel (cost/ and yield/batch.hpp) and every split of a
//     `partition_explore` (chiplet/batch.hpp) run all their lanes on
//     the kernel, bit-identical to the scalar library, and never touch
//     the point cache.  Any other sweep evaluates its grid as lanes,
//     one point request each, keyed and probed in the cache; only
//     missing lanes are evaluated, lane by lane through `evaluate_into`,
//     which returns the lane's metric beside the bytes it caches, and
//     cached lanes splice back in order (DESIGN.md §10).
//   * Parallel kernels: endpoints that are themselves parallel
//     (mc_yield) inherit the engine parallelism; inside a batch they
//     fan out again from the line's pool task (exec's nested fan-out),
//     with identical results either way.
//
// Error handling: every failure — malformed JSON, schema violations,
// infeasible model inputs (die does not fit, yield underflow) — maps
// to a structured `{"ok":false,"error":{"code","message"}}` response
// on the request's own line.  `handle_line` never throws.

#pragma once

#include "exec/cancel.hpp"
#include "obs/flight.hpp"
#include "serve/cache.hpp"
#include "serve/limits.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"
#include "serve/snapshot.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace silicon::exec {
class arena;
}  // namespace silicon::exec

namespace silicon::serve {

/// A request line after its one parse (engine.cpp).
struct parsed_line;
/// A parsed request line (request_fast.hpp).
struct fast_parse_state;
/// A sweep's resolved numeric parameter (request_fast.hpp).
class numeric_param;

struct engine_config {
    /// Max batch fan-out width: 0 = hardware concurrency, 1 = serial.
    /// Work below the exec grain runs inline at any width.
    unsigned parallelism = 0;
    /// Total memoization-cache entry budget; 0 disables caching.
    std::size_t cache_capacity = 65536;
    /// Cache shard count (see memo_cache).
    std::size_t cache_shards = 16;
    /// Route sweep/partition_explore kernels through the *_fast
    /// variants (vector transcendentals via simd/math.hpp, dispatched
    /// once per process to AVX2/NEON/scalar — see simd/dispatch.hpp).
    /// Off (the default) keeps every response bit-identical to the
    /// scalar library; on, sweep curve values may drift from the
    /// scalar path within the ULP bounds documented in DESIGN.md §15
    /// (NaN/null lanes are still classified identically), and results
    /// remain deterministic across thread counts and repeat runs on
    /// the same host.  Kernel lanes never enter the point cache with
    /// either setting, so point queries always return scalar bytes.
    /// Do not enable under golden/bit-exact workflows.
    bool fast_math = false;
    /// Resource budgets and overload behavior (limits.hpp); all
    /// defaults are 0/off, so an unconfigured engine is byte-identical
    /// to one built before limits existed.
    limits_config limits;
};

class engine {
public:
    explicit engine(engine_config config = {});

    /// Serve one request line: parse, validate, evaluate (or hit the
    /// cache) and return the response line (no trailing newline).
    /// Never throws; every failure becomes an error response.
    [[nodiscard]] std::string handle_line(std::string_view line);

    /// `handle_line` into a caller-owned buffer (cleared first, but its
    /// capacity is reused) — a warm cache hit through here performs
    /// zero heap allocations (gated by tests/serve/test_hotpath.cpp with
    /// a counting allocator).
    void handle_line_into(std::string_view line, std::string& out);

    /// Serve a batch of lines; response i answers line i.  Output is
    /// bit-identical for every parallelism value.
    [[nodiscard]] std::vector<std::string> handle_batch(
        const std::vector<std::string>& lines);

    /// `handle_batch` appending each response and its '\n', in line
    /// order, straight to `gather` (not cleared; its capacity is reused)
    /// — the transports' zero-copy entry point.  A warm batch below the
    /// fan-out grain performs zero heap allocations.
    void handle_batch_into(std::span<const std::string> lines,
                           std::string& gather);

    /// Serve several independent batches (one per connection, say) as
    /// one: segment s is lines [segment_ends[s-1], segment_ends[s])
    /// (from 0 for s = 0; ascending, the last equal to lines.size()).
    /// Every per-batch rule applies per segment — the `max_batch_lines`
    /// bound, in-flight admission and their rejection envelopes — so a
    /// segment's replies are the bytes a `handle_batch_into` call of its
    /// own would append, except that admitted segments hold their bytes
    /// together: a segment can be refused `overloaded` beside a
    /// neighbour's bytes, as a batch arriving during another one is.
    /// The segments' lines are parsed, deduplicated and fanned out
    /// together.  Replies land in `gather` in line order,
    /// and `reply_ends[s]` receives the gather offset one past segment
    /// s's last reply (`reply_ends` has one slot per segment).
    void handle_batch_into(std::span<const std::string> lines,
                           std::span<const std::size_t> segment_ends,
                           std::string& gather,
                           std::span<std::size_t> reply_ends);

    /// The one result path of every op: run the model once and append
    /// the result object to `out`, bypassing the request's cache entry,
    /// metrics and the response envelope (the lanes of a sweep with no
    /// batch kernel still use the point cache, when there is one).  Returns the primary metric
    /// (`primary_metric`) as the bytes carry it: NaN when the op has
    /// none or it prints null.  The structural too_large budgets apply;
    /// `cancel` reaches the cancellable endpoints.  Throws on
    /// infeasible inputs exactly like the underlying library (`out` is
    /// then unspecified).
    double evaluate_into(const request& req, std::string& out,
                         const exec::cancel_token* cancel = nullptr);

    /// `evaluate_into`'s bytes, parsed: the reference that bypasses
    /// cache, batching and dedup.
    [[nodiscard]] json::value evaluate(const request& req);

    /// Prometheus text exposition of everything observable about this
    /// engine: per-endpoint counters and latency histograms, cache
    /// totals + per-shard occupancy + hit ratio, parse errors, and the
    /// process-global obs registry (exec pool gauges).  Served by the
    /// `GET /metrics` transport op and `silicond --metrics-interval`.
    [[nodiscard]] std::string prometheus_text() const;

    /// Debug snapshot for `GET /statusz`: effective configuration,
    /// limit budgets, cache occupancy, overload counters and the
    /// flight-recorder summary.  Live data, never cached, never golden.
    [[nodiscard]] json::value statusz_json() const;

    [[nodiscard]] memo_cache::stats cache_stats() const {
        return cache_.snapshot();
    }
    /// The point cache itself, for tests and tools that read its
    /// entries (a probe through it counts like any other).
    [[nodiscard]] memo_cache& cache() noexcept { return cache_; }
    [[nodiscard]] const metrics_registry& metrics() const noexcept {
        return metrics_;
    }
    [[nodiscard]] const engine_config& config() const noexcept {
        return config_;
    }

    /// In-batch duplicate lines coalesced behind a representative
    /// evaluation since start (dedup runs whenever the cache is on).
    [[nodiscard]] std::uint64_t dedup_hits() const noexcept {
        return dedup_hits_.load(std::memory_order_relaxed);
    }
    /// Arena bytes consumed by the parses of successfully served lines
    /// since start.
    [[nodiscard]] std::uint64_t arena_bytes() const noexcept {
        return arena_bytes_.load(std::memory_order_relaxed);
    }

    /// Bytes-in-flight ledger + per-reason rejection counters (the
    /// overload observability surface; also in stats/Prometheus).
    [[nodiscard]] const admission_controller& admission() const noexcept {
        return admission_;
    }
    /// Lines answered `deadline_exceeded` since start.
    [[nodiscard]] std::uint64_t deadline_exceeded_total() const noexcept {
        return deadline_exceeded_.load(std::memory_order_relaxed);
    }
    /// Per-thread arena releases forced by the arena byte budget or an
    /// injected `serve.arena` fault since start, by lone lines and by
    /// batch parses alike (graceful degradation: the arena is released
    /// before the parse, and the line is parsed once into it).
    [[nodiscard]] std::uint64_t hot_declines() const noexcept {
        return hot_declines_.load(std::memory_order_relaxed);
    }
    /// Memoization-cache entries shed under overload since start.
    [[nodiscard]] std::uint64_t cache_shed_entries() const noexcept {
        return cache_shed_entries_.load(std::memory_order_relaxed);
    }

    /// Cache snapshot/restore observability (also exported to
    /// Prometheus, /statusz and the stats endpoint).
    struct snapshot_stats {
        std::uint64_t writes = 0;           ///< successful writes
        std::uint64_t write_failures = 0;   ///< failed write attempts
        std::uint64_t restores = 0;         ///< successful restores
        std::uint64_t restore_failures = 0; ///< counted cold starts
        std::uint64_t restored_entries = 0; ///< entries loaded at boot
        std::uint64_t last_entries = 0;     ///< entries in last write
        std::uint64_t last_bytes = 0;       ///< bytes in last write
        double last_write_seconds = 0.0;
        double last_restore_seconds = 0.0;
        /// Seconds since the last successful write; negative when no
        /// snapshot has been written by this engine yet.
        double age_seconds = -1.0;
    };

    /// Atomically snapshot the memoization cache to `path` (temp file
    /// + fsync + rename; see snapshot.hpp).  Serialized against
    /// concurrent writers (periodic tick vs SIGUSR2 vs shutdown), safe
    /// against concurrent serving and overload sheds.  Never throws.
    snapshot::write_result snapshot_write(const std::string& path);

    /// Restore the cache from `path` at boot.  Strictly defensive:
    /// corruption of any kind degrades to a counted cold start (see
    /// restore_failures / silicon_cache_snapshot_restore_failures_total)
    /// and a missing file is a plain cold start.  Never throws.
    snapshot::restore_result snapshot_restore(const std::string& path);

    [[nodiscard]] snapshot_stats snapshot_info() const;

private:
    /// The one parse site of every request line, lone or batched: a
    /// line over `max_line_bytes` is only marked; any other is parsed
    /// and canonicalized into `arena`, once, and a failure is recorded
    /// with what the document shows of the line's id, trace_id and op.
    /// `renew` set: before the parse, the arena is released when it is
    /// over `max_arena_reserved_bytes` or an injected `serve.arena`
    /// fault hits (counted in `hot_declines`), and reset; `renew` is
    /// then cleared, so the lines after it share the arena.
    void parse_line(std::string_view line, exec::arena& arena, bool& renew,
                    parsed_line& pl);

    /// A lone line (`handle_line_into`, a one-line batch) parsed into the
    /// calling thread's line arena.
    parsed_line& parse_lone(std::string_view line);

    /// Serve one parsed line (admission against the in-flight byte
    /// budget is the caller's job — once per public entry, never per
    /// batch line).  `rec` non-null = the flight recorder is enabled
    /// and the caller will append the filled record *in line order*
    /// (which is what keeps dumps byte-identical at any thread count)
    /// and fire the anomaly trigger afterwards.
    void serve_line(const parsed_line& pl, std::string& out,
                    const std::chrono::steady_clock::time_point*
                        batch_deadline,
                    obs::flight_record* rec);

    /// A cache miss of a parsed non-stats request: evaluate it, write
    /// the result body into `out` and cache it under `key` (its
    /// canonical key, hashed).  Throws on failure (nothing is cached
    /// then).
    void evaluate_miss(const fast_parse_state& parsed,
                       memo_cache::hashed_key key,
                       const exec::cancel_token* cancel, std::string& out);

    /// Shed cache shards if configured (called on overloaded rejects).
    void on_overload();

    /// The lane planner of a sweep with no batch kernel: lane i is the
    /// target's point request with `param` bound to xs[i], keyed, probed
    /// and cached like one.  Returns each lane's primary metric, NaN for
    /// a null lane (infeasible, or rejected as a point request).
    [[nodiscard]] std::vector<double> eval_lanes(
        const std::vector<double>& xs, const sweep_request& q,
        const numeric_param& param, const exec::cancel_token* cancel);
    /// A sweep: on the SoA batch kernel when its target has one, else
    /// through the lane planner.
    void sweep_into(const sweep_request& q, const exec::cancel_token* cancel,
                    std::string& out);
    /// Monolithic-vs-N-way split exploration over a total-area grid:
    /// every cell of every split on the SoA chiplet kernel.
    void partition_explore_into(const partition_explore_request& q,
                                const exec::cancel_token* cancel,
                                std::string& out);
    [[nodiscard]] json::value stats_json();

    engine_config config_;
    memo_cache cache_;
    metrics_registry metrics_;
    admission_controller admission_;
    std::atomic<std::uint64_t> parse_errors_{0};
    std::atomic<std::uint64_t> dedup_hits_{0};
    std::atomic<std::uint64_t> arena_bytes_{0};
    std::atomic<std::uint64_t> deadline_exceeded_{0};
    std::atomic<std::uint64_t> hot_declines_{0};
    std::atomic<std::uint64_t> cache_shed_entries_{0};

    /// Serializes snapshot writers; the cache itself needs no global
    /// lock (shards are captured one at a time under their own locks).
    std::mutex snapshot_mutex_;
    std::atomic<std::uint64_t> snap_writes_{0};
    std::atomic<std::uint64_t> snap_write_failures_{0};
    std::atomic<std::uint64_t> snap_restores_{0};
    std::atomic<std::uint64_t> snap_restore_failures_{0};
    std::atomic<std::uint64_t> snap_restored_entries_{0};
    std::atomic<std::uint64_t> snap_last_entries_{0};
    std::atomic<std::uint64_t> snap_last_bytes_{0};
    std::atomic<std::uint64_t> snap_last_write_ns_{0};
    std::atomic<std::uint64_t> snap_last_restore_ns_{0};
    /// steady_clock ns of the last successful write; 0 = never.
    std::atomic<std::uint64_t> snap_last_write_at_ns_{0};
};

}  // namespace silicon::serve
