#!/usr/bin/env python3
"""Schema check for the machine-readable bench artifacts.

Usage: validate_bench_json.py BENCH_serve.json BENCH_kernels.json ...

Each file must be valid JSON with the fields the perf quickstart
(README) documents.  CI runs this after the tiny bench-smoke pass; it
is intentionally dependency-free (stdlib json only).
"""

import json
import sys

# A full run's bound on a kernel grid's lane cost with the point cache on
# over the cost with it off (lane_feed in BENCH_serve.json).
MAX_KERNEL_FEED_RATIO = 1.5


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    return 1


def require(doc, path, key, kind):
    if key not in doc:
        return fail(path, f"missing key '{key}'")
    if not isinstance(doc[key], kind):
        return fail(path, f"key '{key}' should be {kind}, got "
                          f"{type(doc[key]).__name__}")
    return 0


def check_gate(doc, path):
    errors = require(doc, path, "gate", dict)
    if errors:
        return errors
    gate = doc["gate"]
    errors += require(gate, path, "skipped", bool)
    errors += require(gate, path, "pass", bool)
    if not gate.get("skipped", False) and not gate.get("pass", True):
        errors += fail(path, "gate ran and did not pass")
    return errors


def check_serve(doc, path):
    errors = 0
    errors += require(doc, path, "memoization", dict)
    errors += require(doc, path, "cold_batch_ablation", dict)
    if errors:
        return errors
    for key in ("serial_cold_req_per_s", "cache_warm_req_per_s",
                "warm_speedup_vs_serial", "required_speedup"):
        errors += require(doc["memoization"], path, key, (int, float))
    # The cold-batch gate is deterministic, so it holds in tiny mode
    # too: replies byte-identical to a serial cache-off engine, and
    # dedup coalescing exactly the lines beyond the distinct keys.  The
    # req/s columns are recorded, never compared.
    cold = doc["cold_batch_ablation"]
    for key in ("lines", "distinct_keys", "req_per_s",
                "reference_req_per_s", "dedup_hits", "expected_dedup_hits",
                "arena_bytes"):
        errors += require(cold, path, key, (int, float))
    errors += require(cold, path, "responses_identical", bool)
    if errors:
        return errors
    if cold["responses_identical"] is False:
        errors += fail(path, "cold batch replies differ from the reference")
    if cold["expected_dedup_hits"] != cold["lines"] - cold["distinct_keys"]:
        errors += fail(path, "expected_dedup_hits is not lines minus "
                             "distinct_keys")
    if cold["dedup_hits"] != cold["expected_dedup_hits"]:
        errors += fail(path, f"dedup_hits {cold['dedup_hits']}, want "
                             f"{cold['expected_dedup_hits']}")
    # The grid batch: lines/s recorded, replies byte-identical to a
    # serial cache-off engine's.
    errors += require(doc, path, "grid_batch", dict)
    if errors:
        return errors
    grid = doc["grid_batch"]
    for key in ("batches", "lines_per_batch", "lines_per_s"):
        errors += require(grid, path, key, (int, float))
    errors += require(grid, path, "responses_identical", bool)
    if not errors and grid["responses_identical"] is False:
        errors += fail(path, "grid batch replies differ from the reference")
    # The lane feed: ns per lane with the cache on and off, medians of
    # alternating rounds, recorded with the host they were measured on.
    # Kernel grids (the scenario2 sweep, the explore) never feed the
    # point cache, so in a full run their cache-on median must stay
    # within MAX_KERNEL_FEED_RATIO of the cache-off one.  The cost_tr
    # sweep, whose lanes feed the cache, is recorded, never compared.
    errors += require(doc, path, "lane_feed", dict)
    if errors:
        return errors
    feed = doc["lane_feed"]
    for key in ("rounds", "grids", "lanes_per_grid",
                "sweep_cache_on_ns_per_lane", "sweep_cache_off_ns_per_lane",
                "explore_cache_on_ns_per_lane",
                "explore_cache_off_ns_per_lane", "scalar_cache_on_ns_per_lane",
                "scalar_cache_off_ns_per_lane", "sweep_on_off_ratio",
                "explore_on_off_ratio"):
        errors += require(feed, path, key, (int, float))
    errors += require(feed, path, "host", dict)
    if errors:
        return errors
    errors += require_host(feed["host"], path)
    if doc.get("tiny") is False:
        for grid in ("sweep", "explore"):
            ratio = feed[f"{grid}_on_off_ratio"]
            if ratio > MAX_KERNEL_FEED_RATIO:
                errors += fail(path, f"{grid} lane feed with the cache costs "
                                     f"{ratio:.2f}x the cache-off figure, "
                                     f"want <= {MAX_KERNEL_FEED_RATIO}x")
    # The TCP grid: four loopback connections through a real event loop,
    # lines/s recorded with its host, never compared; the replies must
    # match the reference.
    errors += require(doc, path, "tcp_grid", dict)
    if errors:
        return errors
    tcp = doc["tcp_grid"]
    for key in ("conns", "windows_per_conn", "lines_per_window",
                "lines_per_s", "segments_per_batch"):
        errors += require(tcp, path, key, (int, float))
    errors += require(tcp, path, "responses_identical", bool)
    errors += require(tcp, path, "host", dict)
    if errors:
        return errors
    if tcp["responses_identical"] is False:
        errors += fail(path, "tcp grid replies differ from the reference")
    errors += require_host(tcp["host"], path)
    return errors


def require_host(host, path):
    errors = require(host, path, "nproc", (int, float))
    for key in ("simd_target", "compiler", "build_type"):
        errors += require(host, path, key, str)
    return errors


def check_kernels(doc, path):
    errors = require(doc, path, "kernels", list)
    errors += require(doc, path, "simd_target", str)
    errors += require(doc, path, "host", dict)
    if errors:
        return errors
    errors += require_host(doc["host"], path)
    if not doc["kernels"]:
        return fail(path, "no kernel rows")
    # The fast-path speedup floor only applies when the host actually
    # dispatches a vector variant and the bench ran at full size; on
    # scalar hosts (or tiny smoke runs) the fast columns are recorded
    # but not gated.  ULP bounds are deterministic, so they hold on
    # every host regardless of target.
    vector_host = doc["simd_target"] != "scalar"
    full_run = doc.get("tiny") is False
    for row in doc["kernels"]:
        for key in ("kernel_lanes_per_s", "library_scalar_lanes_per_s",
                    "engine_perpoint_lanes_per_s", "speedup_vs_engine",
                    "fast_lanes_per_s", "fast_speedup_vs_library",
                    "fast_max_ulp"):
            errors += require(row, path, key, (int, float))
        errors += require(row, path, "name", str)
        errors += require(row, path, "fast_speedup_rounds", list)
        if len(row.get("fast_speedup_rounds", [])) < 5:
            errors += fail(path, f"kernel {row.get('name')} fast speedup "
                                 f"taken over fewer than 5 rounds")
        errors += require(row, path, "bit_exact", bool)
        errors += require(row, path, "fast_ulp_gated", bool)
        errors += require(row, path, "fast_speedup_gated", bool)
        name = row.get("name")
        if row.get("bit_exact") is False:
            errors += fail(path, f"kernel {name} not bit-exact")
        if row.get("fast_ulp_gated") and row.get("fast_max_ulp", 0) > 4:
            errors += fail(path, f"kernel {name} fast path drifts "
                                 f"{row['fast_max_ulp']} ULP, want <= 4")
        if (vector_host and full_run and row.get("fast_speedup_gated")
                and row.get("fast_speedup_vs_library", 0.0) < 2.0):
            errors += fail(path, f"kernel {name} fast speedup "
                                 f"{row['fast_speedup_vs_library']:.2f}x "
                                 f"vs library, want >= 2x on "
                                 f"{doc['simd_target']}")
    return errors


def check_chiplet(doc, path):
    errors = require(doc, path, "kernel", dict)
    errors += require(doc, path, "crossover", dict)
    errors += require(doc, path, "host", dict)
    if errors:
        return errors
    errors += require_host(doc["host"], path)
    kernel = doc["kernel"]
    for key in ("kernel_lanes_per_s", "library_scalar_lanes_per_s",
                "engine_perpoint_lanes_per_s", "speedup_vs_engine"):
        errors += require(kernel, path, key, (int, float))
    errors += require(kernel, path, "bit_exact", bool)
    if kernel.get("bit_exact") is False:
        errors += fail(path, "chiplet kernel not bit-exact")
    # The crossover is deterministic, so it is enforced even when the
    # timing gate is skipped: monolithic wins the low end, a split the
    # high end, and every thread-count/kernel-flag combination agrees
    # bytewise.
    crossover = doc["crossover"]
    errors += require(crossover, path, "area_mm2", (int, float))
    if crossover.get("area_mm2", 0) <= 0:
        errors += fail(path, "no die-size crossover found")
    for key in ("monolithic_wins_low_end", "split_wins_high_end",
                "responses_identical"):
        errors += require(crossover, path, key, bool)
        if crossover.get(key) is False:
            errors += fail(path, f"crossover check '{key}' failed")
    return errors


def check_overload(doc, path):
    errors = require(doc, path, "rejections", dict)
    errors += require(doc, path, "host", dict)
    if errors:
        return errors
    errors += require_host(doc["host"], path)
    rejections = doc["rejections"]
    for key in ("line_too_large_ns", "overloaded_ns", "batch_too_large_ns",
                "served_warm_ns", "allocs_per_line_reject",
                "allocs_per_overload_reject", "reject_speedup_vs_served",
                "required_speedup"):
        errors += require(rejections, path, key, (int, float))
    # The zero-allocation reject contract is deterministic: it must hold
    # even when the timing gate is skipped (tiny mode).
    for key in ("allocs_per_line_reject", "allocs_per_overload_reject"):
        if rejections.get(key, 0) != 0:
            errors += fail(path, f"{key} is {rejections[key]}, want 0")
    return errors


def check_load(doc, path):
    errors = require(doc, path, "capacity_req_per_s", (int, float))
    errors += require(doc, path, "levels", list)
    if errors:
        return errors
    if not doc["levels"]:
        return fail(path, "no load levels")
    for level in doc["levels"]:
        for key in ("target_ratio", "offered_req_per_s",
                    "achieved_req_per_s", "goodput_req_per_s",
                    "p50_ms", "p99_ms", "p999_ms"):
            # Percentiles must be numbers: loadgen writes non-finite
            # values as null, so this type check is the finiteness gate.
            errors += require(level, path, key, (int, float))
        for key in ("sent", "answered", "unanswered"):
            errors += require(level, path, key, int)
        errors += require(level, path, "errors", dict)
        errors += require(level, path, "endpoints", dict)
        if not level.get("endpoints"):
            errors += fail(path, "level has an empty endpoints table")
        for name, table in level.get("endpoints", {}).items():
            if not isinstance(table, dict):
                errors += fail(path, f"endpoint {name!r} is not an object")
                continue
            errors += require(table, path, "count", int)
            if table.get("count", 0) < 1:
                errors += fail(path, f"endpoint {name!r} has no samples")
            for key in ("p50_ms", "p99_ms", "p999_ms"):
                errors += require(table, path, key, (int, float))
    ratios = [level.get("target_ratio") for level in doc["levels"]]
    if 2.0 not in ratios:
        errors += fail(path, "missing the 2x overload level")
    return errors


def check_flight(doc, path):
    """BENCH_flight.json: flight-recorder hot-path overhead."""
    errors = require(doc, path, "flight", dict)
    errors += require(doc, path, "host", dict)
    if errors:
        return errors
    errors += require_host(doc["host"], path)
    flight = doc["flight"]
    for key in ("baseline_req_per_s", "recording_req_per_s",
                "ns_per_request_baseline", "ns_per_append",
                "overhead_fraction", "max_overhead_fraction"):
        errors += require(flight, path, key, (int, float))
    errors += require(flight, path, "records_appended", int)
    if flight.get("records_appended", 0) < 1:
        errors += fail(path, "bench appended no flight records")
    return errors


def check_warmstart(doc, path):
    """BENCH_warmstart.json: snapshot restore vs cold-start economics."""
    errors = require(doc, path, "warmstart", dict)
    errors += require(doc, path, "host", dict)
    if errors:
        return errors
    errors += require_host(doc["host"], path)
    ws = doc["warmstart"]
    for key in ("requests", "distinct_keys", "warm_hit_ratio",
                "warm_req_per_s", "restored_hit_ratio", "restored_req_per_s",
                "cold_hit_ratio", "cold_req_per_s", "restored_ratio_vs_warm",
                "min_restored_ratio_vs_warm", "snapshot_entries",
                "snapshot_bytes", "snapshot_write_seconds",
                "snapshot_restore_seconds"):
        errors += require(ws, path, key, (int, float))
    errors += require(ws, path, "truncated_restore_cold", bool)
    errors += require(ws, path, "ladder", list)
    if errors:
        return errors
    # Both gates are deterministic, so they hold even in tiny mode: a
    # restored cache must preserve the warm hit ratio and a truncated
    # snapshot must degrade to a clean cold start.
    floor = ws["min_restored_ratio_vs_warm"]
    if floor < 0.90:
        errors += fail(path, f"restored-ratio floor {floor} below 0.90")
    if ws["restored_ratio_vs_warm"] < floor:
        errors += fail(path, f"restored hit ratio is "
                             f"{ws['restored_ratio_vs_warm']:.3f}x warm, "
                             f"want >= {floor}x")
    if ws.get("truncated_restore_cold") is False:
        errors += fail(path, "truncated snapshot did not restore cold")
    if not ws["ladder"]:
        errors += fail(path, "snapshot latency ladder is empty")
    for row in ws["ladder"]:
        if not isinstance(row, dict):
            errors += fail(path, "ladder row is not an object")
            continue
        for key in ("entries", "bytes", "write_seconds", "restore_seconds"):
            errors += require(row, path, key, (int, float))
        if row.get("bytes", 0) <= 0:
            errors += fail(path, "ladder row has no snapshot bytes")
    return errors


CHECKS = {
    "bench_serve_throughput": check_serve,
    "bench_batch_kernels": check_kernels,
    "bench_chiplet": check_chiplet,
    "bench_overload": check_overload,
    "bench_load": check_load,
    "bench_flight": check_flight,
    "bench_warmstart": check_warmstart,
}


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = 0
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            errors += fail(path, str(e))
            continue
        name = doc.get("bench")
        if name not in CHECKS:
            errors += fail(path, f"unknown bench name {name!r}")
            continue
        errors += require(doc, path, "tiny", bool)
        errors += CHECKS[name](doc, path)
        errors += check_gate(doc, path)
        if not errors:
            print(f"{path}: ok ({name}, tiny={doc.get('tiny')})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
