#include "layers.hpp"

#include "chiplet/batch.hpp"
#include "cost/batch.hpp"
#include "exec/arena.hpp"
#include "exec/thread_pool.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/io.hpp"
#include "serve/json.hpp"
#include "serve/json_arena.hpp"
#include "serve/request.hpp"
#include "serve/request_fast.hpp"
#include "yield/batch.hpp"
#include "yield/monte_carlo.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

namespace silibench {

namespace serve = silicon::serve;

namespace {

/// Lines of one timing pass (at most this many of the workload's stream).
constexpr std::size_t kPassLines = 4096;
/// Passes per timing; the figure is the median pass.
constexpr int kPasses = 5;
/// Wall-clock budget of one expensive timing (grid lines, evaluations).
constexpr std::int64_t kBudgetNs = 300'000'000;

/// Median over kPasses of (pass time / items), in ns per item.
template <class F>
double ns_per_item(std::size_t items, F&& pass) {
    std::vector<double> v;
    for (int i = 0; i < kPasses; ++i) {
        const std::int64_t t0 = now_ns();
        pass();
        v.push_back(static_cast<double>(now_ns() - t0) /
                    static_cast<double>(std::max<std::size_t>(1, items)));
    }
    return median(std::move(v));
}

/// Median ns per call of `call`, calling it until `budget_ns` is spent
/// (at least once, at most `max_calls` times).
template <class F>
double ns_per_call(std::size_t max_calls, std::int64_t budget_ns, F&& call) {
    std::vector<double> v;
    const std::int64_t end = now_ns() + budget_ns;
    for (std::size_t i = 0; i < max_calls && (i == 0 || now_ns() < end); ++i) {
        const std::int64_t t0 = now_ns();
        call(i);
        v.push_back(static_cast<double>(now_ns() - t0));
    }
    return median(std::move(v));
}

/// At most `n` lines, and few enough that a warmed engine's lane entries
/// (about lanes_per_req per line) stay well inside the default cache.
std::size_t lane_capped(const workload& w, std::size_t n) {
    return std::min(n, static_cast<std::size_t>(
                           16384.0 / std::max(1.0, properties(w).lanes_per_req)));
}

/// The first lines of the workload's open-phase stream, without '\n'.
std::vector<std::string_view> stream_lines(const workload& w, std::size_t n) {
    n = lane_capped(w, n);
    std::vector<std::string_view> out;
    for (std::size_t i = 0; i < w.open.size() && out.size() < n; ++i) {
        std::string_view l = w.lines[w.open[i]];
        l.remove_suffix(1);
        out.push_back(l);
    }
    return out;
}

/// Distinct lines of that stream, first occurrences in order.
std::vector<std::string_view> distinct(const workload& w, std::size_t n) {
    n = lane_capped(w, n);
    std::vector<std::string_view> out;
    std::vector<bool> seen(w.lines.size());
    for (std::size_t i = 0; i < w.open.size() && out.size() < n; ++i) {
        if (!seen[w.open[i]]) {
            seen[w.open[i]] = true;
            std::string_view l = w.lines[w.open[i]];
            l.remove_suffix(1);
            out.push_back(l);
        }
    }
    return out;
}

serve::request parse(std::string_view line) {
    return serve::parse_request(serve::json::parse(line));
}

/// Ratio of two counters, 0 when the denominator is.
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

constexpr std::array<serve::op_code, 10> kOps{
    serve::op_code::cost_tr,   serve::op_code::gross_die,
    serve::op_code::yield,     serve::op_code::scenario1,
    serve::op_code::scenario2, serve::op_code::table3,
    serve::op_code::mc_yield,  serve::op_code::sweep,
    serve::op_code::chiplet,   serve::op_code::partition_explore};

/// A request for `op` when the workload has none (paper defaults, grid
/// sizes like grid_explore's).
std::string standard_line(serve::op_code op) {
    switch (op) {
        case serve::op_code::table3: return R"({"op":"table3","row":3})";
        case serve::op_code::mc_yield: return R"({"op":"mc_yield","dies":30000})";
        case serve::op_code::sweep:
            return R"({"op":"sweep","target":{"op":"scenario1"},"param":"lambda_um","from":0.3,"to":1.5,"count":250})";
        case serve::op_code::chiplet: return R"({"op":"chiplet","chiplets":4})";
        case serve::op_code::partition_explore:
            return R"({"op":"partition_explore","splits":"1,2,4,8","count":64})";
        default:
            return "{\"op\":\"" + std::string{serve::to_string(op)} + "\"}";
    }
}

void client_layer(const trace_inputs& in, std::vector<metric>& out) {
    out.push_back({"client.p99_ms", quantile(in.open.latency_ms, 0.99), "ms"});
    out.push_back({"client.open_samples", static_cast<double>(in.open.ok), "count"});
    out.push_back({"client.late_p50_ms", quantile(in.open.late_ms, 0.5), "ms"});
    out.push_back({"client.late_p99_ms", quantile(in.open.late_ms, 0.99), "ms"});
}

/// Everything read off silicond's own /metrics counters.
void scraped_layers(const trace_inputs& in, std::vector<metric>& out) {
    const scrape& o = in.open_delta;
    const scrape& c = in.closed_delta;
    const double flushes = sum_series(o, "silicond_flushes_total");
    const double open_reqs = sum_series(o, "silicon_serve_requests_total");
    out.push_back({"conn.lines_per_flush", ratio(open_reqs, flushes), "lines"});
    out.push_back({"exec.tasks_per_flush",
                   ratio(sum_series(o, "silicon_exec_tasks_total"), flushes), "tasks"});

    const double hits = sum_series(o, "silicon_cache_hits_total") +
                        sum_series(c, "silicon_cache_hits_total");
    const double misses = sum_series(o, "silicon_cache_misses_total") +
                          sum_series(c, "silicon_cache_misses_total");
    const double reqs = open_reqs + sum_series(c, "silicon_serve_requests_total");
    out.push_back({"cache.hit_ratio", ratio(hits, hits + misses), "1"});
    out.push_back({"cache.evictions_per_req",
                   ratio(sum_series(o, "silicon_cache_evictions_total") +
                             sum_series(c, "silicon_cache_evictions_total"),
                         reqs),
                   "1"});
    // Sweep and explore lanes are probed in the same cache as whole
    // requests, and only their hits are counted (a lane miss is not).  On
    // grid_explore only refinement lanes can hit, so hits per sweep lane
    // sent is the measured side of the designed lane-overlap share.
    const double lanes = static_cast<double>(in.open.lanes + in.closed.lanes);
    out.push_back({"grid.lane_hit_share", ratio(hits, lanes), "1"});
    out.push_back({"gen.lane_overlap_share",
                   ratio(static_cast<double>(in.open.cached_lanes + in.closed.cached_lanes),
                         lanes),
                   "1"});

    for (const char* stage : {"parse", "cache", "exec", "serialize"}) {
        const std::string label = std::string{"stage=\""} + stage + "\"";
        out.push_back({std::string{"stage."} + stage + "_us",
                       1e6 * ratio(sum_series(o, "silicon_serve_stage_seconds_sum", label),
                                   sum_series(o, "silicon_serve_stage_seconds_count", label)),
                       "us"});
    }
    out.push_back({"server.latency_us",
                   1e6 * ratio(sum_series(o, "silicon_serve_latency_seconds_sum"),
                               sum_series(o, "silicon_serve_latency_seconds_count")),
                   "us"});
}

void io_and_parse_layers(const trace_inputs& in, std::vector<metric>& out) {
    const std::vector<std::string_view> lines = stream_lines(in.w, kPassLines);
    std::string bytes;
    for (const std::string_view l : lines) {
        bytes.append(l);
        bytes += '\n';
    }
    std::size_t framed = 0;
    out.push_back({"io.split_ns", ns_per_item(lines.size(), [&] {
                       serve::io::line_splitter split{16u << 20};
                       for (std::size_t at = 0; at < bytes.size(); at += 65536) {
                           split.feed(std::string_view{bytes}.substr(at, 65536),
                                      [&](std::string_view, bool) { ++framed; });
                       }
                   }),
                   "ns"});

    serve::json::arena_parser parser;
    silicon::exec::arena arena;
    serve::fast_parse_state st;
    out.push_back({"request_fast.parse_ns", ns_per_item(lines.size(), [&] {
                       for (const std::string_view l : lines) {
                           arena.reset();
                           serve::parse_request_fast(parser.parse(l, arena), st);
                       }
                   }),
                   "ns"});
    out.push_back({"request.parse_ns", ns_per_item(lines.size(), [&] {
                       for (const std::string_view l : lines) {
                           (void)parse(l);
                       }
                   }),
                   "ns"});
}

void cache_layer(const trace_inputs& in, std::vector<metric>& out) {
    std::vector<std::string> keys;
    for (const std::string_view l : stream_lines(in.w, kPassLines)) {
        keys.push_back(parse(l).canonical_key);
    }
    const std::string value(200, 'v');
    serve::memo_cache resident{65536, 16};
    for (const std::string& k : keys) {
        resident.put(k, value);
    }
    out.push_back({"cache.get_ns", ns_per_item(keys.size(), [&] {
                       for (const std::string& k : keys) {
                           (void)resident.get_if_present(k);
                       }
                   }),
                   "ns"});
    // At capacity: half the stream fits, so every put of the rest evicts.
    serve::memo_cache full{std::max<std::size_t>(16, keys.size() / 2), 16};
    out.push_back({"cache.put_ns", ns_per_item(keys.size(), [&] {
                       for (const std::string& k : keys) {
                           full.put(k, value);
                       }
                   }),
                   "ns"});
}

void engine_layer(const trace_inputs& in, std::vector<metric>& out) {
    const std::vector<std::string_view> lines = stream_lines(in.w, kPassLines);
    std::string reply;
    serve::engine warm;
    for (const std::string_view l : lines) {
        warm.handle_line_into(l, reply);
    }
    out.push_back({"engine.hit_line_ns", ns_per_item(lines.size(), [&] {
                       for (const std::string_view l : lines) {
                           warm.handle_line_into(l, reply);
                       }
                   }),
                   "ns"});
    // A fresh engine per call: every line takes the miss path.
    const std::vector<std::string_view> fresh = distinct(in.w, kPassLines);
    serve::engine cold;
    out.push_back({"engine.miss_line_us",
                   1e-3 * ns_per_call(fresh.size(), kBudgetNs,
                                      [&](std::size_t i) {
                                          cold.handle_line_into(fresh[i], reply);
                                      }),
                   "us"});

    serve::engine_config ref_cfg;
    ref_cfg.cache_capacity = 0;
    serve::engine ref{ref_cfg};
    for (const serve::op_code op : kOps) {
        std::vector<serve::request> reqs;
        for (const std::string_view l : fresh) {
            serve::request r = parse(l);
            if (r.op == op && reqs.size() < 256) {
                reqs.push_back(std::move(r));
            }
        }
        if (reqs.empty()) {
            reqs.push_back(parse(standard_line(op)));
        }
        out.push_back({"engine.eval_us." + std::string{serve::to_string(op)},
                       1e-3 * ns_per_call(4 * reqs.size(), kBudgetNs / 4,
                                          [&](std::size_t i) {
                                              (void)ref.evaluate(reqs[i % reqs.size()]);
                                          }),
                       "us"});
    }

    std::vector<serve::json::value> results;
    double bytes = 0;
    for (const std::string_view l : fresh) {
        results.push_back(ref.evaluate(parse(l)));
        bytes += static_cast<double>(serve::json::dump(results.back()).size());
        if (results.size() >= 512) {
            break;
        }
    }
    out.push_back({"json.dump_ns", ns_per_item(results.size(), [&] {
                       for (const serve::json::value& v : results) {
                           (void)serve::json::dump(v);
                       }
                   }),
                   "ns"});
    out.push_back({"json.reply_bytes", ratio(bytes, static_cast<double>(results.size())),
                   "bytes"});

    // Transport: a depth-1 round trip minus the same line served in
    // process through handle_batch.
    std::string_view rtt_line = in.w.lines[in.rtt_line];
    rtt_line.remove_suffix(1);
    const std::vector<std::string> one{std::string{rtt_line}};
    (void)warm.handle_batch(one);
    const double in_process_us =
        1e-3 * ns_per_call(2000, kBudgetNs, [&](std::size_t) { (void)warm.handle_batch(one); });
    const double rtt = in.rtt_us.empty() ? std::nan("") : median(in.rtt_us);
    out.push_back({"transport.rtt_p50_us", rtt, "us"});
    out.push_back({"transport.residual_us", rtt - in_process_us, "us"});
}

void exec_layer(const trace_inputs& in, double lines_per_flush,
                std::vector<metric>& out) {
    for (const std::size_t k : {1u, 2u, 8u, 64u}) {
        out.push_back({"exec.dispatch_us.k" + std::to_string(k),
                       1e-3 * ns_per_call(5000, kBudgetNs / 4,
                                          [&](std::size_t) {
                                              silicon::exec::parallel_for(
                                                  k, 0, [](const silicon::exec::shard_range&) {});
                                          }),
                       "us"});
    }

    // A typical open-phase batch: lines_per_flush lines of the stream,
    // served at the default fan-out minus the same batch served serially.
    const std::size_t b = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(lines_per_flush)), 2, 64);
    std::vector<std::string> batch;
    for (const std::string_view l : stream_lines(in.w, b)) {
        batch.emplace_back(l);
    }
    const bool warm_cache = in.w.kind == workload_kind::warm_point;
    const auto batch_us = [&](unsigned parallelism) {
        serve::engine_config cfg;
        cfg.parallelism = parallelism;
        cfg.cache_capacity = warm_cache ? cfg.cache_capacity : 0;
        serve::engine e{cfg};
        (void)e.handle_batch(batch);
        return 1e-3 * ns_per_call(2000, kBudgetNs / 2,
                                  [&](std::size_t) { (void)e.handle_batch(batch); });
    };
    out.push_back({"exec.batch_fanout_us", batch_us(0) - batch_us(1), "us"});

    // Grid lines of this seed, served serially and at the default fan-out.
    workload_sizes sizes;
    sizes.open = 32;
    const workload grid =
        generate(workload_kind::grid_explore, in.seed, workload_knobs{1, 0}, sizes);
    std::vector<std::string> grid_lines;
    for (const std::uint32_t i : grid.open) {
        grid_lines.emplace_back(grid.lines[i].substr(0, grid.lines[i].size() - 1));
    }
    const auto grid_ns = [&](unsigned parallelism) {
        serve::engine_config cfg;
        cfg.parallelism = parallelism;
        cfg.cache_capacity = 0;
        serve::engine e{cfg};
        return ns_per_item(1, [&] { (void)e.handle_batch(grid_lines); });
    };
    out.push_back({"exec.grid_speedup", grid_ns(1) / grid_ns(0), "x"});
}

void kernel_layer(const trace_inputs& in, std::vector<metric>& out) {
    // Lane counts like a grid_explore sweep / explore, dies like its runs.
    constexpr std::size_t n = 256;
    std::vector<double> lambda(n), c0(n, 500.0), x(n, 1.5), radius(n, 7.5),
        density(n, 150.0), y0(n, 0.7), faults(n), area(n), alpha(n, 2.0),
        d(n, 1.72), p(n, 4.07), a0(n, 1.0), ys(n), total(64);
    for (std::size_t i = 0; i < n; ++i) {
        lambda[i] = 0.3 + 1.2 * static_cast<double>(i) / n;
        area[i] = 0.05 + 4.0 * static_cast<double>(i) / n;
        faults[i] = area[i] * 0.5;
    }
    for (std::size_t i = 0; i < total.size(); ++i) {
        total[i] = 40.0 + 1000.0 * static_cast<double>(i) / 64.0;
    }
    namespace cb = silicon::cost::batch;
    namespace yb = silicon::yield::batch;
    const cb::scenario_columns cols{lambda.data(), c0.data(), x.data(),
                                    radius.data(), density.data(), y0.data()};
    out.push_back({"kernel.scenario_lanes_per_s",
                   1e9 / ns_per_item(2 * n * 64, [&] {
                       for (int r = 0; r < 64; ++r) {
                           cb::scenario1_cost_per_transistor(cols, ys.data(), n);
                           cb::scenario2_cost_per_transistor(cols, ys.data(), n);
                       }
                   }),
                   "1/s"});
    out.push_back({"kernel.yield_lanes_per_s",
                   1e9 / ns_per_item(7 * n * 64, [&] {
                       for (int r = 0; r < 64; ++r) {
                           yb::poisson_yield(faults.data(), ys.data(), n);
                           yb::murphy_yield(faults.data(), ys.data(), n);
                           yb::seeds_yield(faults.data(), ys.data(), n);
                           yb::bose_einstein_yield(faults.data(), 10, ys.data(), n);
                           yb::negative_binomial_yield(faults.data(), alpha.data(), ys.data(), n);
                           yb::scaled_poisson_yield(area.data(), lambda.data(), d.data(),
                                                    p.data(), ys.data(), n);
                           yb::reference_yield(area.data(), y0.data(), a0.data(), ys.data(), n);
                       }
                   }),
                   "1/s"});
    const silicon::chiplet::chiplet_spec spec{};
    out.push_back({"kernel.chiplet_lanes_per_s",
                   1e9 / ns_per_item(4 * total.size(), [&] {
                       for (const int split : {1, 2, 4, 8}) {
                           silicon::chiplet::batch::cost_per_good_system(
                               spec, split, total.data(), ys.data(), total.size());
                       }
                   }),
                   "1/s"});
    const workload_properties props = properties(in.w);
    silicon::yield::monte_carlo_config mc;
    mc.dies = props.dies_per_req > 0 ? static_cast<std::size_t>(props.dies_per_req) : 30000;
    mc.defects_per_um2 = 1e-4;
    mc.parallelism = 0;
    const silicon::yield::wire_array_layout layout{1.0, 1.2, 150.0, 15};
    const silicon::yield::defect_size_distribution sizes{0.6, 4.07, 1.0};
    out.push_back({"mc.dies_per_s",
                   1e9 / ns_per_item(mc.dies, [&] {
                       (void)silicon::yield::simulate_layout_yield(layout, sizes, mc);
                   }),
                   "1/s"});
}

void workload_properties_out(const trace_inputs& in, std::vector<metric>& out) {
    const workload_properties p = properties(in.w);
    out.push_back({"gen.distinct_keys", p.distinct_keys, "count"});
    out.push_back({"gen.expected_hit_share", p.expected_hit_share, "1"});
    out.push_back({"gen.lanes_per_req", p.lanes_per_req, "lanes"});
    out.push_back({"gen.dies_per_req", p.dies_per_req, "dies"});
    out.push_back({"gen.rejected", static_cast<double>(in.w.rejected), "count"});
}

}  // namespace

std::vector<metric> measure_layers(const trace_inputs& in) {
    std::vector<metric> out;
    workload_properties_out(in, out);
    client_layer(in, out);
    scraped_layers(in, out);
    io_and_parse_layers(in, out);
    cache_layer(in, out);
    engine_layer(in, out);
    const double lines_per_flush = ratio(
        sum_series(in.open_delta, "silicon_serve_requests_total"),
        sum_series(in.open_delta, "silicond_flushes_total"));
    exec_layer(in, lines_per_flush, out);
    kernel_layer(in, out);
    return out;
}

}  // namespace silibench
