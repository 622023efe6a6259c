// Serving throughput: requests/second through serve::engine, measured
// two ways.
//
// 1. The memoization gate (unchanged from the first serve bench): a
//    mixed batch of unique queries served cold, then the same batch
//    again fully warm.  The warm pass exercises only the zero-allocation
//    hot path (arena parse, canonical probe, envelope splice) and must
//    beat the serial cold pass by >= 5x.
//
// 2. The cold-batch gate: a sweep-heavy, duplicate-heavy batch served
//    cold, as one handle_batch call, by a fresh engine at the default
//    width.  Two deterministic properties gate it, in tiny mode too:
//    the replies are byte-identical to a parallelism-1, cache-off
//    engine's, and intra-batch dedup coalesced exactly the twins —
//    dedup_hits() equals the lines minus their distinct canonical keys.
//    The batch's req/s is recorded, never gated.  The kernel-vs-
//    per-point speedup is gated by bench_batch_kernels and
//    bench_chiplet.
//
// 3. The grid batch (grid_batch.hpp): four fresh grid lines per
//    handle_batch at the default width, as a closed-loop grid_explore
//    client sends them, so every line is a pool task that fans out
//    again from inside.  Lines/s is recorded, never gated; the replies
//    must be byte-identical to a parallelism-1, cache-off engine's.
//
// 4. The lane feed (grid_batch.hpp): fresh 256-lane scenario2 sweeps and
//    4x64 explores served one line at a time by a serial engine, with a
//    full default-size point cache and with the cache off.  Recorded
//    as ns per lane, with a host fingerprint, never gated.
//
// 5. The TCP grid: grid batches through a real serve::event_loop on an
//    ephemeral loopback port, from four connections that each keep one
//    batch (a window of four lines) outstanding, as silibench's
//    closed-loop grid_explore client does.  The loop serves every
//    connection a wakeup finds ready as one engine batch.  Lines/s is
//    recorded with the host fingerprint, never gated; the replies must
//    be byte-identical to a parallelism-1, cache-off engine's.
//
// Results land in BENCH_serve.json (machine readable, git-tracked).
// SILICON_BENCH_TINY=1 shrinks the workload and skips the memoization
// speedup gate so CI runs stay cheap and unflaky.

#include "bench_host.hpp"
#include "grid_batch.hpp"

#include "serve/engine.hpp"
#include "serve/event_loop.hpp"
#include "serve/request.hpp"
#include "simd/dispatch.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace serve = silicon::serve;
namespace json = silicon::serve::json;

std::string num(double v) { return json::format_number(v); }

bool tiny_mode() {
    const char* v = std::getenv("SILICON_BENCH_TINY");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/// A deterministic mixed workload: every line unique, every endpoint
/// except stats represented.  Weighted toward evaluation-heavy
/// requests (Monte-Carlo yield, multi-point sweeps) — the realistic
/// serving mix, and the work memoization actually saves.  `n` should
/// be a multiple of 8.
std::vector<std::string> make_requests(std::size_t n) {
    std::vector<std::string> lines;
    lines.reserve(n);
    for (std::size_t i = 0; lines.size() < n; ++i) {
        const double lambda = 0.35 + 0.0001 * static_cast<double>(i);
        switch (i % 8) {
        case 0:
            lines.push_back(R"({"op":"scenario1","lambda_um":)" + num(lambda) +
                            "}");
            break;
        case 1:
            lines.push_back(R"({"op":"scenario2","lambda_um":)" + num(lambda) +
                            "}");
            break;
        case 2:
            lines.push_back(R"({"op":"cost_tr","product":{"transistors":)" +
                            num(1e6 + static_cast<double>(i)) + "}}");
            break;
        case 3:
            lines.push_back(R"({"op":"gross_die","die_width_mm":)" +
                            num(5.0 + 0.001 * static_cast<double>(i)) +
                            R"(,"die_height_mm":8.0})");
            break;
        case 4:
            lines.push_back(R"({"op":"yield","model":"murphy","die_area_cm2":)" +
                            num(0.5 + 0.0001 * static_cast<double>(i)) +
                            R"(,"defects_per_cm2":0.8})");
            break;
        case 5:
            lines.push_back(R"({"op":"mc_yield","dies":1500,"seed":)" +
                            std::to_string(i) + "}");
            break;
        case 6:
            lines.push_back(R"({"op":"mc_yield","dies":1500,"line_count":)" +
                            std::to_string(10 + i % 20) + R"(,"seed":)" +
                            std::to_string(i) + "}");
            break;
        default:
            lines.push_back(
                R"({"op":"sweep","param":"lambda_um","from":)" + num(lambda) +
                R"(,"to":)" + num(lambda + 0.4) +
                R"(,"count":16,"target":{"op":"scenario2"}})");
            break;
        }
    }
    return lines;
}

/// The cold-batch workload: half multi-point sweeps (the SoA kernel
/// surface), half point queries repeated `dup` times each (the
/// intra-batch dedup surface).  `n` lines total.
std::vector<std::string> make_batch_workload(std::size_t n,
                                             std::size_t sweep_count,
                                             std::size_t dup) {
    std::vector<std::string> lines;
    lines.reserve(n);
    std::size_t unique = 0;
    while (lines.size() < n) {
        const double lambda = 0.4 + 0.001 * static_cast<double>(unique);
        if (unique % 2 == 0) {
            // Sweeps over the kernel-eligible targets.
            const char* target = (unique % 4 == 0)
                                     ? R"({"op":"scenario2"})"
                                     : R"({"op":"scenario1"})";
            lines.push_back(R"({"op":"sweep","param":"lambda_um","from":)" +
                            num(lambda) + R"(,"to":)" + num(lambda + 0.6) +
                            R"(,"count":)" + std::to_string(sweep_count) +
                            R"(,"target":)" + target + "}");
        } else {
            // Point queries, each duplicated across the batch.
            const std::string line =
                R"({"op":"scenario1","lambda_um":)" + num(lambda) + "}";
            for (std::size_t d = 0; d < dup && lines.size() < n; ++d) {
                lines.push_back(line);
            }
        }
        ++unique;
    }
    return lines;
}

double run_pass(serve::engine& engine, const std::vector<std::string>& lines,
                std::vector<std::string>* responses_out = nullptr) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::string> responses = engine.handle_batch(lines);
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    const double rate = static_cast<double>(responses.size()) / seconds;
    if (responses_out != nullptr) {
        *responses_out = std::move(responses);
    }
    return rate;
}

/// ns per lane of `grids` fresh lane-feed grids (explores or scenario2
/// sweeps) served one line at a time by a serial engine, its default-size
/// point cache filled first (`cache`) or off.
double lane_feed_ns(bool explore, bool cache, std::size_t grids) {
    serve::engine_config config;
    config.parallelism = 1;
    config.cache_capacity = cache ? 65536 : 0;
    serve::engine engine{config};
    if (cache) {
        silicon::bench::fill_point_cache(engine);
    }
    std::vector<std::string> lines;
    for (std::size_t n = 1; n <= grids; ++n) {
        lines.push_back(silicon::bench::lane_feed_line(explore, n));
    }
    std::string out;
    const auto start = std::chrono::steady_clock::now();
    for (const std::string& line : lines) {
        engine.handle_line_into(line, out);
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    return seconds * 1e9 / static_cast<double>(256 * grids);
}

/// A listening loopback socket on an ephemeral port.
int loopback_listener(std::uint16_t& port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (fd < 0 ||
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 64) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        std::perror("tcp grid listener");
        std::exit(1);
    }
    port = ntohs(addr.sin_port);
    return fd;
}

int loopback_client(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        std::perror("tcp grid client");
        std::exit(1);
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

void send_all(int fd, const std::string& bytes) {
    for (std::size_t at = 0; at < bytes.size();) {
        const ssize_t n = ::send(fd, bytes.data() + at, bytes.size() - at,
                                 MSG_NOSIGNAL);
        if (n <= 0) {
            std::perror("tcp grid send");
            std::exit(1);
        }
        at += static_cast<std::size_t>(n);
    }
}

struct tcp_grid_result {
    double lines_per_s = 0;
    /// Connection segments per wakeup batch the loop served.
    double segments_per_batch = 0;
    bool identical = false;
};

/// `conns` connections to a real event loop (an engine at the default
/// width) each send `windows` fresh grid batches, one outstanding at a
/// time.  The replies are checked against `reference` afterwards.
tcp_grid_result tcp_grid(std::size_t conns, std::size_t windows,
                         serve::engine& reference) {
    serve::engine engine{serve::engine_config{}};
    std::uint16_t port = 0;
    serve::event_loop loop{engine, loopback_listener(port),
                           serve::event_loop_config{}};
    const serve::transport_counters& counters =
        serve::transport_counters::instance();
    const std::uint64_t batches0 = counters.wakeup_batches.value();
    const std::uint64_t segments0 = counters.wakeup_batch_segments.value();
    std::thread runner{[&loop] { loop.run(); }};

    const auto batch_of = [&](std::size_t c, std::size_t w) {
        return silicon::bench::grid_batch(1 + c * windows + w);
    };
    const auto wire_of = [](const std::vector<std::string>& lines) {
        std::string wire;
        for (const std::string& line : lines) {
            wire += line;
            wire += '\n';
        }
        return wire;
    };
    std::vector<pollfd> fds(conns);
    std::vector<std::size_t> sent(conns, 0);
    std::vector<std::string> got(conns);
    for (std::size_t c = 0; c < conns; ++c) {
        fds[c] = pollfd{loopback_client(port), POLLIN, 0};
    }
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < conns; ++c) {
        send_all(fds[c].fd, wire_of(batch_of(c, sent[c]++)));
    }
    std::size_t open = conns;
    char chunk[65536];
    while (open != 0) {
        if (::poll(fds.data(), fds.size(), 30000) <= 0) {
            std::printf("FAIL: tcp grid stalled\n");
            std::exit(1);
        }
        for (std::size_t c = 0; c < conns; ++c) {
            if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
                continue;
            }
            const ssize_t n = ::recv(fds[c].fd, chunk, sizeof chunk, 0);
            if (n <= 0) {
                std::printf("FAIL: tcp grid connection ended\n");
                std::exit(1);
            }
            got[c].append(chunk, static_cast<std::size_t>(n));
            const auto replies = static_cast<std::size_t>(
                std::count(got[c].begin(), got[c].end(), '\n'));
            if (replies < 4 * sent[c]) {
                continue;
            }
            if (sent[c] < windows) {
                send_all(fds[c].fd, wire_of(batch_of(c, sent[c]++)));
            } else {
                fds[c].events = 0;  // done: its replies are all in
                --open;
            }
        }
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    loop.stop();
    runner.join();
    tcp_grid_result result;
    result.lines_per_s = static_cast<double>(4 * conns * windows) / seconds;
    result.segments_per_batch =
        static_cast<double>(counters.wakeup_batch_segments.value() -
                            segments0) /
        static_cast<double>(counters.wakeup_batches.value() - batches0);
    result.identical = true;
    for (std::size_t c = 0; c < conns; ++c) {
        ::close(fds[c].fd);
        std::string want;
        for (std::size_t w = 0; w < windows; ++w) {
            for (const std::string& r : reference.handle_batch(batch_of(c, w))) {
                want += r;
                want += '\n';
            }
        }
        result.identical = result.identical && got[c] == want;
    }
    return result;
}

}  // namespace

int main() {
    const bool tiny = tiny_mode();
    const std::size_t kRequests = tiny ? 64 : 8192;
    const std::size_t kBatchLines = tiny ? 64 : 2048;
    const std::size_t kSweepCount = tiny ? 8 : 64;
    const std::size_t kDup = 8;
    const std::vector<std::string> lines = make_requests(kRequests);

    // --- Pass set 1: the memoization gate ------------------------------
    serve::engine_config serial_config;
    serial_config.parallelism = 1;
    serve::engine serial_engine{serial_config};
    const double serial_cold = run_pass(serial_engine, lines);

    serve::engine_config pooled_config;
    pooled_config.parallelism = 0;
    serve::engine pooled_engine{pooled_config};
    const double pooled_cold = run_pass(pooled_engine, lines);
    const double cache_warm = run_pass(pooled_engine, lines);

    const serve::memo_cache::stats cache = pooled_engine.cache_stats();

    std::printf("bench_serve_throughput (%zu unique mixed requests)\n",
                kRequests);
    std::printf("  %-22s %12.0f req/s\n", "serial cold", serial_cold);
    std::printf("  %-22s %12.0f req/s  (%.2fx serial)\n", "pooled cold",
                pooled_cold, pooled_cold / serial_cold);
    std::printf("  %-22s %12.0f req/s  (%.2fx serial)\n", "cache warm",
                cache_warm, cache_warm / serial_cold);
    std::printf("  cache: %zu hits / %zu misses / %zu entries\n",
                static_cast<std::size_t>(cache.hits),
                static_cast<std::size_t>(cache.misses),
                static_cast<std::size_t>(cache.entries));

    // --- Pass set 2: the cold-batch gate -------------------------------
    const std::vector<std::string> batch =
        make_batch_workload(kBatchLines, kSweepCount, kDup);
    std::set<std::string> distinct;
    for (const std::string& line : batch) {
        distinct.insert(serve::parse_request(json::parse(line)).canonical_key);
    }
    const std::size_t expected_dedup = batch.size() - distinct.size();

    serve::engine_config batch_config;
    batch_config.parallelism = 0;
    serve::engine batch_engine{batch_config};

    serve::engine_config reference_config;
    reference_config.parallelism = 1;
    reference_config.cache_capacity = 0;
    serve::engine reference_engine{reference_config};

    std::vector<std::string> batch_responses;
    std::vector<std::string> reference_responses;
    const double batch_rate = run_pass(batch_engine, batch, &batch_responses);
    const double reference_rate =
        run_pass(reference_engine, batch, &reference_responses);
    const bool identical = batch_responses == reference_responses;
    const std::size_t dedup_hits =
        static_cast<std::size_t>(batch_engine.dedup_hits());
    const bool dedup_exact = dedup_hits == expected_dedup;

    std::printf(
        "cold batch (%zu lines: %zu-point sweeps + x%zu dups, %zu keys)\n",
        kBatchLines, kSweepCount, kDup, distinct.size());
    std::printf("  %-22s %12.0f req/s\n", "default width", batch_rate);
    std::printf("  %-22s %12.0f req/s\n", "serial, cache off",
                reference_rate);
    std::printf("  dedup hits %zu (want %zu), arena bytes %zu, responses %s\n",
                dedup_hits, expected_dedup,
                static_cast<std::size_t>(batch_engine.arena_bytes()),
                identical ? "byte-identical" : "DIFFER");

    // --- Pass set 3: the grid batch -------------------------------------
    const std::size_t kGridBatches = tiny ? 4 : 400;
    std::vector<std::vector<std::string>> grid_batches;
    for (std::size_t b = 0; b < kGridBatches; ++b) {
        grid_batches.push_back(silicon::bench::grid_batch(b + 1));
    }
    serve::engine grid_engine{batch_config};
    std::vector<std::vector<std::string>> grid_responses;
    const auto grid_start = std::chrono::steady_clock::now();
    for (const std::vector<std::string>& b : grid_batches) {
        grid_responses.push_back(grid_engine.handle_batch(b));
    }
    const double grid_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    grid_start)
                                    .count();
    const double grid_rate =
        static_cast<double>(4 * kGridBatches) / grid_seconds;
    serve::engine grid_reference{reference_config};
    bool grid_identical = true;
    for (std::size_t b = 0; b < kGridBatches; ++b) {
        grid_identical = grid_identical &&
                         grid_reference.handle_batch(grid_batches[b]) ==
                             grid_responses[b];
    }
    std::printf("grid batch (%zu batches of 4 fresh grid lines)\n",
                kGridBatches);
    std::printf("  %-22s %12.0f lines/s, responses %s\n", "default width",
                grid_rate, grid_identical ? "byte-identical" : "DIFFER");

    // --- Pass set 4: the lane feed ---------------------------------------
    const std::size_t kFeedGrids = tiny ? 4 : 200;
    const double sweep_on = lane_feed_ns(false, true, kFeedGrids);
    const double sweep_off = lane_feed_ns(false, false, kFeedGrids);
    const double explore_on = lane_feed_ns(true, true, kFeedGrids);
    const double explore_off = lane_feed_ns(true, false, kFeedGrids);
    std::printf("lane feed (%zu fresh grids of 256 lanes, serial)\n",
                kFeedGrids);
    std::printf("  %-22s %8.0f ns/lane cache on, %8.0f off\n",
                "scenario2 sweep", sweep_on, sweep_off);
    std::printf("  %-22s %8.0f ns/lane cache on, %8.0f off\n",
                "4x64 explore", explore_on, explore_off);

    // --- Pass set 5: the TCP grid ----------------------------------------
    const std::size_t kTcpConns = 4;
    const std::size_t kTcpWindows = tiny ? 2 : 100;
    const tcp_grid_result tcp =
        tcp_grid(kTcpConns, kTcpWindows, grid_reference);
    std::printf("tcp grid (%zu loopback connections x %zu windows of 4 "
                "grid lines)\n",
                kTcpConns, kTcpWindows);
    std::printf("  %-22s %12.0f lines/s, %.2f connections per batch, "
                "responses %s\n",
                "event loop", tcp.lines_per_s, tcp.segments_per_batch,
                tcp.identical ? "byte-identical" : "DIFFER");

    // --- Machine-readable results --------------------------------------
    json::object doc;
    doc.set("bench", json::value{std::string{"bench_serve_throughput"}});
    doc.set("tiny", json::value{tiny});
    json::object warm;
    warm.set("requests", json::value{static_cast<double>(kRequests)});
    warm.set("serial_cold_req_per_s", json::value{serial_cold});
    warm.set("pooled_cold_req_per_s", json::value{pooled_cold});
    warm.set("cache_warm_req_per_s", json::value{cache_warm});
    warm.set("warm_speedup_vs_serial", json::value{cache_warm / serial_cold});
    warm.set("required_speedup", json::value{5.0});
    doc.set("memoization", json::value{std::move(warm)});
    json::object cold;
    cold.set("lines", json::value{static_cast<double>(kBatchLines)});
    cold.set("sweep_count", json::value{static_cast<double>(kSweepCount)});
    cold.set("dup_factor", json::value{static_cast<double>(kDup)});
    cold.set("distinct_keys",
             json::value{static_cast<double>(distinct.size())});
    cold.set("req_per_s", json::value{batch_rate});
    cold.set("reference_req_per_s", json::value{reference_rate});
    cold.set("responses_identical", json::value{identical});
    cold.set("dedup_hits", json::value{static_cast<double>(dedup_hits)});
    cold.set("expected_dedup_hits",
             json::value{static_cast<double>(expected_dedup)});
    cold.set("arena_bytes",
             json::value{static_cast<double>(batch_engine.arena_bytes())});
    doc.set("cold_batch_ablation", json::value{std::move(cold)});
    json::object grid;
    grid.set("batches", json::value{static_cast<double>(kGridBatches)});
    grid.set("lines_per_batch", json::value{4.0});
    grid.set("lines_per_s", json::value{grid_rate});
    grid.set("responses_identical", json::value{grid_identical});
    doc.set("grid_batch", json::value{std::move(grid)});
    json::object feed;
    feed.set("host", json::value{bench::host_fingerprint()});
    feed.set("grids", json::value{static_cast<double>(kFeedGrids)});
    feed.set("lanes_per_grid", json::value{256.0});
    feed.set("sweep_cache_on_ns_per_lane", json::value{sweep_on});
    feed.set("sweep_cache_off_ns_per_lane", json::value{sweep_off});
    feed.set("explore_cache_on_ns_per_lane", json::value{explore_on});
    feed.set("explore_cache_off_ns_per_lane", json::value{explore_off});
    doc.set("lane_feed", json::value{std::move(feed)});
    json::object tcp_row;
    tcp_row.set("host", json::value{bench::host_fingerprint()});
    tcp_row.set("conns", json::value{static_cast<double>(kTcpConns)});
    tcp_row.set("windows_per_conn",
                json::value{static_cast<double>(kTcpWindows)});
    tcp_row.set("lines_per_window", json::value{4.0});
    tcp_row.set("lines_per_s", json::value{tcp.lines_per_s});
    tcp_row.set("segments_per_batch", json::value{tcp.segments_per_batch});
    tcp_row.set("responses_identical", json::value{tcp.identical});
    doc.set("tcp_grid", json::value{std::move(tcp_row)});

    bool gate_pass = identical && grid_identical && tcp.identical &&
                     dedup_exact && cache.hits >= kRequests;
    if (!tiny) {
        gate_pass = gate_pass && cache_warm >= 5.0 * serial_cold;
    }
    json::object gate;
    gate.set("skipped", json::value{tiny});
    gate.set("pass", json::value{gate_pass});
    doc.set("gate", json::value{std::move(gate)});

    const std::string path = "BENCH_serve.json";
    std::ofstream file{path, std::ios::binary | std::ios::trunc};
    file << json::dump(json::value{std::move(doc)}) << "\n";
    file.close();
    std::printf("[json] wrote %s\n", path.c_str());

    // --- Gates ----------------------------------------------------------
    if (!identical) {
        std::printf("FAIL: cold batch replies differ from the reference\n");
        return 1;
    }
    if (!grid_identical) {
        std::printf("FAIL: grid batch replies differ from the reference\n");
        return 1;
    }
    if (!tcp.identical) {
        std::printf("FAIL: tcp grid replies differ from the reference\n");
        return 1;
    }
    if (!dedup_exact) {
        std::printf("FAIL: dedup hits %zu, want %zu\n", dedup_hits,
                    expected_dedup);
        return 1;
    }
    if (cache.hits < kRequests) {
        std::printf("FAIL: warm pass was not fully cached\n");
        return 1;
    }
    if (tiny) {
        std::printf("OK: cold batch gate; tiny mode, speedup gate skipped\n");
        return 0;
    }
    if (cache_warm < 5.0 * serial_cold) {
        std::printf("FAIL: cache warm %.2fx serial, want >= 5x\n",
                    cache_warm / serial_cold);
        return 1;
    }
    std::printf("OK: cold batch gate, warm >= 5x serial cold\n");
    return 0;
}
