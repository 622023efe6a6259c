// loadgen — open-loop load harness for silicond's TCP transport.
//
// Closed-loop clients (send, wait, send) hide overload: when the server
// slows down, the client slows down with it and the measured latency
// stays flat — the coordinated-omission trap.  This harness is
// open-loop: requests are *scheduled* by a Poisson arrival process at a
// target rate (seeded SplitMix64, so a run is reproducible), and every
// latency sample is measured from the request's scheduled arrival time,
// not from when the socket finally accepted it.  Queueing delay under
// overload therefore shows up in the percentiles, which is the point.
//
// Protocol: the request mix is drawn from the golden corpus
// (tests/serve/golden_requests.jsonl) filtered to the requests whose
// paired golden response is ok — a realistic spread of cheap and
// expensive ops with deterministic replies.  Responses are matched to
// requests positionally per connection (the serve protocol guarantees
// per-connection FIFO order).
//
// Procedure:
//   1. spawn `silicond --port 0` (parsing the bound port from the
//      structured stderr log, same as tools/chaosclient);
//   2. calibrate capacity with a short closed-loop, pipelined burst
//      (this is the one thing closed-loop is good at: measuring the
//      server's saturated throughput);
//   3. run open-loop levels at 0.5x, 1x and 2x the calibrated
//      capacity, each over a fleet of persistent connections;
//   4. write BENCH_load.json: per-level offered/achieved/goodput rates,
//      p50/p99/p999 latency, error-code breakdown, and a gate.
//
// The gate (also enforced by tools/validate_bench_json.py and the CI
// load-smoke stage) requires finite percentiles at every level and
// goodput under 2x overload of at least 70% of calibrated capacity —
// i.e. overload must shed or queue, never collapse.  SILICON_BENCH_TINY=1
// shrinks the run to ~2 s for CI smoke; the gate still applies.
//
// Usage: loadgen /path/to/silicond [--requests F] [--responses F]
//                [--out F] [--seed N] [--conns N] [--level-s X]
//
// Exit code 0 = ran and gate passed (or sampled cleanly in tiny mode).

#include "analysis/stats.hpp"
#include "silicond_child.hpp"
#include "yield/defect.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

using silicon::yield::splitmix64;

bool tiny_mode() {
    const char* v = std::getenv("SILICON_BENCH_TINY");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

using clock_type = std::chrono::steady_clock;

std::uint64_t now_ns(clock_type::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock_type::now() - t0)
            .count());
}

using silicond_child::await_port;
using silicond_child::server;
using silicond_child::spawn_silicond;
using silicond_child::stop_silicond;

/// A loopback connection with Nagle off: each request leaves when
/// scheduled, so its latency sample starts when it is sent.
int connect_nodelay(int port) {
    const int fd = silicond_child::connect_to(port);
    if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    return fd;
}

/// One corpus request plus the index of its endpoint (top-level "op")
/// in the shared op-name table, so every reply can be attributed to a
/// per-endpoint latency series.
struct corpus_entry {
    std::string line;
    std::uint32_t op = 0;
};

struct corpus_set {
    std::vector<corpus_entry> entries;
    std::vector<std::string> ops;  ///< distinct endpoint names, by index
};

/// One in-flight request: when it was scheduled to arrive (open-loop
/// latency is measured from the schedule, not the send) and which
/// endpoint it targets.
struct pending_req {
    std::uint64_t scheduled_ns = 0;
    std::uint32_t op = 0;
};

/// One persistent load connection: a pending send buffer, an inbound
/// line splitter, and the FIFO of in-flight requests whose replies
/// have not come back yet.
struct lconn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::deque<pending_req> pending_ns;
    bool dead = false;

    void queue(const corpus_entry& entry, std::uint64_t scheduled_ns) {
        out.append(entry.line.data(), entry.line.size());
        out += '\n';
        pending_ns.push_back(pending_req{scheduled_ns, entry.op});
    }

    /// Send as much buffered output as the socket takes right now.
    void pump_out() {
        while (out_off < out.size()) {
            const ssize_t n =
                ::send(fd, out.data() + out_off, out.size() - out_off,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n > 0) {
                out_off += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                break;
            }
            dead = true;
            break;
        }
        if (out_off == out.size()) {
            out.clear();
            out_off = 0;
        }
    }
};

/// Per-level sample accumulator.
struct level_result {
    double target_ratio = 0.0;
    double offered_req_per_s = 0.0;
    std::uint64_t sent = 0;
    std::uint64_t answered = 0;
    std::uint64_t ok = 0;
    /// Ok replies whose bytes arrived inside the level window — the
    /// goodput numerator.  Backlog answered during the drain phase is
    /// completed work, but not work the server sustained at the
    /// offered rate, so it must not flatter the overload levels.
    std::uint64_t ok_in_window = 0;
    std::uint64_t unanswered = 0;
    std::uint64_t window_ns = 0;  ///< level window (set by run_level)
    double window_s = 0.0;        ///< goodput denominator
    double duration_s = 0.0;      ///< total wall time incl. drain
    std::vector<double> latencies_ms;
    /// Same samples split by endpoint (indexed like corpus_set::ops);
    /// the per-endpoint tables expose which op carries the tail.
    std::vector<std::vector<double>> endpoint_latencies_ms;
    std::map<std::string, std::uint64_t> error_codes;
};

/// Classify one reply line: "" for ok, the envelope code otherwise.
std::string reply_code(std::string_view line) {
    if (line.find("\"ok\":true") != std::string_view::npos) {
        return "";
    }
    const std::size_t at = line.find("\"code\":\"");
    if (at == std::string_view::npos) {
        return "unparseable";
    }
    const std::size_t begin = at + 8;
    const std::size_t end = line.find('"', begin);
    if (end == std::string_view::npos) {
        return "unparseable";
    }
    return std::string{line.substr(begin, end - begin)};
}

/// Drain replies available on `c` right now; record one latency sample
/// per complete line against the connection's pending FIFO.
void pump_in(lconn& c, clock_type::time_point t0, level_result& r) {
    char chunk[16384];
    for (;;) {
        const ssize_t got =
            ::recv(c.fd, chunk, sizeof chunk, MSG_DONTWAIT);
        if (got < 0) {
            if (errno == EINTR) {
                continue;
            }
            if (errno != EAGAIN && errno != EWOULDBLOCK) {
                c.dead = true;
            }
            return;
        }
        if (got == 0) {
            c.dead = true;
            return;
        }
        c.in.append(chunk, static_cast<std::size_t>(got));
        std::size_t begin = 0;
        const std::uint64_t now = now_ns(t0);
        for (std::size_t nl = c.in.find('\n', begin);
             nl != std::string::npos; nl = c.in.find('\n', begin)) {
            const std::string_view line{c.in.data() + begin, nl - begin};
            begin = nl + 1;
            if (c.pending_ns.empty()) {
                continue;  // protocol violation; surfaces as unanswered
            }
            const pending_req pending = c.pending_ns.front();
            c.pending_ns.pop_front();
            ++r.answered;
            const double latency_ms =
                static_cast<double>(now - pending.scheduled_ns) / 1e6;
            r.latencies_ms.push_back(latency_ms);
            if (r.endpoint_latencies_ms.size() <= pending.op) {
                r.endpoint_latencies_ms.resize(pending.op + 1);
            }
            r.endpoint_latencies_ms[pending.op].push_back(latency_ms);
            const std::string code = reply_code(line);
            if (code.empty()) {
                ++r.ok;
                if (now <= r.window_ns) {
                    ++r.ok_in_window;
                }
            } else {
                ++r.error_codes[code];
            }
        }
        c.in.erase(0, begin);
        if (static_cast<std::size_t>(got) < sizeof chunk) {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// Closed-loop, pipelined capacity probe: keep `window` requests
/// outstanding per connection for `seconds`, return replies/second.
double calibrate_capacity(int port, const corpus_set& corpus,
                          std::size_t conns, std::size_t window,
                          double seconds, splitmix64& rng) {
    std::vector<lconn> fleet(conns);
    for (lconn& c : fleet) {
        c.fd = connect_nodelay(port);
        if (c.fd < 0) {
            return 0.0;
        }
    }
    const auto t0 = clock_type::now();
    level_result r;
    const std::uint64_t duration_ns =
        static_cast<std::uint64_t>(seconds * 1e9);
    for (lconn& c : fleet) {
        for (std::size_t i = 0; i < window; ++i) {
            c.queue(corpus.entries[rng.next() % corpus.entries.size()], 0);
            ++r.sent;
        }
        c.pump_out();
    }
    std::vector<pollfd> pfds(conns);
    while (now_ns(t0) < duration_ns) {
        for (std::size_t i = 0; i < conns; ++i) {
            pfds[i].fd = fleet[i].fd;
            pfds[i].events = static_cast<short>(
                POLLIN | (fleet[i].out_off < fleet[i].out.size() ? POLLOUT
                                                                 : 0));
            pfds[i].revents = 0;
        }
        if (::poll(pfds.data(), pfds.size(), 50) <= 0) {
            continue;
        }
        for (lconn& c : fleet) {
            if (c.dead) {
                continue;
            }
            const std::uint64_t before = r.answered;
            pump_in(c, t0, r);
            // Closed loop: one fresh request per reply keeps the
            // window full.
            const std::uint64_t replies = r.answered - before;
            for (std::uint64_t i = 0; i < replies; ++i) {
                c.queue(corpus.entries[rng.next() % corpus.entries.size()],
                        0);
                ++r.sent;
            }
            c.pump_out();
        }
    }
    const double elapsed =
        static_cast<double>(now_ns(t0)) / 1e9;
    for (lconn& c : fleet) {
        ::close(c.fd);
    }
    return static_cast<double>(r.answered) / elapsed;
}

/// One open-loop level: Poisson arrivals at `rate` req/s for `seconds`,
/// then a bounded drain of the in-flight tail.
level_result run_level(int port, const corpus_set& corpus,
                       std::size_t conns, double rate, double seconds,
                       double drain_limit_s, splitmix64& rng) {
    level_result r;
    r.offered_req_per_s = rate;
    r.window_s = seconds;
    r.window_ns = static_cast<std::uint64_t>(seconds * 1e9);
    r.duration_s = seconds;
    std::vector<lconn> fleet(conns);
    for (lconn& c : fleet) {
        c.fd = connect_nodelay(port);
        if (c.fd < 0) {
            return r;
        }
    }
    const auto t0 = clock_type::now();
    const std::uint64_t duration_ns =
        static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t drain_ns =
        duration_ns + static_cast<std::uint64_t>(drain_limit_s * 1e9);
    // First arrival offset so rate spikes do not all start at t=0.
    double next_arrival_ns =
        -std::log(1.0 - rng.next_double()) / rate * 1e9;
    std::size_t rr = 0;  // round-robin connection cursor
    std::vector<pollfd> pfds(conns);
    for (;;) {
        std::uint64_t now = now_ns(t0);
        // Generate every arrival that is due (open loop: the schedule
        // does not care whether the server keeps up).
        while (now < duration_ns &&
               static_cast<double>(now) >= next_arrival_ns) {
            lconn& c = fleet[rr++ % conns];
            if (!c.dead) {
                c.queue(corpus.entries[rng.next() % corpus.entries.size()],
                        static_cast<std::uint64_t>(next_arrival_ns));
                ++r.sent;
            }
            next_arrival_ns +=
                -std::log(1.0 - rng.next_double()) / rate * 1e9;
        }
        bool outstanding = false;
        for (std::size_t i = 0; i < conns; ++i) {
            lconn& c = fleet[i];
            if (!c.dead && (c.out_off < c.out.size())) {
                c.pump_out();
            }
            outstanding = outstanding ||
                          (!c.dead && !c.pending_ns.empty());
            pfds[i].fd = c.fd;
            pfds[i].events = static_cast<short>(
                (c.dead ? 0 : POLLIN) |
                (!c.dead && c.out_off < c.out.size() ? POLLOUT : 0));
            pfds[i].revents = 0;
        }
        now = now_ns(t0);
        if (now >= duration_ns && !outstanding) {
            break;  // level over and every reply accounted for
        }
        if (now >= drain_ns) {
            break;  // drain budget exhausted: leftovers are unanswered
        }
        int wait_ms = 1;
        if (now < duration_ns &&
            static_cast<double>(now) < next_arrival_ns) {
            const double until_ms =
                (next_arrival_ns - static_cast<double>(now)) / 1e6;
            wait_ms = std::max(0, std::min(wait_ms,
                                           static_cast<int>(until_ms)));
        }
        (void)::poll(pfds.data(), pfds.size(), wait_ms);
        for (lconn& c : fleet) {
            if (!c.dead) {
                pump_in(c, t0, r);
            }
        }
    }
    // Rate denominators use real wall time including the drain: a
    // backlogged level that needed extra seconds to answer must not
    // report a goodput above what the server actually sustained.
    r.duration_s =
        std::max(seconds, static_cast<double>(now_ns(t0)) / 1e9);
    for (lconn& c : fleet) {
        r.unanswered += c.pending_ns.size();
        ::close(c.fd);
    }
    return r;
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

/// Endpoint of a request line: the first (top-level) "op" member.  The
/// corpus is the golden request file, so a raw scan is reliable —
/// nested ops (a sweep target) always come after the outer one.
std::string request_op(std::string_view line) {
    const std::size_t at = line.find("\"op\":\"");
    if (at == std::string_view::npos) {
        return "unknown";
    }
    const std::size_t begin = at + 6;
    const std::size_t end = line.find('"', begin);
    if (end == std::string_view::npos) {
        return "unknown";
    }
    return std::string{line.substr(begin, end - begin)};
}

/// Requests whose paired golden response is ok: a realistic op mix with
/// known-good replies, so goodput means "useful work completed".
corpus_set load_corpus(const std::string& requests_path,
                       const std::string& responses_path) {
    std::ifstream requests{requests_path};
    std::ifstream responses{responses_path};
    corpus_set corpus;
    std::map<std::string, std::uint32_t> op_index;
    std::string request_line;
    std::string response_line;
    while (std::getline(requests, request_line) &&
           std::getline(responses, response_line)) {
        if (response_line.find("\"ok\":true") == std::string::npos) {
            continue;
        }
        const std::string op = request_op(request_line);
        const auto [it, fresh] =
            op_index.emplace(op, static_cast<std::uint32_t>(
                                     corpus.ops.size()));
        if (fresh) {
            corpus.ops.push_back(op);
        }
        corpus.entries.push_back(corpus_entry{request_line, it->second});
    }
    return corpus;
}

// ---------------------------------------------------------------------------
// JSON output (hand-rolled here: the tool must not drag in the serve
// library just to print a dozen fields; non-finite values become null
// so the schema validator's numeric type check enforces finiteness)
// ---------------------------------------------------------------------------

void json_number(std::ostream& out, double v) {
    if (std::isfinite(v)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        out << buf;
    } else {
        out << "null";
    }
}

double quantile_ms(const std::vector<double>& samples, double q) {
    if (samples.empty()) {
        return std::numeric_limits<double>::quiet_NaN();
    }
    return silicon::analysis::quantile(samples, q);
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::cerr << "usage: loadgen /path/to/silicond [--requests F] "
                     "[--responses F] [--out F] [--seed N] [--conns N] "
                     "[--level-s X]\n";
        return 2;
    }
    const bool tiny = tiny_mode();
    std::string requests_path = "tests/serve/golden_requests.jsonl";
    std::string responses_path = "tests/serve/golden_responses.jsonl";
    std::string out_path = "BENCH_load.json";
    std::uint64_t seed = 20260808;
    std::size_t conns = tiny ? 8 : 32;
    double level_s = tiny ? 0.35 : 4.0;
    double calibrate_s = tiny ? 0.3 : 2.0;
    double drain_s = tiny ? 2.0 : 12.0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char* value = nullptr;
        if (arg == "--requests" && (value = next()) != nullptr) {
            requests_path = value;
        } else if (arg == "--responses" && (value = next()) != nullptr) {
            responses_path = value;
        } else if (arg == "--out" && (value = next()) != nullptr) {
            out_path = value;
        } else if (arg == "--seed" && (value = next()) != nullptr) {
            seed = std::strtoull(value, nullptr, 10);
        } else if (arg == "--conns" && (value = next()) != nullptr) {
            conns = std::strtoull(value, nullptr, 10);
        } else if (arg == "--level-s" && (value = next()) != nullptr) {
            level_s = std::strtod(value, nullptr);
        } else {
            std::cerr << "loadgen: bad argument '" << arg << "'\n";
            return 2;
        }
    }

    std::signal(SIGPIPE, SIG_IGN);

    corpus_set corpus = load_corpus(requests_path, responses_path);
    if (corpus.entries.empty()) {
        std::cerr << "loadgen: corpus empty (looked in " << requests_path
                  << "); falling back to a fixed request\n";
        corpus.ops.push_back("scenario1");
        corpus.entries.push_back(corpus_entry{
            "{\"op\":\"scenario1\",\"lambda_um\":0.5}", 0});
    }

    server s = spawn_silicond(argv[1], {});
    if (s.pid < 0) {
        return 2;
    }
    s.port = await_port(s);
    if (s.port == 0) {
        stop_silicond(s);
        return 2;
    }
    std::cerr << "loadgen: server on port " << s.port << ", corpus "
              << corpus.entries.size() << " requests across "
              << corpus.ops.size() << " endpoints, "
              << (tiny ? "tiny" : "full") << " mode\n";

    splitmix64 rng{seed};
    const double capacity =
        calibrate_capacity(s.port, corpus, conns, 64, calibrate_s, rng);
    std::cerr << "loadgen: calibrated capacity "
              << static_cast<std::uint64_t>(capacity) << " req/s\n";
    if (capacity <= 0.0) {
        stop_silicond(s);
        std::cerr << "loadgen: calibration failed\n";
        return 1;
    }

    const double ratios[] = {0.5, 1.0, 2.0};
    std::vector<level_result> levels;
    for (const double ratio : ratios) {
        level_result r = run_level(s.port, corpus, conns, ratio * capacity,
                                   level_s, drain_s, rng);
        r.target_ratio = ratio;
        std::cerr << "loadgen: level " << ratio << "x sent " << r.sent
                  << " answered " << r.answered << " unanswered "
                  << r.unanswered << "\n";
        levels.push_back(std::move(r));
    }
    stop_silicond(s);

    // --- Gate ----------------------------------------------------------
    bool gate_pass = true;
    double goodput_2x = 0.0;
    for (const level_result& r : levels) {
        const double p999 = quantile_ms(r.latencies_ms, 0.999);
        if (!std::isfinite(p999)) {
            gate_pass = false;
        }
        if (r.target_ratio == 2.0) {
            goodput_2x = static_cast<double>(r.ok_in_window) / r.window_s;
        }
    }
    // Overload must degrade gracefully: at 2x offered load the server
    // still completes >= 70% of its calibrated capacity.
    const double required_goodput_ratio = 0.7;
    if (goodput_2x < required_goodput_ratio * capacity) {
        gate_pass = false;
    }

    // --- BENCH_load.json ----------------------------------------------
    std::ofstream out{out_path, std::ios::binary | std::ios::trunc};
    out << "{\"bench\":\"bench_load\",\"tiny\":"
        << (tiny ? "true" : "false") << ",\"seed\":" << seed
        << ",\"connections\":" << conns
        << ",\"capacity_req_per_s\":";
    json_number(out, capacity);
    out << ",\"levels\":[";
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const level_result& r = levels[i];
        if (i != 0) {
            out << ",";
        }
        out << "{\"target_ratio\":";
        json_number(out, r.target_ratio);
        out << ",\"offered_req_per_s\":";
        json_number(out, r.offered_req_per_s);
        out << ",\"achieved_req_per_s\":";
        json_number(out, static_cast<double>(r.answered) / r.duration_s);
        out << ",\"goodput_req_per_s\":";
        json_number(out, static_cast<double>(r.ok_in_window) / r.window_s);
        out << ",\"sent\":" << r.sent << ",\"answered\":" << r.answered
            << ",\"unanswered\":" << r.unanswered << ",\"p50_ms\":";
        json_number(out, quantile_ms(r.latencies_ms, 0.50));
        out << ",\"p99_ms\":";
        json_number(out, quantile_ms(r.latencies_ms, 0.99));
        out << ",\"p999_ms\":";
        json_number(out, quantile_ms(r.latencies_ms, 0.999));
        // Per-endpoint percentile table: which op carries the tail at
        // this level.  Only endpoints that got at least one reply are
        // listed (a quantile of nothing is not a number).
        out << ",\"endpoints\":{";
        bool first_ep = true;
        for (std::size_t op = 0; op < r.endpoint_latencies_ms.size();
             ++op) {
            const std::vector<double>& samples =
                r.endpoint_latencies_ms[op];
            if (samples.empty()) {
                continue;
            }
            if (!first_ep) {
                out << ",";
            }
            first_ep = false;
            out << "\"" << corpus.ops[op]
                << "\":{\"count\":" << samples.size() << ",\"p50_ms\":";
            json_number(out, quantile_ms(samples, 0.50));
            out << ",\"p99_ms\":";
            json_number(out, quantile_ms(samples, 0.99));
            out << ",\"p999_ms\":";
            json_number(out, quantile_ms(samples, 0.999));
            out << "}";
        }
        out << "},\"errors\":{";
        bool first = true;
        for (const auto& [code, count] : r.error_codes) {
            if (!first) {
                out << ",";
            }
            first = false;
            out << "\"" << code << "\":" << count;
        }
        out << "}}";
    }
    out << "],\"gate\":{\"skipped\":false,\"pass\":"
        << (gate_pass ? "true" : "false")
        << ",\"required_goodput_ratio\":";
    json_number(out, required_goodput_ratio);
    out << ",\"goodput_2x_req_per_s\":";
    json_number(out, goodput_2x);
    out << "}}\n";
    out.close();
    std::printf("wrote %s\n", out_path.c_str());

    for (const level_result& r : levels) {
        std::printf(
            "  %.1fx offered %8.0f/s answered %8.0f/s goodput %8.0f/s "
            "p50 %8.2fms p99 %8.2fms p999 %8.2fms\n",
            r.target_ratio, r.offered_req_per_s,
            static_cast<double>(r.answered) / r.duration_s,
            static_cast<double>(r.ok_in_window) / r.window_s,
            quantile_ms(r.latencies_ms, 0.50),
            quantile_ms(r.latencies_ms, 0.99),
            quantile_ms(r.latencies_ms, 0.999));
    }
    if (!gate_pass) {
        std::printf("FAIL: load gate (goodput@2x %.0f/s, need %.0f/s)\n",
                    goodput_2x, required_goodput_ratio * capacity);
        return 1;
    }
    std::printf("OK%s\n", tiny ? " (tiny mode)" : "");
    return 0;
}
