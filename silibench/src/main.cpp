// silibench — end-to-end benchmark of silicond over TCP.
//
//   silibench --workload NAME --seed N --seconds S --trace 0|1
//             --silicond PATH --rate R [--overlap F] [--commit ID]
//
// One run: generate the workload from the seed, pass every line through
// the validity gate, then for each of kServers fresh servers:
//   setup   spawn silicond (default flags, ephemeral port), wait until it
//           listens, connect, send the workload's warm-up;
//   rounds  kRoundsPerServer times: an open phase (Poisson arrivals at R
//           requests/s) for half a round, then a closed phase (every
//           connection keeps a fixed window outstanding) for the other
//           half.  A round lasts S / (kServers x kRoundsPerServer).
// setup_s and rss_mb are medians over servers, the other end-to-end
// metrics medians over rounds.  The last stdout line is the result
// object; before it come the host and configuration fingerprint and the
// per-round figures.  --trace 1 adds /metrics scrapes around each phase,
// checks every reply byte for byte, and times each layer (layers.hpp).
// Exit code 2 = the run could not be made at all.

#include "client.hpp"
#include "common.hpp"
#include "gate.hpp"
#include "idle_poll.hpp"
#include "layers.hpp"
#include "server.hpp"
#include "workload.hpp"

#include <cmath>
#include <pthread.h>
#include <sched.h>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace silibench {
namespace {

/// Fresh servers per run; setup_s is the median of their set-ups.
constexpr int kServers = 3;
/// Rounds per server.  A round is one open and one closed phase; every
/// other end-to-end metric is the median over all kServers x
/// kRoundsPerServer rounds, so a host stall that spoils a few rounds
/// does not move it.
constexpr int kRoundsPerServer = 6;
constexpr int kRounds = kServers * kRoundsPerServer;
/// Share of each round's time given to the open phase (the rest: closed).
constexpr double kOpenShare = 0.5;
/// Untraced runs byte-compare every kSampleEvery-th line (others by hash).
constexpr std::size_t kSampleEvery = 16;
/// The generator has fallen behind when its median lateness exceeds this:
/// then the client, not the server, would set the latency.  (Its p99
/// follows host stalls and is only reported.)
constexpr double kMaxLateP50Ms = 0.05;
constexpr int kStartTimeoutMs = 30000;

struct plan {
    unsigned window;    ///< closed phase: requests outstanding per conn
    double closed_rps;  ///< closed pool size = this x closed seconds
};

plan plan_for(workload_kind k) {
    switch (k) {
        case workload_kind::warm_point: return {64, 600000};
        case workload_kind::cold_point: return {32, 150000};
        case workload_kind::grid_explore: return {4, 1000};
    }
    return {1, 1};
}

struct args {
    workload_kind kind = workload_kind::warm_point;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string silicond;
    workload_knobs knobs;
    std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, args& a) {
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") {
            have_workload = parse_workload(v, a.kind);
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), nullptr);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--silicond") {
            a.silicond = v;
        } else if (k == "--rate") {
            a.knobs.open_rate = std::strtod(v.c_str(), nullptr);
        } else if (k == "--overlap") {
            a.knobs.overlap = std::strtod(v.c_str(), nullptr);
        } else if (k == "--commit") {
            a.commit = v;
        } else {
            return false;
        }
    }
    return have_workload && !a.silicond.empty() && a.knobs.open_rate > 0 &&
           a.seconds > 0;
}

void emit(const std::vector<metric>& ms, bool correct, std::uint64_t attempted,
          std::uint64_t failed) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += (i == 0 ? "" : ", ") + json_string(ms[i].name) + ": {\"value\": " +
               json_number(ms[i].value) + ", \"unit\": " + json_string(ms[i].unit) +
               "}";
    }
    out += "}}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
}

std::string json_list(const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        s += (i == 0 ? "" : ", ") + json_number(v[i]);
    }
    return s + "]";
}

/// Appends `from`'s counts and samples to `into`.
void pool_into(phase_stats& into, const phase_stats& from) {
    into.sent += from.sent;
    into.ok += from.ok;
    into.errors += from.errors;
    into.wrong += from.wrong;
    into.unanswered += from.unanswered;
    into.byte_compared += from.byte_compared;
    into.lanes += from.lanes;
    into.cached_lanes += from.cached_lanes;
    into.exhausted = into.exhausted || from.exhausted;
    into.latency_ms.insert(into.latency_ms.end(), from.latency_ms.begin(),
                           from.latency_ms.end());
    into.late_ms.insert(into.late_ms.end(), from.late_ms.begin(), from.late_ms.end());
}

/// What one round measured.
struct round_result {
    double capacity_rps = 0;
    double p50_ms = 0;
    double cpu_us_per_req = 0;
};

int run(const args& a) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const int conns = static_cast<int>(std::min(hw, 4u));
    const plan p = plan_for(a.kind);
    const double open_s = a.seconds * kOpenShare / kRounds;
    const double closed_s = a.seconds / kRounds - open_s;

    // Every server runs the same sequences, each round its own slice.
    const std::size_t open_n = static_cast<std::size_t>(std::ceil(a.knobs.open_rate * open_s));
    const std::size_t closed_n = static_cast<std::size_t>(std::ceil(p.closed_rps * closed_s));
    workload w = generate(a.kind, a.seed, a.knobs, {open_n, closed_n, kRoundsPerServer});

    // Lines whose full reference bytes are kept for byte comparison.
    std::vector<bool> keep(w.lines.size(), a.trace);
    if (!a.trace) {
        for (std::size_t i = 0; i < w.lines.size(); i += kSampleEvery) {
            keep[i] = true;
        }
    }
    const gate_result gate = run_gate(w, keep, hw);
    drop_rejected(w, gate.ok);
    if (w.open.size() < kRoundsPerServer || w.closed.size() < kRoundsPerServer ||
        w.warmup.empty()) {
        std::fprintf(stderr, "silibench: the validity gate rejected a whole phase\n");
        return 2;
    }
    const auto slice = [](const std::vector<std::uint32_t>& seq, int r) {
        const std::size_t n = seq.size() / kRoundsPerServer;
        return std::span<const std::uint32_t>{seq}.subspan(static_cast<std::size_t>(r) * n, n);
    };

    // The client thread stays on the last CPU for the whole run, so where
    // it sits relative to silicond's threads is the same in every run
    // (unpinned, that placement split runs into a fast and a slow state).
    // silicond itself is not pinned: spawn_server gives it every CPU.
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(hw - 1, &one);
    cpu_set_t all;
    pthread_getaffinity_np(pthread_self(), sizeof all, &all);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);

    std::vector<round_result> rounds;
    std::vector<double> setups;
    std::vector<double> rss;
    phase_stats open_all;
    phase_stats closed_all;
    scrape open_delta;
    scrape closed_delta;
    std::vector<double> rtt_us;
    std::uint64_t warm_failed = 0;
    std::uint64_t expected_open = 0;
    // A request left unanswered means the server hung or dropped a
    // connection: the run stops there, and reports the failure.
    bool lost = false;
    server srv;
    for (int k = 0; k < kServers && !lost; ++k) {
        const idle_poll poll;
        // --- setup: spawn, listen, connect, warm up ---------------------
        const std::int64_t t0 = now_ns();
        if (!spawn_server(a.silicond, srv) || !await_listening(srv, kStartTimeoutMs)) {
            stop_server(srv);
            return 2;
        }
        client cl{w, gate.expected};
        if (!cl.connect(srv.port, conns)) {
            std::fprintf(stderr, "silibench: cannot connect to port %d\n", srv.port);
            stop_server(srv);
            return 2;
        }
        const phase_stats warm = cl.run_closed(w.warmup, p.window, 0);
        warm_failed += warm.failed();
        lost = warm.unanswered > 0;
        setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

        // --- rounds of open, then closed --------------------------------
        for (int r = 0; r < kRoundsPerServer && !lost; ++r) {
            const scrape s0 = a.trace ? fetch_metrics(srv.port) : scrape{};
            const double cpu0 = cpu_seconds(srv.pid);
            const auto open_seq = slice(w.open, r);
            const phase_stats open = cl.run_open(
                open_seq, a.knobs.open_rate,
                a.seed * kRounds + static_cast<std::uint64_t>(k * kRoundsPerServer + r));
            const double cpu1 = cpu_seconds(srv.pid);
            const scrape s1 = a.trace ? fetch_metrics(srv.port) : scrape{};
            const phase_stats closed = cl.run_closed(slice(w.closed, r), p.window, closed_s);
            if (a.trace) {
                const scrape s2 = fetch_metrics(srv.port);
                add_delta(open_delta, s1, s0);
                add_delta(closed_delta, s2, s1);
            }
            expected_open += open_seq.size();
            pool_into(open_all, open);
            pool_into(closed_all, closed);
            lost = open.unanswered + closed.unanswered > 0;
            if (!lost) {
                const double answered =
                    static_cast<double>(open.ok + open.errors + open.wrong);
                rounds.push_back({static_cast<double>(closed.ok) / closed.elapsed_s,
                                  median(open.latency_ms),
                                  (cpu1 - cpu0) * 1e6 / answered});
            }
        }
        rss.push_back(peak_rss_mb(srv.pid));
        if (a.trace && k == kServers - 1) {
            rtt_us.resize(2000);
            if (!cl.ping_pong(w.warmup.front(), rtt_us)) {
                rtt_us.clear();
            }
        }
        stop_server(srv);
    }

    // --- results ----------------------------------------------------------
    const auto over_rounds = [&](double round_result::*field) {
        std::vector<double> v;
        for (const round_result& rr : rounds) {
            v.push_back(rr.*field);
        }
        return v;
    };
    const std::uint64_t sent = open_all.sent + closed_all.sent;
    const std::uint64_t failed = open_all.failed() + closed_all.failed();
    const double late_p50 = quantile(open_all.late_ms, 0.5);
    const bool generator_ok = late_p50 <= kMaxLateP50Ms;
    const bool correct = failed == 0 && warm_failed == 0 && generator_ok &&
                         open_all.sent == expected_open;
    if (!generator_ok) {
        std::fprintf(stderr,
                     "silibench: invalid run: the generator sent requests %.3f ms "
                     "late at the median (limit %.3f ms)\n",
                     late_p50, kMaxLateP50Ms);
    }
    if (failed != 0 || warm_failed != 0) {
        std::fprintf(stderr,
                     "silibench: %llu failed replies (errors %llu, wrong %llu, "
                     "unanswered %llu) and %llu in set-up\n",
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(open_all.errors + closed_all.errors),
                     static_cast<unsigned long long>(open_all.wrong + closed_all.wrong),
                     static_cast<unsigned long long>(open_all.unanswered +
                                                     closed_all.unanswered),
                     static_cast<unsigned long long>(warm_failed));
    }

    const std::vector<metric> e2e{
        {"setup_s", median(setups), "s"},
        {"capacity_rps", median(over_rounds(&round_result::capacity_rps)), "1/s"},
        {"p50_ms", median(over_rounds(&round_result::p50_ms)), "ms"},
        {"cpu_us_per_req", median(over_rounds(&round_result::cpu_us_per_req)), "us"},
        {"rss_mb", median(rss), "MB"},
        {"ok_ratio",
         static_cast<double>(open_all.ok + closed_all.ok) /
             static_cast<double>(std::max<std::uint64_t>(1, sent)),
         "1"},
    };

    std::string fp = "{\"fingerprint\": {";
    fp += "\"workload\": " + json_string(workload_name(a.kind));
    fp += ", \"seed\": " + std::to_string(a.seed);
    fp += ", \"seconds\": " + json_number(a.seconds);
    fp += ", \"trace\": " + std::string{a.trace ? "1" : "0"};
    fp += ", \"open_rate\": " + json_number(a.knobs.open_rate);
    fp += ", \"overlap\": " + json_number(a.knobs.overlap);
    fp += ", \"nproc\": " + std::to_string(hw);
    fp += ", \"connections\": " + std::to_string(conns);
    fp += ", \"simd_target\": " + json_string(srv.simd_target);
    fp += ", \"compiler\": " + json_string(__VERSION__);
    fp += ", \"build_type\": " + json_string(SILIBENCH_BUILD_TYPE);
    fp += ", \"silicond\": " + json_string(srv.command_line);
    fp += ", \"commit\": " + json_string(a.commit);
    fp += "}}\n";
    // Per-round figures behind the medians, for a reader of the log.
    fp += "{\"rounds\": {";
    fp += "\"setup_s\": " + json_list(setups);
    fp += ", \"capacity_rps\": " + json_list(over_rounds(&round_result::capacity_rps));
    fp += ", \"p50_ms\": " + json_list(over_rounds(&round_result::p50_ms));
    fp += ", \"cpu_us_per_req\": " + json_list(over_rounds(&round_result::cpu_us_per_req));
    fp += ", \"rss_mb\": " + json_list(rss);
    fp += ", \"late_p50_ms\": " + json_number(late_p50);
    fp += ", \"late_p99_ms\": " + json_number(quantile(open_all.late_ms, 0.99));
    fp += ", \"gate_s\": " + json_number(gate.seconds);
    fp += ", \"gate_rejected\": " + std::to_string(w.rejected);
    fp += ", \"closed_exhausted\": " + std::string{closed_all.exhausted ? "true" : "false"};
    fp += "}}\n";
    std::fputs(fp.c_str(), stdout);

    if (!a.trace) {
        emit(e2e, correct, sent, failed);
        return 0;
    }
    std::vector<metric> ms;
    for (const metric& m : e2e) {
        ms.push_back({"traced." + m.name, m.value, m.unit});
    }
    ms.push_back({"gate.seconds", gate.seconds, "s"});
    ms.push_back({"client.fail_ratio",
                  static_cast<double>(failed) /
                      static_cast<double>(std::max<std::uint64_t>(1, sent)),
                  "1"});
    ms.push_back({"checker.byte_compared",
                  static_cast<double>(open_all.byte_compared + closed_all.byte_compared),
                  "count"});
    // Layer timings run on every CPU, as does the exec pool they start.
    pthread_setaffinity_np(pthread_self(), sizeof all, &all);
    const trace_inputs in{w,      open_all,         closed_all, open_delta,
                          closed_delta, rtt_us, w.warmup.front(), a.seed};
    for (metric& m : measure_layers(in)) {
        ms.push_back(std::move(m));
    }
    emit(ms, correct, sent, failed);
    return 0;
}

}  // namespace
}  // namespace silibench

int main(int argc, char** argv) {
    silibench::args a;
    if (!silibench::parse_args(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: silibench --workload warm_point|cold_point|grid_explore "
                     "--seed N --seconds S --trace 0|1 --silicond PATH --rate R "
                     "[--overlap F] [--commit ID]\n");
        return 2;
    }
    return silibench::run(a);
}
