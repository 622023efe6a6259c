// silicond — the silicon cost-query server.
//
// Speaks the serve JSONL protocol (one request per line, one response
// per line, same order — see DESIGN.md §8) over two transports:
//
//   * stdin/stdout (default): read requests, answer them, exit at EOF.
//     Lines are collected into batches of --batch and fanned across
//     the exec thread pool; output order always matches input order
//     and is bit-identical for every --threads value, which is what
//     the golden smoke test pins down.
//
//       echo '{"op":"scenario1","lambda_um":0.5}' | silicond
//
//   * TCP (--port N): a single-threaded epoll event loop (serve/
//     event_loop) multiplexes every connection over a shared engine —
//     no thread per client, so thousands of concurrent connections
//     cost file descriptors, not stacks.  Each connection batches its
//     lines through the engine exactly like stdin mode (responses stay
//     in order and bit-identical per connection for every --threads
//     value); parallelism lives in the exec pool the batches fan
//     across.  --port 0 binds an ephemeral port and logs the chosen
//     one.  Slow readers are backpressured (the loop stops reading a
//     connection whose write queue passes its high watermark) and
//     bounded by --max-conns / --idle-timeout-ms / --write-timeout-ms.
//
// Overload behavior (DESIGN.md §11): both transports frame lines
// through a bounded splitter (serve/io) — a line over --max-line-bytes
// is answered with a `too_large` envelope after the pending batch
// flushes (replies stay in order); over TCP the connection then
// closes.  --max-batch-lines / --max-sweep-points / --max-mc-dies /
// --max-inflight-bytes / --deadline-ms / --shed-on-overload configure
// the engine's admission control and deadline budgets.  All writes
// retry EINTR and short writes; SIGPIPE is ignored, so a vanished
// client costs one connection, never the process.  --faults SPEC (or
// the SILICON_FAULTS environment variable) arms the deterministic
// fault-injection switchboard (serve/faults) for chaos testing.
//
// Observability (DESIGN.md §9): over TCP the port also speaks real
// HTTP/1.1 with keep-alive — `GET /metrics HTTP/1.1` (what Prometheus
// and `curl localhost:N/metrics` send) answers the text exposition and
// keeps the connection open for the next scrape *or* the next JSONL
// line; the PR 5 one-shot `GET /metrics` bare line still answers and
// closes.  Over stdin a `GET /metrics` line emits the exposition
// inline; `--metrics-interval S` dumps the same exposition to stderr
// every S seconds; `--trace FILE` enables the span tracer and writes a
// Chrome trace_event JSON file at shutdown (load it in chrome://tracing
// or https://ui.perfetto.dev).  Operational events are structured JSONL
// on stderr (obs/log) — stdout carries protocol bytes only.  SIGINT /
// SIGTERM shut down cleanly: pending metrics and the trace file are
// flushed before exit.
//
// Flags:
//   --threads N           max batch fan-out width (0 = hardware, 1 = serial;
//                         batches below the exec grain run inline anyway)
//   --batch N             max lines per engine batch (default 1024)
//   --cache-capacity N    memoization entries (0 disables; default 65536)
//   --cache-shards N      cache shard count (default 16)
//   --cache-snapshot PATH persist the cache to PATH (restored at boot,
//                         written atomically on clean shutdown, on
//                         SIGUSR2, and every --snapshot-interval)
//   --snapshot-interval S periodic snapshot cadence in seconds
//                         (0 = only shutdown/SIGUSR2 writes)
//   --fast-math           vector-math sweep/partition kernels (ULP-
//                         bounded drift; off = bit-exact scalar)
//   --port N              serve TCP on 127.0.0.1:N instead of stdin
//                         (0 = ephemeral; the chosen port is logged)
//   --max-conns N         most simultaneous TCP connections; beyond it
//                         accepts are closed immediately (0 = unlimited)
//   --idle-timeout-ms N   close connections idle this long (0 = never)
//   --write-timeout-ms N  close connections whose replies a slow reader
//                         leaves unread this long (0 = never)
//   --max-line-bytes N    per-line byte bound (default 16 MiB; 0 = off)
//   --max-batch-lines N   per-batch line bound (default 0 = off)
//   --max-sweep-points N  largest accepted sweep grid (0 = off)
//   --max-mc-dies N       largest accepted Monte-Carlo die count (0 = off)
//   --max-inflight-bytes N  admission byte budget (0 = off)
//   --deadline-ms N       default per-batch deadline (0 = off)
//   --shed-on-overload    shed cache shards on overloaded rejections
//   --faults SPEC         arm fault injection (see serve/faults.hpp)
//   --metrics             dump the metrics/cache JSON to stderr on exit
//   --metrics-interval S  dump Prometheus text to stderr every S seconds
//   --trace FILE          enable tracing; write Chrome trace JSON on exit
//   --flight-records N    per-thread flight-recorder ring capacity
//                         (default 4096; 0 disables recording)
//   --flight-dump FILE    write the flight-recorder JSONL to FILE on the
//                         first anomaly (deadline_exceeded / overloaded /
//                         internal_error), on SIGUSR1, and at shutdown
//   --flight-deterministic  zero record timings so a fixed corpus dumps
//                         byte-identically at any --threads value
//   --log-level LEVEL     trace|debug|info|warn|error (default info)
//   --help
//
// SIGUSR1 dumps the flight recorder on demand: to --flight-dump FILE
// when given, to stderr otherwise.  `GET /flightz` over the TCP port
// answers the same JSONL without touching the filesystem.  SIGUSR2
// writes a cache snapshot to --cache-snapshot on demand (crash-safe
// warm restarts, DESIGN.md §16); snapshot age/bytes/duration show up
// in /statusz and the Prometheus exposition.

#include "exec/thread_pool.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/conn.hpp"
#include "serve/engine.hpp"
#include "serve/event_loop.hpp"
#include "serve/faults.hpp"
#include "serve/io.hpp"
#include "serve/limits.hpp"
#include "serve/snapshot.hpp"
#include "simd/dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#ifndef SILICON_VERSION
#define SILICON_VERSION "dev"
#endif

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump_flight = 0;
volatile std::sig_atomic_t g_snapshot_now = 0;

void on_signal(int) { g_stop = 1; }
void on_sigusr1(int) { g_dump_flight = 1; }
void on_sigusr2(int) { g_snapshot_now = 1; }

/// Install SIGINT/SIGTERM handlers WITHOUT SA_RESTART so blocking
/// reads/accepts return EINTR and the main loops can exit cleanly.
/// SIGUSR1 (flight-recorder dump request) is handled the same way: the
/// EINTR wakes the transport loop, which performs the dump outside
/// signal context.  SIGPIPE is ignored: a client that vanishes
/// mid-reply must surface as an EPIPE write error on that connection,
/// not kill the server.
void install_signal_handlers() {
    struct sigaction sa{};
    sa.sa_handler = on_signal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    struct sigaction usr1{};
    usr1.sa_handler = on_sigusr1;
    sigemptyset(&usr1.sa_mask);
    usr1.sa_flags = 0;
    sigaction(SIGUSR1, &usr1, nullptr);
    struct sigaction usr2{};
    usr2.sa_handler = on_sigusr2;
    sigemptyset(&usr2.sa_mask);
    usr2.sa_flags = 0;
    sigaction(SIGUSR2, &usr2, nullptr);
    std::signal(SIGPIPE, SIG_IGN);
}

/// The --flight-dump path (empty = dump to stderr on SIGUSR1).
std::string g_flight_dump_path;  // NOLINT: set once in main

/// Honor a pending SIGUSR1 outside signal context.  Called from the
/// transport loops' wakeup points.
void process_flight_dump_request() {
    if (g_dump_flight == 0) {
        return;
    }
    g_dump_flight = 0;
    silicon::obs::flight_recorder& flight =
        silicon::obs::flight_recorder::instance();
    if (!g_flight_dump_path.empty()) {
        if (flight.write_jsonl(g_flight_dump_path)) {
            silicon::obs::log_info("silicond.flight_dump",
                                   {{"path", g_flight_dump_path}});
        } else {
            silicon::obs::log_error("silicond.flight_dump_failed",
                                    {{"path", g_flight_dump_path}});
        }
    } else {
        std::string text;
        flight.export_jsonl(text);
        std::fwrite(text.data(), 1, text.size(), stderr);
        std::fflush(stderr);
    }
}

/// Snapshot plumbing: set once in main before any transport thread
/// starts, then read-only.  Empty path = snapshots disabled.
std::string g_snapshot_file;                      // NOLINT
silicon::serve::engine* g_snapshot_engine = nullptr;  // NOLINT

/// Write a cache snapshot to --cache-snapshot and log the outcome.
/// Safe from any thread (the engine serializes writers internally);
/// a failed write leaves any previous snapshot file intact.
void write_snapshot(const char* why) {
    if (g_snapshot_file.empty() || g_snapshot_engine == nullptr) {
        return;
    }
    const silicon::serve::snapshot::write_result r =
        g_snapshot_engine->snapshot_write(g_snapshot_file);
    if (r.ok) {
        silicon::obs::log_info("silicond.snapshot_written",
                               {{"path", g_snapshot_file},
                                {"reason", why},
                                {"entries", r.entries},
                                {"bytes", r.bytes}});
    } else {
        silicon::obs::log_error("silicond.snapshot_failed",
                                {{"path", g_snapshot_file},
                                 {"reason", why},
                                 {"error", r.error}});
    }
}

/// Honor a pending SIGUSR2 (manual snapshot trigger) outside signal
/// context.  Called from the transport loops' wakeup points.
void process_snapshot_request() {
    if (g_snapshot_now == 0) {
        return;
    }
    g_snapshot_now = 0;
    write_snapshot("sigusr2");
}

struct options {
    unsigned threads = 0;
    std::size_t batch = 1024;
    std::size_t cache_capacity = 65536;
    std::size_t cache_shards = 16;
    std::string cache_snapshot;     ///< empty = snapshots off
    unsigned snapshot_interval = 0;  ///< seconds; 0 = no periodic writes
    int port = -1;
    std::size_t max_conns = 0;           ///< 0 = unlimited
    std::size_t idle_timeout_ms = 0;     ///< 0 = never
    std::size_t write_timeout_ms = 0;    ///< 0 = never
    std::size_t max_line_bytes = 16u << 20;  ///< 16 MiB; 0 = unbounded
    std::size_t max_batch_lines = 0;
    std::size_t max_sweep_points = 0;
    std::size_t max_mc_dies = 0;
    std::size_t max_inflight_bytes = 0;
    std::size_t deadline_ms = 0;
    bool shed_on_overload = false;
    bool fast_math = false;
    std::string faults_spec;
    bool metrics = false;
    unsigned metrics_interval = 0;  ///< seconds; 0 = off
    std::string trace_path;         ///< empty = tracing off
    std::size_t flight_records =
        silicon::obs::flight_recorder::default_capacity;  ///< 0 = off
    std::string flight_dump;        ///< empty = no dump file
    bool flight_deterministic = false;
};

void usage(std::ostream& out) {
    out << "silicond - Maly silicon cost model query server (JSONL)\n"
           "\n"
           "  silicond [--threads N] [--batch N] [--cache-capacity N]\n"
           "           [--cache-shards N] [--cache-snapshot PATH]\n"
           "           [--snapshot-interval S]\n"
           "           [--port N] [--max-conns N]\n"
           "           [--idle-timeout-ms N] [--write-timeout-ms N]\n"
           "           [--max-line-bytes N] [--max-batch-lines N]\n"
           "           [--max-sweep-points N] [--max-mc-dies N]\n"
           "           [--max-inflight-bytes N] [--deadline-ms N]\n"
           "           [--shed-on-overload] [--fast-math]\n"
           "           [--faults SPEC] [--metrics]\n"
           "           [--metrics-interval S] [--trace FILE]\n"
           "           [--flight-records N] [--flight-dump FILE]\n"
           "           [--flight-deterministic] [--log-level LEVEL]\n"
           "\n"
           "Reads one JSON request per line from stdin (or a TCP\n"
           "connection with --port) and writes one JSON response per\n"
           "line in the same order.  Example:\n"
           "\n"
           "  echo '{\"op\":\"scenario1\",\"lambda_um\":0.5}' | silicond\n"
           "\n"
           "A line starting with 'GET /metrics' answers with the\n"
           "Prometheus text exposition; over TCP the port speaks\n"
           "HTTP/1.1 with keep-alive too, so curl and Prometheus\n"
           "scrape it directly.  --trace FILE writes a Chrome trace\n"
           "JSON file at shutdown.  Lines over --max-line-bytes are\n"
           "answered with a too_large error envelope (and the\n"
           "connection closes over TCP); requests over the sweep/MC/\n"
           "byte budgets get too_large or overloaded envelopes; every\n"
           "accepted line still gets exactly one reply.\n"
           "\n"
           "A request may carry a \"trace_id\" string; it is echoed in\n"
           "the response envelope (success and error alike) and shows\n"
           "up in the flight recorder, the Prometheus tail exemplars,\n"
           "and /flightz.  The flight recorder keeps the last\n"
           "--flight-records requests per thread (0 disables) and\n"
           "dumps JSONL to --flight-dump on the first anomaly\n"
           "(deadline_exceeded / overloaded / internal_error), on\n"
           "SIGUSR1, and at shutdown; --flight-deterministic zeroes\n"
           "timings so fixed corpora dump byte-identically at any\n"
           "--threads.  Over TCP the port also answers GET /healthz\n"
           "(liveness; 503 when over the admission budget),\n"
           "GET /statusz (config/limits/cache/flight JSON) and\n"
           "GET /flightz (recent flight records, JSONL).\n"
           "\n"
           "--cache-snapshot PATH makes restarts warm: the memoization\n"
           "cache is restored from PATH at boot (a missing, corrupt, or\n"
           "mismatched snapshot degrades to a counted cold start, never\n"
           "a crash) and written back atomically (tmp + fsync + rename)\n"
           "on clean shutdown, on SIGUSR2, and every\n"
           "--snapshot-interval seconds.\n"
           "\n"
           "--fast-math routes sweep and partition_explore kernels\n"
           "through runtime-dispatched vector math (AVX2/NEON; see the\n"
           "simd_target field in the start banner and /statusz).\n"
           "Curve values may drift from the scalar library within the\n"
           "documented ULP bounds (DESIGN.md section 15), so leave it\n"
           "off for golden/bit-exact workflows; point queries and\n"
           "error/null lanes are unaffected, and responses remain\n"
           "deterministic at every --threads value.\n"
           "\n"
           "Endpoints: cost_tr gross_die yield scenario1 scenario2\n"
           "           table3 mc_yield sweep chiplet partition_explore\n"
           "           stats\n";
}

bool parse_size(const char* text, std::size_t& out) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0') {
        return false;
    }
    out = static_cast<std::size_t>(v);
    return true;
}

bool parse_log_level(const std::string& name, silicon::obs::log_level& out) {
    using silicon::obs::log_level;
    for (const log_level level :
         {log_level::trace, log_level::debug, log_level::info,
          log_level::warn, log_level::error}) {
        if (silicon::obs::to_string(level) == name) {
            out = level;
            return true;
        }
    }
    return false;
}

bool parse_options(int argc, char** argv, options& opt) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        std::size_t v = 0;
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        } else if (arg == "--metrics") {
            opt.metrics = true;
        } else if (arg == "--shed-on-overload") {
            opt.shed_on_overload = true;
        } else if (arg == "--fast-math") {
            opt.fast_math = true;
        } else if (arg == "--threads") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v)) {
                return false;
            }
            opt.threads = static_cast<unsigned>(v);
        } else if (arg == "--batch") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v) || v == 0) {
                return false;
            }
            opt.batch = v;
        } else if (arg == "--cache-capacity") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v)) {
                return false;
            }
            opt.cache_capacity = v;
        } else if (arg == "--cache-shards") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v) || v == 0) {
                return false;
            }
            opt.cache_shards = v;
        } else if (arg == "--cache-snapshot") {
            const char* t = next();
            if (t == nullptr || *t == '\0') {
                return false;
            }
            opt.cache_snapshot = t;
        } else if (arg == "--snapshot-interval") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v) || v == 0) {
                return false;
            }
            opt.snapshot_interval = static_cast<unsigned>(v);
        } else if (arg == "--port") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v) || v > 65535) {
                return false;
            }
            opt.port = static_cast<int>(v);
        } else if (arg == "--max-conns") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v)) {
                return false;
            }
            opt.max_conns = v;
        } else if (arg == "--idle-timeout-ms") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v)) {
                return false;
            }
            opt.idle_timeout_ms = v;
        } else if (arg == "--write-timeout-ms") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v)) {
                return false;
            }
            opt.write_timeout_ms = v;
        } else if (arg == "--max-line-bytes") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v)) {
                return false;
            }
            opt.max_line_bytes = v;
        } else if (arg == "--max-batch-lines") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v)) {
                return false;
            }
            opt.max_batch_lines = v;
        } else if (arg == "--max-sweep-points") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v)) {
                return false;
            }
            opt.max_sweep_points = v;
        } else if (arg == "--max-mc-dies") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v)) {
                return false;
            }
            opt.max_mc_dies = v;
        } else if (arg == "--max-inflight-bytes") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v)) {
                return false;
            }
            opt.max_inflight_bytes = v;
        } else if (arg == "--deadline-ms") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v)) {
                return false;
            }
            opt.deadline_ms = v;
        } else if (arg == "--faults") {
            const char* t = next();
            if (t == nullptr || *t == '\0') {
                return false;
            }
            opt.faults_spec = t;
        } else if (arg == "--metrics-interval") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v) || v == 0) {
                return false;
            }
            opt.metrics_interval = static_cast<unsigned>(v);
        } else if (arg == "--trace") {
            const char* t = next();
            if (t == nullptr || *t == '\0') {
                return false;
            }
            opt.trace_path = t;
        } else if (arg == "--flight-records") {
            const char* t = next();
            if (t == nullptr || !parse_size(t, v)) {
                return false;
            }
            opt.flight_records = v;
        } else if (arg == "--flight-dump") {
            const char* t = next();
            if (t == nullptr || *t == '\0') {
                return false;
            }
            opt.flight_dump = t;
        } else if (arg == "--flight-deterministic") {
            opt.flight_deterministic = true;
        } else if (arg == "--log-level") {
            const char* t = next();
            silicon::obs::log_level level{};
            if (t == nullptr || !parse_log_level(t, level)) {
                return false;
            }
            silicon::obs::set_log_threshold(level);
        } else {
            return false;
        }
    }
    return true;
}

[[nodiscard]] bool is_metrics_request(std::string_view line) {
    return line.rfind("GET /metrics", 0) == 0;
}

namespace io = silicon::serve::io;
namespace faults = silicon::serve::faults;

/// One read attempt with EINTR retry (real — a signal without
/// SA_RESTART — or injected via the `silicond.read` fault site).
/// Returns bytes read, 0 on EOF or shutdown, negative on a dead
/// stream.
long read_some(int fd, char* buf, std::size_t cap) {
    for (;;) {
        if (faults::enabled() && faults::take_eintr("silicond.read")) {
            continue;  // simulated EINTR storm: retry
        }
        const ssize_t got = ::read(fd, buf, cap);
        if (got < 0 && errno == EINTR) {
            if (g_stop != 0) {
                return 0;  // interrupted by shutdown: drain and exit
            }
            process_flight_dump_request();  // SIGUSR1 woke the read
            process_snapshot_request();     // SIGUSR2: snapshot now
            continue;
        }
        return static_cast<long>(got);
    }
}

/// Gather a batch's responses (and their newlines) into one buffer and
/// write it with a single EINTR-safe gathered write — a writev-style
/// flush instead of one small write per line.  The buffer is reused
/// across batches.  Returns false when the output is gone.
bool flush_batch(silicon::serve::engine& engine,
                 std::vector<std::string>& lines, std::string& gather,
                 int fd) {
    if (lines.empty()) {
        return true;
    }
    gather.clear();
    engine.handle_batch_into(lines, gather);
    lines.clear();
    if (!io::write_all_fd(fd, gather, /*is_socket=*/false)) {
        return false;
    }
    silicon::serve::transport_counters& counters =
        silicon::serve::transport_counters::instance();
    counters.flushes.add(1);
    counters.flushed_bytes.add(gather.size());
    return true;
}

/// The stdio line loop: frame bytes through the bounded splitter, batch
/// complete lines, answer oversized lines with a `too_large` envelope
/// *after* the pending batch (replies stay in request order).  stdio is
/// a long-lived session: an oversized line is answered and discarded
/// and the stream continues; a metrics line emits the exposition inline
/// and the loop resumes.
struct line_loop {
    silicon::serve::engine& engine;
    int in_fd;
    int out_fd;
    std::size_t batch;
    std::size_t max_line_bytes;

    io::line_splitter splitter{0};
    std::vector<std::string> lines;
    std::string gather;
    std::string reject;
    bool dead = false;  ///< write failed or close requested

    void run() {
        splitter = io::line_splitter{max_line_bytes};
        lines.reserve(batch);
        char chunk[4096];
        const auto on_line = [this](std::string_view line, bool oversized) {
            handle(line, oversized);
        };
        while (!dead && g_stop == 0) {
            const long got = read_some(in_fd, chunk, sizeof chunk);
            if (got <= 0) {
                break;
            }
            splitter.feed({chunk, static_cast<std::size_t>(got)}, on_line);
            // Answer everything complete in this chunk: a client that
            // sends one request and waits must not stall behind the
            // batch-size threshold.
            if (!dead &&
                !flush_batch(engine, lines, gather, out_fd)) {
                dead = true;
            }
        }
        if (!dead) {
            splitter.finish(on_line);
        }
        if (!dead) {
            flush_batch(engine, lines, gather, out_fd);
        }
    }

private:
    void handle(std::string_view line, bool oversized) {
        if (dead) {
            return;
        }
        if (oversized) {
            // Answer pending work first so the rejection lands at the
            // position the oversized line occupied.
            if (!flush_batch(engine, lines, gather, out_fd)) {
                dead = true;
                return;
            }
            silicon::serve::transport_counters::instance()
                .oversized_lines.add(1);
            reject.clear();
            silicon::serve::append_line_too_large(max_line_bytes, reject);
            reject += '\n';
            if (!io::write_all_fd(out_fd, reject, /*is_socket=*/false)) {
                dead = true;
            }
            return;
        }
        if (line.empty()) {
            return;  // blank lines are keep-alives, not requests
        }
        if (is_metrics_request(line)) {
            // Scrape: answer pending work first, then the exposition.
            if (!flush_batch(engine, lines, gather, out_fd)) {
                dead = true;
                return;
            }
            io::write_all_fd(out_fd, engine.prometheus_text(),
                             /*is_socket=*/false);
            return;
        }
        lines.emplace_back(line);
        if (lines.size() >= batch) {
            if (!flush_batch(engine, lines, gather, out_fd)) {
                dead = true;
            }
        }
    }
};

int run_stdio(silicon::serve::engine& engine, const options& opt) {
    line_loop loop{engine, STDIN_FILENO, STDOUT_FILENO, opt.batch,
                   opt.max_line_bytes};
    loop.run();
    return 0;
}

int run_tcp(silicon::serve::engine& engine, const options& opt) {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) {
        silicon::obs::log_error("silicond.socket",
                                {{"error", std::strerror(errno)}});
        return 1;
    }
    const int enable = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(static_cast<std::uint16_t>(opt.port));
    if (::bind(listener, reinterpret_cast<const sockaddr*>(&address),
               sizeof address) != 0 ||
        ::listen(listener, 64) != 0) {
        silicon::obs::log_error("silicond.bind",
                                {{"port", opt.port},
                                 {"error", std::strerror(errno)}});
        ::close(listener);
        return 1;
    }
    // --port 0 binds an ephemeral port; report the one the kernel chose
    // so test harnesses (tools/chaosclient) can parse it from the log.
    int bound_port = opt.port;
    {
        sockaddr_in actual{};
        socklen_t len = sizeof actual;
        if (::getsockname(listener, reinterpret_cast<sockaddr*>(&actual),
                          &len) == 0) {
            bound_port = static_cast<int>(ntohs(actual.sin_port));
        }
    }
    silicon::obs::log_info("silicond.listening",
                           {{"address", "127.0.0.1"}, {"port", bound_port}});

    silicon::serve::event_loop_config loop_config;
    loop_config.max_conns = opt.max_conns;
    loop_config.idle_timeout_ms = opt.idle_timeout_ms;
    loop_config.write_timeout_ms = opt.write_timeout_ms;
    loop_config.conn.batch = opt.batch;
    loop_config.conn.max_line_bytes = opt.max_line_bytes;
    if (opt.snapshot_interval > 0 && !opt.cache_snapshot.empty()) {
        // Periodic snapshots ride the loop's timerfd tick; the write
        // serializes the cache shard-by-shard and the file I/O is a
        // local rename, so the pause is bounded and connections keep
        // their kernel buffers meanwhile.
        loop_config.periodic_ms =
            static_cast<std::uint64_t>(opt.snapshot_interval) * 1000u;
        loop_config.on_periodic = [] { write_snapshot("interval"); };
    }
    try {
        // The loop owns the listener from here on.  SIGINT/SIGTERM
        // interrupt epoll_wait (no SA_RESTART) and the should_stop
        // check exits the loop, dropping open connections.
        silicon::serve::event_loop loop{engine, listener,
                                        std::move(loop_config)};
        loop.run([] {
            // Piggyback on the loop's wakeup check: SIGUSR1/SIGUSR2
            // interrupt epoll_wait, the dump/snapshot happens here,
            // serving continues.
            process_flight_dump_request();
            process_snapshot_request();
            return g_stop != 0;
        });
    } catch (const std::system_error& e) {
        silicon::obs::log_error("silicond.event_loop",
                                {{"error", e.what()}});
        return 1;
    }
    return 0;
}

/// Background Prometheus dumper: one stderr exposition every
/// `interval` seconds until stopped (condition variable so shutdown
/// never waits out a full period).
class metrics_dumper {
public:
    metrics_dumper(silicon::serve::engine& engine, unsigned interval)
        : engine_{engine}, interval_{interval} {
        if (interval_ > 0) {
            thread_ = std::thread{[this] { loop(); }};
        }
    }

    ~metrics_dumper() { stop(); }

    void stop() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (done_) {
                return;
            }
            done_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable()) {
            thread_.join();
        }
        if (interval_ > 0) {
            dump();  // final flush so shutdown always records totals
        }
    }

private:
    void loop() {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!cv_.wait_for(lock, std::chrono::seconds{interval_},
                             [this] { return done_; })) {
            lock.unlock();
            dump();
            lock.lock();
        }
    }

    void dump() {
        const std::string text = engine_.prometheus_text();
        std::fwrite(text.data(), 1, text.size(), stderr);
        std::fflush(stderr);
    }

    silicon::serve::engine& engine_;
    unsigned interval_;
    std::thread thread_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool done_ = false;
};

/// Background periodic snapshot writer for stdio mode (TCP mode rides
/// the event loop's timerfd instead).  The engine serializes snapshot
/// writers, so this thread and a SIGUSR2-triggered write never tear.
class snapshot_ticker {
public:
    explicit snapshot_ticker(unsigned interval)
        : interval_{interval} {
        if (interval_ > 0) {
            thread_ = std::thread{[this] { loop(); }};
        }
    }

    ~snapshot_ticker() { stop(); }

    void stop() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (done_) {
                return;
            }
            done_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable()) {
            thread_.join();
        }
    }

private:
    void loop() {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!cv_.wait_for(lock, std::chrono::seconds{interval_},
                             [this] { return done_; })) {
            lock.unlock();
            write_snapshot("interval");
            lock.lock();
        }
    }

    unsigned interval_;
    std::thread thread_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool done_ = false;
};

}  // namespace

int main(int argc, char** argv) {
    options opt;
    if (!parse_options(argc, argv, opt)) {
        usage(std::cerr);
        return 2;
    }

    std::ios::sync_with_stdio(false);
    install_signal_handlers();

    try {
        if (!opt.faults_spec.empty()) {
            faults::configure(opt.faults_spec);
        } else {
            faults::configure_from_env();
        }
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    namespace obs = silicon::obs;
    if (!opt.trace_path.empty()) {
        obs::tracer::instance().enable();
    }

    silicon::serve::engine_config config;
    config.parallelism = opt.threads;
    config.cache_capacity = opt.cache_capacity;
    config.cache_shards = opt.cache_shards;
    // max_line_bytes is enforced by the transport's bounded splitter;
    // mirroring it into the engine costs one compare per line and keeps
    // direct library users of this config equally bounded.
    config.limits.max_line_bytes = opt.max_line_bytes;
    config.limits.max_batch_lines = opt.max_batch_lines;
    config.limits.max_sweep_points = opt.max_sweep_points;
    config.limits.max_mc_dies = opt.max_mc_dies;
    config.limits.max_inflight_bytes = opt.max_inflight_bytes;
    config.limits.default_deadline_ms = opt.deadline_ms;
    config.limits.shed_on_overload = opt.shed_on_overload;
    config.fast_math = opt.fast_math;
    silicon::serve::engine engine{config};

    if (!opt.cache_snapshot.empty()) {
        g_snapshot_file = opt.cache_snapshot;
        g_snapshot_engine = &engine;
        const silicon::serve::snapshot::restore_result restored =
            engine.snapshot_restore(opt.cache_snapshot);
        using silicon::serve::snapshot::restore_outcome;
        switch (restored.outcome) {
            case restore_outcome::restored:
                obs::log_info("silicond.snapshot_restored",
                              {{"path", opt.cache_snapshot},
                               {"entries", restored.entries},
                               {"bytes", restored.bytes}});
                break;
            case restore_outcome::cold_missing:
                obs::log_info("silicond.snapshot_cold",
                              {{"path", opt.cache_snapshot},
                               {"reason", "missing"}});
                break;
            case restore_outcome::cold_corrupt:
                obs::log_warn("silicond.snapshot_cold",
                              {{"path", opt.cache_snapshot},
                               {"reason", restored.reason}});
                break;
        }
    }

    // Flight recorder: configured while still single-threaded (ring
    // capacity is fixed at a thread's first append).
    obs::flight_recorder& flight = obs::flight_recorder::instance();
    flight.configure(opt.flight_records);
    flight.set_enabled(opt.flight_records != 0);
    flight.set_deterministic(opt.flight_deterministic);
    g_flight_dump_path = opt.flight_dump;
    if (!opt.flight_dump.empty()) {
        flight.arm_dump(opt.flight_dump);
    }

    obs::log_info(
        "silicond.start",
        {{"version", SILICON_VERSION},
         {"threads",
          silicon::exec::resolve_parallelism(opt.threads)},
         {"batch", opt.batch},
         {"cache_capacity", opt.cache_capacity},
         {"cache_shards", opt.cache_shards},
         {"cache_snapshot", opt.cache_snapshot},
         {"snapshot_interval", opt.snapshot_interval},
         {"mode", opt.port >= 0 ? "tcp" : "stdio"},
         {"simd_target",
          silicon::simd::to_string(silicon::simd::active_target())},
         {"fast_math", opt.fast_math},
         {"port", opt.port},
         {"max_line_bytes", opt.max_line_bytes},
         {"deadline_ms", opt.deadline_ms},
         {"faults", faults::enabled()},
         {"trace", !opt.trace_path.empty()},
         {"metrics_interval", opt.metrics_interval},
         {"flight_records", opt.flight_records},
         {"flight_dump", opt.flight_dump}});

    metrics_dumper dumper{engine, opt.metrics_interval};
    // stdio has no event loop to carry the periodic tick, so it gets a
    // dedicated thread; TCP snapshots ride the loop's timerfd.
    snapshot_ticker ticker{opt.port < 0 ? opt.snapshot_interval : 0u};

    const int status =
        opt.port >= 0 ? run_tcp(engine, opt) : run_stdio(engine, opt);

    // Clean shutdown (EOF or SIGINT/SIGTERM): stop the periodic dumper
    // (which flushes a final exposition), write a final cache snapshot,
    // the flight dump and the trace, then the legacy JSON metrics dump.
    dumper.stop();
    ticker.stop();
    write_snapshot("shutdown");

    process_flight_dump_request();  // a SIGUSR1 racing shutdown still dumps
    if (!opt.flight_dump.empty()) {
        if (flight.write_jsonl(opt.flight_dump)) {
            const obs::flight_recorder::stats f = flight.snapshot();
            obs::log_info("silicond.flight_written",
                          {{"path", opt.flight_dump},
                           {"appended", f.appended},
                           {"dropped", f.dropped},
                           {"anomalies", f.anomalies}});
        } else {
            obs::log_error("silicond.flight_write_failed",
                           {{"path", opt.flight_dump}});
        }
    }

    if (!opt.trace_path.empty()) {
        obs::tracer::instance().disable();
        if (obs::tracer::instance().write_chrome_json(opt.trace_path)) {
            const obs::tracer::stats t = obs::tracer::instance().snapshot();
            obs::log_info("silicond.trace_written",
                          {{"path", opt.trace_path},
                           {"events", t.recorded},
                           {"dropped", t.dropped}});
        } else {
            obs::log_error("silicond.trace_write_failed",
                           {{"path", opt.trace_path}});
        }
    }

    if (opt.metrics) {
        silicon::serve::json::object dump;
        dump.set("endpoints", engine.metrics().to_json());
        const silicon::serve::memo_cache::stats c = engine.cache_stats();
        silicon::serve::json::object cache;
        cache.set("hits", static_cast<double>(c.hits));
        cache.set("misses", static_cast<double>(c.misses));
        cache.set("evictions", static_cast<double>(c.evictions));
        cache.set("entries", static_cast<double>(c.entries));
        dump.set("cache", silicon::serve::json::value{std::move(cache)});
        std::cerr << silicon::serve::json::dump(
                         silicon::serve::json::value{std::move(dump)})
                  << "\n";
    }

    obs::log_info("silicond.stop",
                  {{"signal", g_stop != 0}, {"status", status}});
    return status;
}
