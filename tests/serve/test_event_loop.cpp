// Event-loop transport tests (serve/event_loop + serve/conn): an
// in-process epoll reactor served from a background thread, driven by
// real TCP clients.  The central contract is byte-identity — every
// reply read off the socket must equal what `engine::handle_batch`
// returns for the same lines, at every parallelism — plus the
// transport-only behaviors the blocking PR 5 loop never had: 1000-way
// multiplexing, watermark backpressure, keep-alive HTTP mid-JSONL, and
// idle/write-stall deadlines.
//
// Lives in its own binary: it spins real server threads and watches
// process-global obs gauges, which must not race other serve tests.

#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/event_loop.hpp"
#include "serve/io.hpp"
#include "serve/limits.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace serve = silicon::serve;
namespace io = silicon::serve::io;
namespace obs = silicon::obs;

namespace {

// ---------------------------------------------------------------------------
// Harness: a live event loop on an ephemeral loopback port
// ---------------------------------------------------------------------------

int make_listener(std::uint16_t* port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0) << std::strerror(errno);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
    EXPECT_EQ(::listen(fd, 1024), 0) << std::strerror(errno);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    *port = ntohs(addr.sin_port);
    return fd;
}

/// Runs an event loop over a fresh engine on a background thread; the
/// destructor stops the loop and joins.  With `run_now` false the loop
/// runs only from `start()`: clients can connect and fill their sockets
/// first, so the loop's first wakeup finds them all ready.
struct loop_harness {
    explicit loop_harness(serve::engine_config engine_cfg = {},
                          serve::event_loop_config loop_cfg = {},
                          bool run_now = true)
        : eng{engine_cfg} {
        const int listener = make_listener(&port);
        loop = std::make_unique<serve::event_loop>(eng, listener,
                                                   std::move(loop_cfg));
        if (run_now) {
            start();
        }
    }
    ~loop_harness() {
        loop->stop();
        if (runner.joinable()) {
            runner.join();
        }
    }
    void start() {
        runner = std::thread{[this] { loop->run(); }};
    }

    serve::engine eng;
    std::uint16_t port = 0;
    std::unique_ptr<serve::event_loop> loop;
    std::thread runner;
};

int connect_client(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0) << std::strerror(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Every blocking read below is bounded: a hung transport fails the
    // test instead of hanging the suite.
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
}

void send_all(int fd, std::string_view data) {
    while (!data.empty()) {
        const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
        ASSERT_GT(n, 0) << std::strerror(errno);
        data.remove_prefix(static_cast<std::size_t>(n));
    }
}

/// Read until EOF (or timeout) and return everything.
std::string read_to_eof(int fd) {
    std::string out;
    char buf[16384];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            EXPECT_EQ(n, 0) << std::strerror(errno);
            return out;
        }
        out.append(buf, static_cast<std::size_t>(n));
    }
}

/// Read exactly `count` newline-terminated lines.
std::vector<std::string> read_lines(int fd, std::size_t count) {
    std::vector<std::string> lines;
    std::string buf;
    char chunk[16384];
    while (lines.size() < count) {
        const std::size_t nl = buf.find('\n');
        if (nl != std::string::npos) {
            lines.push_back(buf.substr(0, nl));
            buf.erase(0, nl + 1);
            continue;
        }
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
            ADD_FAILURE() << "connection ended after " << lines.size()
                          << " of " << count << " lines: "
                          << (n == 0 ? "EOF" : std::strerror(errno));
            return lines;
        }
        buf.append(chunk, static_cast<std::size_t>(n));
    }
    EXPECT_TRUE(buf.empty()) << "unexpected trailing bytes: " << buf;
    return lines;
}

std::vector<std::string> load_corpus() {
    std::ifstream in{std::string{SILICON_TEST_DATA_DIR} +
                     "/golden_requests.jsonl"};
    EXPECT_TRUE(in.is_open());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        lines.push_back(line);
    }
    EXPECT_FALSE(lines.empty());
    return lines;
}

/// A pipelining client's window: a kernel sweep, a partition_explore
/// grid, an mc_yield run and point lines, distinct per client and
/// round, plus a sweep every client sends (a twin across connections).
std::vector<std::string> mixed_window(std::size_t client, int round) {
    const std::size_t tag = client * 16 + static_cast<std::size_t>(round);
    const std::string k = std::to_string(1.0 + 1e-4 * static_cast<double>(tag));
    return {
        R"({"id":"s)" + std::to_string(tag) +
            R"(","op":"sweep","param":"lambda_um","from":0.35,"to":)" + k +
            R"(,"count":48,"target":{"op":"scenario2","y0":0.8}})",
        R"({"op":"partition_explore","splits":"1,2,4","area_from_mm2":100,)"
        R"("area_to_mm2":)" +
            std::to_string(800 + tag) + R"(,"count":16})",
        R"({"op":"mc_yield","dies":1500,"seed":)" + std::to_string(tag) + "}",
        R"({"op":"scenario1","lambda_um":)" + k + "}",
        R"({"op":"yield","model":"murphy","defects_per_cm2":)" + k + "}",
        R"({"op":"sweep","param":"die_area_cm2","from":0.1,"to":3,)"
        R"("count":40,"target":{"op":"yield","model":"murphy"}})",
    };
}

std::string wire_of(const std::vector<std::string>& lines) {
    std::string wire;
    for (const std::string& line : lines) {
        wire += line;
        wire += '\n';
    }
    return wire;
}

std::string replies_of(serve::engine& reference,
                       const std::vector<std::string>& lines) {
    std::string replies;
    for (const std::string& line : lines) {
        replies += reference.handle_line(line);
        replies += '\n';
    }
    return replies;
}

std::uint64_t counter_value(const char* name) {
    return obs::metrics_registry::global().get_counter(name).value();
}

/// Connection segments served beside another one in a wakeup batch
/// since start: segments minus batches.
std::uint64_t shared_segments() {
    return counter_value("silicond_wakeup_batch_segments_total") -
           counter_value("silicond_wakeup_batches_total");
}

obs::gauge& queue_gauge() {
    return obs::metrics_registry::global().get_gauge(
        "silicond_write_queue_bytes",
        "Response bytes buffered across all connections");
}

}  // namespace

// ---------------------------------------------------------------------------
// Golden bytes: the transport must not change a single response byte
// at any engine parallelism (the same contract the smoke tests enforce
// for the whole binary, here isolated to the loop itself).
// ---------------------------------------------------------------------------

TEST(EventLoop, GoldenBytesAtEveryParallelism) {
    const std::vector<std::string> corpus = load_corpus();
    serve::engine reference{serve::engine_config{.parallelism = 1}};
    const std::vector<std::string> want = reference.handle_batch(corpus);
    for (const unsigned parallelism : {1u, 4u, 0u}) {
        loop_harness h{serve::engine_config{.parallelism = parallelism}};
        const int fd = connect_client(h.port);
        std::string wire;
        for (const std::string& line : corpus) {
            wire += line;
            wire += '\n';
        }
        send_all(fd, wire);
        const std::vector<std::string> got = read_lines(fd, corpus.size());
        ASSERT_EQ(got.size(), want.size()) << "parallelism " << parallelism;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i], want[i])
                << "parallelism " << parallelism << " line " << i;
        }
        ::close(fd);
    }
}

TEST(EventLoop, TornLinesAcrossTcpSegments) {
    const std::vector<std::string> corpus = load_corpus();
    loop_harness h;
    serve::engine reference{serve::engine_config{.parallelism = 1}};
    const int fd = connect_client(h.port);
    std::string wire;
    for (std::size_t i = 0; i < 8 && i < corpus.size(); ++i) {
        wire += corpus[i];
        wire += '\n';
    }
    // Drip the stream in prime-sized fragments so line boundaries and
    // segment boundaries never align; TCP_NODELAY keeps each fragment
    // its own segment.
    for (std::size_t off = 0; off < wire.size(); off += 7) {
        send_all(fd, std::string_view{wire}.substr(off, 7));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const std::size_t sent = std::min<std::size_t>(8, corpus.size());
    const std::vector<std::string> got = read_lines(fd, sent);
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], reference.handle_line(corpus[i])) << "line " << i;
    }
    ::close(fd);
}

TEST(EventLoop, FinalLineWithoutNewlineAnsweredOnEof) {
    loop_harness h;
    const int fd = connect_client(h.port);
    const std::string line = R"({"op":"table3"})";
    send_all(fd, line);  // no '\n'
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
    const std::string body = read_to_eof(fd);
    serve::engine reference;
    EXPECT_EQ(body, reference.handle_line(line) + "\n");
    ::close(fd);
}

// ---------------------------------------------------------------------------
// Multiplexing
// ---------------------------------------------------------------------------

TEST(EventLoop, InterleavedConcurrentConnections) {
    const std::vector<std::string> corpus = load_corpus();
    loop_harness h;
    serve::engine reference{serve::engine_config{.parallelism = 1}};
    constexpr std::size_t kConns = 128;
    constexpr std::size_t kLinesPerConn = 5;

    std::vector<int> fds(kConns);
    std::vector<std::string> wires(kConns);
    std::vector<std::vector<std::string>> want(kConns);
    for (std::size_t c = 0; c < kConns; ++c) {
        fds[c] = connect_client(h.port);
        for (std::size_t l = 0; l < kLinesPerConn; ++l) {
            const std::string& line =
                corpus[(c * kLinesPerConn + l) % corpus.size()];
            wires[c] += line;
            wires[c] += '\n';
            want[c].push_back(reference.handle_line(line));
        }
    }
    // Round-robin partial writes: every connection's stream is torn
    // mid-line while 127 other connections make progress between its
    // fragments.
    std::vector<std::size_t> offsets(kConns, 0);
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (std::size_t c = 0; c < kConns; ++c) {
            if (offsets[c] >= wires[c].size()) {
                continue;
            }
            const std::size_t step =
                std::min<std::size_t>(13, wires[c].size() - offsets[c]);
            send_all(fds[c],
                     std::string_view{wires[c]}.substr(offsets[c], step));
            offsets[c] += step;
            progressed = true;
        }
    }
    for (std::size_t c = 0; c < kConns; ++c) {
        const std::vector<std::string> got =
            read_lines(fds[c], kLinesPerConn);
        ASSERT_EQ(got.size(), kLinesPerConn) << "conn " << c;
        for (std::size_t l = 0; l < kLinesPerConn; ++l) {
            EXPECT_EQ(got[l], want[c][l]) << "conn " << c << " line " << l;
        }
        ::close(fds[c]);
    }
}

TEST(EventLoop, ThousandConcurrentConnections) {
    loop_harness h;
    const std::string line = R"({"op":"table3"})";
    serve::engine reference;
    const std::string want = reference.handle_line(line) + "\n";
    constexpr std::size_t kConns = 1000;
    std::vector<int> fds;
    fds.reserve(kConns);
    for (std::size_t c = 0; c < kConns; ++c) {
        fds.push_back(connect_client(h.port));
    }
    // All 1000 connections are open simultaneously before any request
    // is sent — this is the multiplexing floor from the acceptance
    // criteria, impossible under the old thread-per-connection loop.
    for (const int fd : fds) {
        send_all(fd, line + "\n");
    }
    for (std::size_t c = 0; c < kConns; ++c) {
        const std::vector<std::string> got = read_lines(fds[c], 1);
        ASSERT_EQ(got.size(), 1u) << "conn " << c;
        EXPECT_EQ(got[0] + "\n", want) << "conn " << c;
        ::close(fds[c]);
    }
}

TEST(EventLoop, MaxConnsClosesExtraAccepts) {
    serve::event_loop_config cfg;
    cfg.max_conns = 4;
    loop_harness h{{}, cfg};
    std::vector<int> keep;
    for (int i = 0; i < 4; ++i) {
        keep.push_back(connect_client(h.port));
    }
    // Make sure all four are registered before the fifth arrives.
    send_all(keep[0], "{\"op\":\"table3\"}\n");
    (void)read_lines(keep[0], 1);

    const int extra = connect_client(h.port);
    char byte = 0;
    const ssize_t n = ::recv(extra, &byte, 1, 0);  // closed without a reply
    EXPECT_EQ(n, 0);
    ::close(extra);

    // The admitted connections still work.
    for (const int fd : keep) {
        send_all(fd, "{\"op\":\"table3\"}\n");
        EXPECT_EQ(read_lines(fd, 1).size(), 1u);
        ::close(fd);
    }
}

// ---------------------------------------------------------------------------
// Backpressure: a slow reader must pause its own stream, not kill the
// server, and replies must survive the pause byte-for-byte in order.
// ---------------------------------------------------------------------------

TEST(EventLoop, SlowReaderHitsWatermarkThenDrainsInOrder) {
    serve::event_loop_config cfg;
    cfg.conn.queue_high_bytes = 64u << 10;
    cfg.conn.queue_low_bytes = 8u << 10;
    loop_harness h{{}, cfg};
    serve::engine reference;
    const std::string line = R"({"op":"table3"})";
    const std::string want = reference.handle_line(line);
    // Enough response volume to overflow the socket buffers and the
    // 64KB queue watermark many times over.
    constexpr std::size_t kRequests = 20000;

    const int fd = connect_client(h.port);
    // Non-blocking sends: once the server pauses reading, the kernel
    // buffers fill and send() returns EAGAIN — this thread then waits
    // rather than deadlocking against the unread replies.
    const int flags = ::fcntl(fd, F_GETFL);
    ASSERT_EQ(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);

    std::string wire;
    wire.reserve(kRequests * (line.size() + 1));
    for (std::size_t i = 0; i < kRequests; ++i) {
        wire += line;
        wire += '\n';
    }
    std::size_t offset = 0;
    bool saw_queue_bytes = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (offset < wire.size()) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "stalled sending at " << offset;
        const ssize_t n = ::send(fd, wire.data() + offset,
                                 wire.size() - offset, MSG_NOSIGNAL);
        if (n > 0) {
            offset += static_cast<std::size_t>(n);
        } else {
            ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK)
                << std::strerror(errno);
            // The send-side stall is the backpressure observable from
            // out here; the gauge confirms the server is buffering
            // (not dropping) while we refuse to read.
            if (queue_gauge().value() > 0) {
                saw_queue_bytes = true;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (queue_gauge().value() >
            static_cast<std::int64_t>(cfg.conn.queue_high_bytes)) {
            saw_queue_bytes = true;
        }
    }
    // All requests are in flight and this side is not reading: the
    // replies must pile up in the server's write queue (the socket
    // buffers are far too small for 20k of them) until the watermark
    // pauses the stream.  Wait for the gauge to prove it.
    while (!saw_queue_bytes) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "write queue never buffered — watermark path untested";
        if (queue_gauge().value() > 0) {
            saw_queue_bytes = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Now drain.  Every one of the 20k replies must come back intact
    // and in order: the pause/resume cycle may not drop or reorder.
    ASSERT_EQ(::fcntl(fd, F_SETFL, flags), 0);
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
    const std::vector<std::string> got = read_lines(fd, kRequests);
    ASSERT_EQ(got.size(), kRequests);
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want) << "line " << i;
    }
    EXPECT_TRUE(saw_queue_bytes)
        << "write queue never buffered — watermark path untested";
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // clean close after flush
    ::close(fd);
}

// ---------------------------------------------------------------------------
// HTTP on the multiplexed port
// ---------------------------------------------------------------------------

TEST(EventLoop, KeepAliveMetricsScrapeMidJsonl) {
    loop_harness h;
    serve::engine reference;
    const std::string line = R"({"op":"table3"})";
    const std::string want = reference.handle_line(line);
    const int fd = connect_client(h.port);

    send_all(fd, line + "\nGET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" + line +
                     "\n");
    // Reply 1: the JSONL response that preceded the scrape.
    std::string buf;
    char chunk[16384];
    const auto read_more = [&] {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        ASSERT_GT(n, 0) << std::strerror(errno);
        buf.append(chunk, static_cast<std::size_t>(n));
    };
    while (buf.find('\n') == std::string::npos) {
        read_more();
    }
    EXPECT_EQ(buf.substr(0, buf.find('\n')), want);
    buf.erase(0, buf.find('\n') + 1);

    // Reply 2: a framed HTTP/1.1 keep-alive response.
    while (buf.find("\r\n\r\n") == std::string::npos) {
        read_more();
    }
    EXPECT_EQ(buf.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_NE(buf.find("Connection: keep-alive\r\n"), std::string::npos);
    const std::size_t cl_pos = buf.find("Content-Length: ");
    ASSERT_NE(cl_pos, std::string::npos);
    const std::size_t body_len = static_cast<std::size_t>(
        std::stoul(buf.substr(cl_pos + 16)));
    const std::size_t body_start = buf.find("\r\n\r\n") + 4;
    while (buf.size() < body_start + body_len + want.size() + 1) {
        read_more();
    }
    const std::string body = buf.substr(body_start, body_len);
    EXPECT_NE(body.find("silicond_http_requests_total"), std::string::npos);

    // Reply 3: JSONL service resumed on the same connection.
    buf.erase(0, body_start + body_len);
    EXPECT_EQ(buf.substr(0, buf.find('\n')), want);
    ::close(fd);
}

TEST(EventLoop, PipelinedHttpRequestsAllAnswered) {
    loop_harness h;
    const int fd = connect_client(h.port);
    send_all(fd,
             "GET /metrics HTTP/1.1\r\n\r\n"
             "GET /nope HTTP/1.1\r\n\r\n"
             "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    const std::string body = read_to_eof(fd);
    // Three framed responses; the final Connection: close ends the
    // stream so read_to_eof terminates.
    EXPECT_EQ(body.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_NE(body.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
    EXPECT_NE(body.find("Connection: close\r\n"), std::string::npos);
    ::close(fd);
}

TEST(EventLoop, HealthzIsCheapAndKeepAlive) {
    loop_harness h;
    serve::engine reference;
    const std::string line = R"({"op":"table3"})";
    const std::string want = reference.handle_line(line);
    const int fd = connect_client(h.port);
    // JSONL, then two pipelined health probes, then JSONL again — the
    // debug surface must multiplex with request traffic on one
    // connection, exactly like /metrics.
    send_all(fd, line +
                     "\nGET /healthz HTTP/1.1\r\n\r\n"
                     "GET /healthz HTTP/1.1\r\n\r\n" +
                     line + "\n");
    std::string buf;
    char chunk[16384];
    const auto read_more = [&] {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        ASSERT_GT(n, 0) << std::strerror(errno);
        buf.append(chunk, static_cast<std::size_t>(n));
    };
    // Reply 1: the JSONL answer.
    while (buf.find('\n') == std::string::npos) {
        read_more();
    }
    EXPECT_EQ(buf.substr(0, buf.find('\n')), want);
    buf.erase(0, buf.find('\n') + 1);
    // Replies 2+3: framed 200s with the literal body "ok\n".
    for (int probe = 0; probe < 2; ++probe) {
        while (buf.find("\r\n\r\n") == std::string::npos) {
            read_more();
        }
        EXPECT_EQ(buf.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << buf;
        EXPECT_NE(buf.find("Connection: keep-alive\r\n"), std::string::npos);
        const std::size_t body_start = buf.find("\r\n\r\n") + 4;
        while (buf.size() < body_start + 3) {
            read_more();
        }
        EXPECT_EQ(buf.substr(body_start, 3), "ok\n");
        buf.erase(0, body_start + 3);
    }
    // Reply 4: JSONL service resumed.
    while (buf.find('\n') == std::string::npos) {
        read_more();
    }
    EXPECT_EQ(buf.substr(0, buf.find('\n')), want);
    ::close(fd);
}

TEST(EventLoop, StatuszExposesEngineAndTransportState) {
    serve::engine_config engine_cfg;
    engine_cfg.limits.max_mc_dies = 12345;
    loop_harness h{engine_cfg};
    const int fd = connect_client(h.port);
    // Serve one line first so the snapshot has something to show.
    send_all(fd, "{\"op\":\"table3\"}\n");
    ASSERT_EQ(read_lines(fd, 1).size(), 1u);
    send_all(fd, "GET /statusz HTTP/1.1\r\nConnection: close\r\n\r\n");
    const std::string response = read_to_eof(fd);
    EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_NE(response.find("Content-Type: application/json"),
              std::string::npos);
    const std::size_t body_start = response.find("\r\n\r\n");
    ASSERT_NE(body_start, std::string::npos);

    const serve::json::value doc =
        serve::json::parse(response.substr(body_start + 4));
    ASSERT_TRUE(doc.is_object());
    const auto& status = doc.as_object();
    for (const char* section : {"config", "limits", "cache", "overload",
                                "flight", "transport"}) {
        const serve::json::value* v = status.find(section);
        ASSERT_NE(v, nullptr) << "missing /statusz section " << section;
        EXPECT_TRUE(v->is_object()) << section;
    }
    EXPECT_EQ(
        status.find("limits")->as_object().find("max_mc_dies")->as_number(),
        12345.0);
    const auto& transport = status.find("transport")->as_object();
    EXPECT_GE(transport.find("open_conns")->as_number(), 1.0);
    EXPECT_GE(transport.find("uptime_seconds")->as_number(), 0.0);
    const auto& flight = status.find("flight")->as_object();
    ASSERT_NE(flight.find("enabled"), nullptr);
    ASSERT_NE(flight.find("appended"), nullptr);
    ::close(fd);
}

TEST(EventLoop, FlightzDumpsRecordsForServedRequests) {
    loop_harness h;
    const int fd = connect_client(h.port);
    send_all(fd, "{\"op\":\"table3\",\"trace_id\":\"t-flightz\"}\n");
    ASSERT_EQ(read_lines(fd, 1).size(), 1u);
    send_all(fd, "GET /flightz HTTP/1.1\r\nConnection: close\r\n\r\n");
    const std::string response = read_to_eof(fd);
    EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_NE(response.find("Content-Type: application/x-ndjson"),
              std::string::npos);
    const std::size_t body_start = response.find("\r\n\r\n");
    ASSERT_NE(body_start, std::string::npos);
    const std::string body = response.substr(body_start + 4);
    // Every dump line is one well-formed record object; the request we
    // just served must be in there with its trace.
    ASSERT_FALSE(body.empty());
    std::size_t begin = 0;
    std::size_t records = 0;
    for (std::size_t nl = body.find('\n', begin); nl != std::string::npos;
         nl = body.find('\n', begin)) {
        const std::string record_line = body.substr(begin, nl - begin);
        begin = nl + 1;
        const serve::json::value record = serve::json::parse(record_line);
        ASSERT_TRUE(record.is_object()) << record_line;
        for (const char* key : {"seq", "endpoint", "trace_id", "code",
                                "cache_hit", "anomaly", "total_us"}) {
            ASSERT_NE(record.as_object().find(key), nullptr)
                << "record missing " << key << ": " << record_line;
        }
        ++records;
    }
    EXPECT_GT(records, 0u);
    EXPECT_NE(body.find("\"trace_id\":\"t-flightz\""), std::string::npos);
    ::close(fd);
}

TEST(EventLoop, LegacyBareScrapeStaysOneShot) {
    loop_harness h;
    const int fd = connect_client(h.port);
    send_all(fd, "GET /metrics\n");
    const std::string body = read_to_eof(fd);  // server closes: legacy mode
    EXPECT_EQ(body.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
    EXPECT_NE(body.find("silicond_flushes_total"), std::string::npos);
    ::close(fd);
}

TEST(EventLoop, MalformedHttpGets400AndClose) {
    loop_harness h;
    const int fd = connect_client(h.port);
    send_all(fd, "GET / HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n");
    const std::string body = read_to_eof(fd);
    EXPECT_EQ(body.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u);
    ::close(fd);
}

// ---------------------------------------------------------------------------
// Line budget on the epoll path
// ---------------------------------------------------------------------------

TEST(EventLoop, OversizedLineRejectedInOrderThenClosed) {
    loop_harness h{serve::engine_config{.limits = {.max_line_bytes = 64}}};
    serve::engine reference;
    const std::string ok_line = R"({"op":"table3"})";
    const int fd = connect_client(h.port);
    send_all(fd, ok_line + "\n" + std::string(500, 'x') + "\n" + ok_line +
                     "\n");
    const std::string body = read_to_eof(fd);
    // Reply 1 answers the good line; reply 2 is the too_large envelope
    // at the oversized line's stream position; the connection then
    // closes (framing is suspect), so the third line is never served.
    const std::size_t nl = body.find('\n');
    ASSERT_NE(nl, std::string::npos);
    EXPECT_EQ(body.substr(0, nl), reference.handle_line(ok_line));
    EXPECT_NE(body.find("too_large"), std::string::npos);
    EXPECT_NE(body.find("max_line_bytes"), std::string::npos);
    EXPECT_EQ(std::count(body.begin(), body.end(), '\n'), 2);
    ::close(fd);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(EventLoop, IdleConnectionTimedOut) {
    serve::event_loop_config cfg;
    cfg.idle_timeout_ms = 200;
    cfg.tick_ms = 50;
    loop_harness h{{}, cfg};
    const int fd = connect_client(h.port);
    char byte = 0;
    const auto start = std::chrono::steady_clock::now();
    const ssize_t n = ::recv(fd, &byte, 1, 0);  // blocks until server closes
    const auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(n, 0);
    EXPECT_LT(waited, std::chrono::seconds(10));
    EXPECT_GE(waited, std::chrono::milliseconds(150));
    ::close(fd);
}

TEST(EventLoop, ActiveConnectionOutlivesIdleTimeout) {
    serve::event_loop_config cfg;
    cfg.idle_timeout_ms = 300;
    cfg.tick_ms = 50;
    loop_harness h{{}, cfg};
    const int fd = connect_client(h.port);
    // Keep trickling requests for ~4 idle windows: activity must keep
    // resetting the deadline.
    for (int i = 0; i < 12; ++i) {
        send_all(fd, "{\"op\":\"table3\"}\n");
        ASSERT_EQ(read_lines(fd, 1).size(), 1u) << "round " << i;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ::close(fd);
}

TEST(EventLoop, StuckReaderKilledByWriteDeadline) {
    serve::event_loop_config cfg;
    cfg.write_timeout_ms = 400;
    cfg.tick_ms = 50;
    cfg.conn.queue_high_bytes = 16u << 10;
    cfg.conn.queue_low_bytes = 4u << 10;
    loop_harness h{{}, cfg};
    const int fd = connect_client(h.port);
    // Shrink our receive window so the server's writes stall quickly.
    const int tiny = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
    const int flags = ::fcntl(fd, F_GETFL);
    ASSERT_EQ(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);
    // Pump requests but never read replies: the write queue stalls and
    // the write deadline must reap the connection.
    const std::string wire(64 * 16, '\0');
    std::string requests;
    for (int i = 0; i < 4096; ++i) {
        requests += "{\"op\":\"table3\"}\n";
    }
    std::size_t offset = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    bool closed = false;
    while (!closed) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "write deadline never fired";
        if (offset < requests.size()) {
            const ssize_t n = ::send(fd, requests.data() + offset,
                                     requests.size() - offset, MSG_NOSIGNAL);
            if (n > 0) {
                offset += static_cast<std::size_t>(n);
            } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
                closed = true;  // RST from the server's close
            }
        }
        // A close with unread data arrives as POLLERR/POLLHUP (RST).
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, 50) > 0 &&
            (p.revents & (POLLERR | POLLHUP)) != 0) {
            closed = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::close(fd);
}

// ---------------------------------------------------------------------------
// Wakeup batches: the lines of every connection a wakeup finds ready are
// served as one engine batch, and each connection gets its own replies,
// in order, with the bytes a serial cache-off engine writes.
// ---------------------------------------------------------------------------

TEST(EventLoop, PipelinedClientsShareWakeupBatchesInOrder) {
    serve::engine reference{
        serve::engine_config{.parallelism = 1, .cache_capacity = 0}};
    constexpr std::size_t kClients = 4;
    constexpr int kRounds = 3;
    for (const unsigned parallelism : {1u, 4u, 0u}) {
        SCOPED_TRACE(parallelism);
        loop_harness h{serve::engine_config{.parallelism = parallelism}, {},
                       /*run_now=*/false};
        std::vector<int> fds;
        for (std::size_t c = 0; c < kClients; ++c) {
            fds.push_back(connect_client(h.port));
            send_all(fds[c], wire_of(mixed_window(c, 0)));
        }
        const std::uint64_t shared_before = shared_segments();
        h.start();
        for (int round = 0; round < kRounds; ++round) {
            if (round > 0) {
                for (std::size_t c = 0; c < kClients; ++c) {
                    send_all(fds[c], wire_of(mixed_window(c, round)));
                }
            }
            for (std::size_t c = 0; c < kClients; ++c) {
                const std::vector<std::string> window =
                    mixed_window(c, round);
                std::string got;
                for (const std::string& line :
                     read_lines(fds[c], window.size())) {
                    got += line + "\n";
                }
                EXPECT_EQ(got, replies_of(reference, window))
                    << "client " << c << " round " << round;
            }
            if (round == 0) {
                // Every first window was in its socket before the loop
                // ran: one wakeup, one batch of all four segments.
                EXPECT_GE(shared_segments() - shared_before, kClients - 1);
            }
        }
        for (const int fd : fds) {
            ::close(fd);
        }
    }
}

TEST(EventLoop, EofOversizeAndHttpInTheWakeupOfDeferredLines) {
    // Four connections ready in one wakeup.  Three of them flush at
    // once, alone: one reaches EOF, one sends an oversized line, one an
    // HTTP request.  The lines the HTTP one frames after its response,
    // and the fourth connection's lines, wait for the wakeup batch.
    constexpr std::size_t max_line = 4096;
    loop_harness h{serve::engine_config{.parallelism = 4,
                                        .limits = {.max_line_bytes = max_line}},
                   {}, /*run_now=*/false};
    serve::engine reference{
        serve::engine_config{.parallelism = 1, .cache_capacity = 0}};

    // EOF: exactly one full read chunk (16 KiB; blank lines pad it), so
    // the read that follows it in the same pass sees the EOF.
    const std::vector<std::string> eof_lines = mixed_window(0, 0);
    std::string eof_wire = wire_of(eof_lines);
    ASSERT_LT(eof_wire.size(), 16384u);
    eof_wire.append(16384 - eof_wire.size(), '\n');
    const int eof_fd = connect_client(h.port);
    send_all(eof_fd, eof_wire);
    ASSERT_EQ(::shutdown(eof_fd, SHUT_WR), 0);

    const std::vector<std::string> oversize_lines = mixed_window(1, 0);
    const int oversize_fd = connect_client(h.port);
    send_all(oversize_fd, wire_of(oversize_lines) + std::string(5000, 'x') +
                              "\n" + wire_of(mixed_window(1, 1)));

    const std::vector<std::string> http_before = mixed_window(2, 0);
    const std::vector<std::string> http_after = mixed_window(2, 1);
    const int http_fd = connect_client(h.port);
    send_all(http_fd, wire_of(http_before) +
                          "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" +
                          wire_of(http_after));
    ASSERT_EQ(::shutdown(http_fd, SHUT_WR), 0);

    const std::vector<std::string> plain_lines = mixed_window(3, 0);
    const int plain_fd = connect_client(h.port);
    send_all(plain_fd, wire_of(plain_lines));
    ASSERT_EQ(::shutdown(plain_fd, SHUT_WR), 0);

    const std::uint64_t shared_before = shared_segments();
    h.start();

    EXPECT_EQ(read_to_eof(eof_fd), replies_of(reference, eof_lines));

    std::string too_large;
    serve::append_line_too_large(max_line, too_large);
    EXPECT_EQ(read_to_eof(oversize_fd),
              replies_of(reference, oversize_lines) + too_large + "\n");

    const std::string http_body = read_to_eof(http_fd);
    const std::string before = replies_of(reference, http_before);
    const std::string after = replies_of(reference, http_after);
    ASSERT_GT(http_body.size(), before.size() + after.size());
    EXPECT_EQ(http_body.substr(0, before.size()), before);
    EXPECT_EQ(http_body.substr(http_body.size() - after.size()), after);
    const std::string response = http_body.substr(
        before.size(), http_body.size() - before.size() - after.size());
    EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
    EXPECT_TRUE(response.ends_with("\r\n\r\nok\n")) << response;

    EXPECT_EQ(read_to_eof(plain_fd), replies_of(reference, plain_lines));
    // The HTTP connection's later lines and the plain connection's
    // shared a batch.
    EXPECT_GE(shared_segments() - shared_before, 1u);
    for (const int fd : {eof_fd, oversize_fd, http_fd, plain_fd}) {
        ::close(fd);
    }
}

TEST(EventLoop, ConnectionResetWhileItsLinesArePending) {
    // A client fills one read chunk with lines and resets the
    // connection: the loop frames its lines, then the next read of the
    // same pass fails.  Its segment is dropped with it; the other
    // client's lines in that wakeup are served, and the loop goes on.
    loop_harness h{serve::engine_config{.parallelism = 4}, {},
                   /*run_now=*/false};
    serve::engine reference{
        serve::engine_config{.parallelism = 1, .cache_capacity = 0}};
    std::string reset_wire = wire_of(mixed_window(0, 0));
    reset_wire.append(16384 - reset_wire.size(), '\n');
    const int reset_fd = connect_client(h.port);
    send_all(reset_fd, reset_wire);
    const linger hard{.l_onoff = 1, .l_linger = 0};
    ASSERT_EQ(::setsockopt(reset_fd, SOL_SOCKET, SO_LINGER, &hard,
                           sizeof hard),
              0);
    ::close(reset_fd);  // RST

    const std::vector<std::string> lines = mixed_window(1, 0);
    const int fd = connect_client(h.port);
    send_all(fd, wire_of(lines));
    h.start();
    std::string got;
    for (const std::string& line : read_lines(fd, lines.size())) {
        got += line + "\n";
    }
    EXPECT_EQ(got, replies_of(reference, lines));

    // Served again in a later wakeup, and a new client is served too.
    const std::vector<std::string> more = mixed_window(1, 1);
    send_all(fd, wire_of(more));
    const int late_fd = connect_client(h.port);
    send_all(late_fd, wire_of(mixed_window(2, 0)));
    got.clear();
    for (const std::string& line : read_lines(fd, more.size())) {
        got += line + "\n";
    }
    EXPECT_EQ(got, replies_of(reference, more));
    ASSERT_EQ(::shutdown(late_fd, SHUT_WR), 0);
    EXPECT_EQ(read_to_eof(late_fd),
              replies_of(reference, mixed_window(2, 0)));
    ::close(fd);
    ::close(late_fd);
}

// ---------------------------------------------------------------------------
// Half close: shutdown(SHUT_WR) mid-stream must still deliver every
// pending reply before the server closes its side.
// ---------------------------------------------------------------------------

TEST(EventLoop, HalfCloseStillDeliversAllReplies) {
    const std::vector<std::string> corpus = load_corpus();
    loop_harness h;
    serve::engine reference{serve::engine_config{.parallelism = 1}};
    const int fd = connect_client(h.port);
    std::string wire;
    for (const std::string& line : corpus) {
        wire += line;
        wire += '\n';
    }
    send_all(fd, wire);
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);  // EOF races the batch
    const std::string body = read_to_eof(fd);
    const std::vector<std::string> want = reference.handle_batch(corpus);
    std::string expected;
    for (const std::string& reply : want) {
        expected += reply;
        expected += '\n';
    }
    EXPECT_EQ(body, expected);
    ::close(fd);
}

// ---------------------------------------------------------------------------
// io::write_some_fd / write_all_fd EAGAIN regression (satellite #4):
// a socket whose send buffer is full must yield a clean would_block —
// never a busy loop, never lost bytes — and write_all_fd must park and
// finish once the peer drains.
// ---------------------------------------------------------------------------

TEST(IoWrite, WriteSomeReportsWouldBlockOnFullBuffer) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const int tiny = 4096;
    ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
    ASSERT_EQ(::fcntl(sv[0], F_SETFL, O_NONBLOCK), 0);

    const std::string big(1u << 20, 'x');
    std::size_t total = 0;
    io::write_result r{};
    for (int pass = 0; pass < 1024; ++pass) {
        r = io::write_some_fd(
            sv[0], std::string_view{big}.substr(total), true);
        ASSERT_FALSE(r.dead);
        total += r.written;
        if (r.would_block) {
            break;
        }
    }
    EXPECT_TRUE(r.would_block);
    EXPECT_LT(total, big.size());
    EXPECT_GT(total, 0u);

    // Drain the peer: exactly the accepted prefix arrives, unmangled.
    std::string got;
    char buf[8192];
    while (got.size() < total) {
        const ssize_t n = ::recv(sv[1], buf, sizeof(buf), 0);
        ASSERT_GT(n, 0);
        got.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(got, big.substr(0, total));
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(IoWrite, WriteAllParksOnEagainAndFinishes) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const int tiny = 4096;
    ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
    ASSERT_EQ(::fcntl(sv[0], F_SETFL, O_NONBLOCK), 0);

    const std::string big(1u << 20, 'y');
    std::string got;
    // Reader drains slowly on another thread; write_all_fd must poll
    // through the repeated EAGAINs (the bug class this PR fixes: the
    // old loop treated EAGAIN as a fatal write error on nonblocking
    // fds) and deliver every byte.
    std::thread reader{[&] {
        char buf[4096];
        while (got.size() < big.size()) {
            const ssize_t n = ::recv(sv[1], buf, sizeof(buf), 0);
            if (n <= 0) {
                break;
            }
            got.append(buf, static_cast<std::size_t>(n));
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }};
    EXPECT_TRUE(io::write_all_fd(sv[0], big, true));
    reader.join();
    EXPECT_EQ(got, big);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(IoWrite, DeadPeerReportsDeadNotWouldBlock) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ::close(sv[1]);
    const io::write_result r = io::write_some_fd(sv[0], "hello", true);
    EXPECT_TRUE(r.dead);
    EXPECT_FALSE(r.would_block);
    EXPECT_EQ(r.written, 0u);
    ::close(sv[0]);
}
