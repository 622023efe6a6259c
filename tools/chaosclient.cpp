// chaosclient — adversarial smoke driver for silicond's TCP transport.
//
// Spawns a silicond child on an ephemeral port (--port 0, parsing the
// chosen port out of the structured `silicond.listening` log line on
// the child's stderr), then plays a battery of hostile-client
// scenarios against it and asserts the one protocol invariant that
// matters under fire (DESIGN.md §11):
//
//     every accepted line gets exactly one well-formed JSON reply,
//     in order — or the connection closes cleanly.  Never a hang,
//     never a torn line, never a dead server.
//
// Scenarios:
//   1. valid burst        — 100 requests, 100 ok replies, ids in order
//   2. malformed garbage  — junk lines still get one error envelope each
//   3. oversized line     — answered `too_large`, then connection close
//   4. slow loris         — a request dribbled one byte at a time is
//                           still answered (framing is stateful)
//   5. over-budget work   — sweep/mc/partition_explore beyond
//                           --max-sweep-points / --max-mc-dies answered
//                           `too_large` (explore grids charge
//                           count x splits cells against the budget)
//   6. zero deadline      — deadline_ms:0 answered `deadline_exceeded`
//                           on mc_yield, chiplet and partition_explore
//   7. half line + close  — a torn request aborts that connection only;
//                           the server must answer the next connection
//   8. metrics scrape     — `GET /metrics` gets an HTTP 200 exposition
//
// A second battery runs against a fresh server with `--max-conns 32`
// and the fault switchboard armed on the epoll transport sites
// (`eintr@silicond.read`, `short_write@silicond.write`), so every
// read/write below takes injected faults while the invariant holds:
//   9.  valid burst under faults — same 100-in-order contract as #1
//   10. connection flood   — accepts beyond --max-conns are closed
//                            immediately; admitted ones still serve
//   11. half-close mid-batch — shutdown(SHUT_WR) right behind a batch;
//                            every reply still arrives, then clean EOF
//   12. chiplet burst under faults — alternating chiplet and
//                            partition_explore replies (the largest the
//                            server emits) through the short-write cap
//   13. abrupt close, pending write — RST while replies are queued
//                            (short writes keep the queue non-empty);
//                            the server must survive to the next conn
//
// A fourth battery exercises cache-snapshot persistence end to end:
//   14. SIGUSR2 snapshot trigger — a warmed server takes the signal,
//                            the snapshot file appears, and the write
//                            surfaces on /statusz and /metrics
//   15. kill mid-snapshot    — SIGKILL during a (fault-slowed) snapshot
//                            write; the replacement server on the same
//                            path boots from the intact previous image
//                            and answers the corpus byte-identically
//
// Replies are validated with the real serve JSON parser (an invalid
// byte stream fails the run, not just a string compare).  Exit code 0
// = every scenario held; anything else prints the first violation.
// Run under ASan in CI to double as a leak/UB probe of the transport.
//
// Usage: chaosclient /path/to/silicond [extra silicond args...]

#include "serve/json.hpp"
#include "silicond_child.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

namespace json = silicon::serve::json;

constexpr int kReplyTimeoutMs = 30000;  // generous: CI + ASan are slow

int g_failures = 0;

void fail(const std::string& scenario, const std::string& what) {
    std::cerr << "FAIL [" << scenario << "] " << what << "\n";
    ++g_failures;
}

using silicond_child::await_port;
using silicond_child::connect_to;
using silicond_child::server;
using silicond_child::spawn_silicond;

/// Stop a child, counting a server that ignored SIGTERM as a failure.
void stop_child(server& s) {
    if (!silicond_child::stop_silicond(s)) {
        ++g_failures;
    }
}

// ---------------------------------------------------------------------------
// Client-side socket helpers
// ---------------------------------------------------------------------------

bool send_bytes(int fd, std::string_view data) {
    const char* p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
        const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
        if (n > 0) {
            p += n;
            left -= static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        return false;
    }
    return true;
}

struct reply_stream {
    std::vector<std::string> lines;
    bool closed = false;
    std::string partial;  ///< trailing bytes without a newline
};

/// Read reply lines until `expected` lines arrived, the peer closed,
/// or the timeout expired.
reply_stream read_replies(int fd, std::size_t expected,
                          int timeout_ms = kReplyTimeoutMs) {
    reply_stream out;
    std::string buffer;
    char chunk[4096];
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds{timeout_ms};
    while (out.lines.size() < expected) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
            break;
        }
        const int wait = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now)
                .count());
        pollfd p{fd, POLLIN, 0};
        const int ready = ::poll(&p, 1, wait);
        if (ready <= 0) {
            continue;
        }
        const ssize_t got = ::read(fd, chunk, sizeof chunk);
        if (got == 0) {
            out.closed = true;
            break;
        }
        if (got < 0) {
            if (errno == EINTR) {
                continue;
            }
            out.closed = true;
            break;
        }
        buffer.append(chunk, static_cast<std::size_t>(got));
        std::size_t begin = 0;
        for (std::size_t nl = buffer.find('\n', begin);
             nl != std::string::npos; nl = buffer.find('\n', begin)) {
            out.lines.emplace_back(buffer.substr(begin, nl - begin));
            begin = nl + 1;
        }
        buffer.erase(0, begin);
    }
    out.partial = buffer;
    return out;
}

/// Parse one reply line with the real serve JSON parser and check the
/// envelope shape.  Returns the error code ("" for ok replies,
/// "<invalid>" when the line is not a valid envelope at all).
std::string envelope_code(const std::string& scenario,
                          const std::string& line) {
    try {
        json::value v = json::parse(line);
        if (!v.is_object()) {
            fail(scenario, "reply is not a JSON object: " + line);
            return "<invalid>";
        }
        const json::value* ok = v.as_object().find("ok");
        if (ok == nullptr || !ok->is_bool()) {
            fail(scenario, "reply lacks boolean 'ok': " + line);
            return "<invalid>";
        }
        if (ok->as_bool()) {
            return "";
        }
        const json::value* error = v.as_object().find("error");
        if (error == nullptr || !error->is_object()) {
            fail(scenario, "error reply lacks 'error' object: " + line);
            return "<invalid>";
        }
        const json::value* code = error->as_object().find("code");
        if (code == nullptr || !code->is_string()) {
            fail(scenario, "error reply lacks 'error.code': " + line);
            return "<invalid>";
        }
        return std::string{code->as_string()};
    } catch (const std::exception& e) {
        fail(scenario,
             std::string{"reply is not valid JSON ("} + e.what() +
                 "): " + line);
        return "<invalid>";
    }
}

/// Expect exactly `count` replies on `fd`; returns their error codes.
std::vector<std::string> expect_replies(const std::string& scenario, int fd,
                                        std::size_t count) {
    const reply_stream replies = read_replies(fd, count);
    std::vector<std::string> codes;
    if (replies.lines.size() != count) {
        fail(scenario, "expected " + std::to_string(count) + " replies, got " +
                           std::to_string(replies.lines.size()) +
                           (replies.closed ? " (connection closed)" : ""));
        return codes;
    }
    if (!replies.partial.empty()) {
        fail(scenario, "torn reply line: " + replies.partial);
    }
    codes.reserve(count);
    for (const std::string& line : replies.lines) {
        codes.push_back(envelope_code(scenario, line));
    }
    return codes;
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

void scenario_valid_burst(int port) {
    const std::string name = "valid burst";
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(name, "connect failed");
        return;
    }
    constexpr int kCount = 100;
    std::string payload;
    for (int i = 0; i < kCount; ++i) {
        payload += "{\"op\":\"scenario1\",\"lambda_um\":0.5,\"id\":" +
                   std::to_string(i) + "}\n";
    }
    if (!send_bytes(fd, payload)) {
        fail(name, "send failed");
        ::close(fd);
        return;
    }
    const reply_stream replies = read_replies(fd, kCount);
    if (replies.lines.size() != kCount) {
        fail(name, "expected 100 replies, got " +
                       std::to_string(replies.lines.size()));
    }
    for (std::size_t i = 0; i < replies.lines.size(); ++i) {
        if (!envelope_code(name, replies.lines[i]).empty()) {
            fail(name, "reply " + std::to_string(i) + " not ok: " +
                           replies.lines[i]);
            break;
        }
        const std::string id = "\"id\":" + std::to_string(i);
        if (replies.lines[i].find(id) == std::string::npos) {
            fail(name, "reply " + std::to_string(i) +
                           " out of order: " + replies.lines[i]);
            break;
        }
    }
    ::close(fd);
}

void scenario_malformed(int port) {
    const std::string name = "malformed garbage";
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(name, "connect failed");
        return;
    }
    const std::vector<std::string> garbage{
        "not json at all",
        "{\"op\":",
        "[]",
        "{\"op\":\"no_such_op\"}",
        "{\"op\":\"scenario1\",\"lambda_um\":\"NaN\"}",
        "\x01\x02\x03",
    };
    std::string payload;
    for (const std::string& g : garbage) {
        payload += g;
        payload += '\n';
    }
    if (!send_bytes(fd, payload)) {
        fail(name, "send failed");
        ::close(fd);
        return;
    }
    for (const std::string& code :
         expect_replies(name, fd, garbage.size())) {
        if (code.empty() || code == "<invalid>") {
            fail(name, "garbage line answered ok or with a bad envelope");
            break;
        }
    }
    ::close(fd);
}

void scenario_oversized(int port, std::size_t max_line_bytes) {
    const std::string name = "oversized line";
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(name, "connect failed");
        return;
    }
    // One in-budget request first: its reply must come back *before*
    // the rejection, proving order is preserved around the oversize.
    std::string payload = "{\"op\":\"scenario1\",\"id\":\"pre\"}\n";
    payload += std::string(max_line_bytes * 2, 'x');
    payload += '\n';
    if (!send_bytes(fd, payload)) {
        fail(name, "send failed");
        ::close(fd);
        return;
    }
    const reply_stream replies = read_replies(fd, 2);
    if (replies.lines.size() != 2) {
        fail(name, "expected 2 replies, got " +
                       std::to_string(replies.lines.size()));
        ::close(fd);
        return;
    }
    if (replies.lines[0].find("\"id\":\"pre\"") == std::string::npos ||
        !envelope_code(name, replies.lines[0]).empty()) {
        fail(name, "in-budget request not answered first: " +
                       replies.lines[0]);
    }
    if (envelope_code(name, replies.lines[1]) != "too_large") {
        fail(name, "oversized line not answered too_large: " +
                       replies.lines[1]);
    }
    // The server must then drop the connection (framing is suspect).
    const reply_stream rest = read_replies(fd, 1, 5000);
    if (!rest.closed || !rest.lines.empty()) {
        fail(name, "connection not closed after oversized line");
    }
    ::close(fd);
}

void scenario_slow_loris(int port) {
    const std::string name = "slow loris";
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(name, "connect failed");
        return;
    }
    const std::string request =
        "{\"op\":\"scenario1\",\"lambda_um\":0.5,\"id\":\"drip\"}\n";
    for (const char byte : request) {
        if (!send_bytes(fd, {&byte, 1})) {
            fail(name, "send failed mid-drip");
            ::close(fd);
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{2});
    }
    const std::vector<std::string> codes = expect_replies(name, fd, 1);
    if (codes.size() == 1 && !codes[0].empty()) {
        fail(name, "dripped request not answered ok (code '" + codes[0] +
                       "')");
    }
    ::close(fd);
}

void scenario_over_budget(int port) {
    const std::string name = "over-budget work";
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(name, "connect failed");
        return;
    }
    // 3 splits x 30 grid points = 90 cells, past --max-sweep-points 64.
    const std::string payload =
        "{\"op\":\"sweep\",\"param\":\"lambda_um\",\"from\":0.1,\"to\":1.0,"
        "\"count\":1000,\"target\":{\"op\":\"scenario1\"},\"id\":\"sw\"}\n"
        "{\"op\":\"mc_yield\",\"dies\":100000000,\"seed\":1,\"id\":\"mc\"}\n"
        "{\"op\":\"partition_explore\",\"splits\":\"1,2,4\",\"count\":30,"
        "\"id\":\"pe\"}\n";
    if (!send_bytes(fd, payload)) {
        fail(name, "send failed");
        ::close(fd);
        return;
    }
    for (const std::string& code : expect_replies(name, fd, 3)) {
        if (code != "too_large") {
            fail(name, "over-budget request answered '" + code +
                           "', want too_large");
        }
    }
    ::close(fd);
}

void scenario_zero_deadline(int port) {
    const std::string name = "zero deadline";
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(name, "connect failed");
        return;
    }
    const std::string payload =
        "{\"op\":\"mc_yield\",\"dies\":1000,\"seed\":7,\"deadline_ms\":0,"
        "\"id\":\"dl\"}\n"
        "{\"op\":\"chiplet\",\"deadline_ms\":0,\"id\":\"cd\"}\n"
        "{\"op\":\"partition_explore\",\"splits\":\"1,2\",\"count\":4,"
        "\"deadline_ms\":0,\"id\":\"pd\"}\n";
    if (!send_bytes(fd, payload)) {
        fail(name, "send failed");
        ::close(fd);
        return;
    }
    for (const std::string& code : expect_replies(name, fd, 3)) {
        if (code != "deadline_exceeded") {
            fail(name, "deadline_ms:0 answered '" + code +
                           "', want deadline_exceeded");
        }
    }
    ::close(fd);
}

void scenario_half_line_close(int port) {
    const std::string name = "half line + close";
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(name, "connect failed");
        return;
    }
    // A torn line at EOF is still a (complete-as-far-as-we-know) line:
    // the server answers its parse error before closing.
    send_bytes(fd, "{\"op\":\"scena");
    ::shutdown(fd, SHUT_WR);
    const reply_stream replies = read_replies(fd, 1, 10000);
    if (replies.lines.size() == 1) {
        const std::string code = envelope_code(name, replies.lines[0]);
        if (code.empty() || code == "<invalid>") {
            fail(name, "torn line answered ok or malformed: " +
                           replies.lines[0]);
        }
    } else if (!replies.closed) {
        fail(name, "torn line neither answered nor closed");
    }
    ::close(fd);

    // Whatever happened to that connection, the server must survive it.
    const int fd2 = connect_to(port);
    if (fd2 < 0) {
        fail(name, "server dead after torn connection");
        return;
    }
    if (!send_bytes(fd2, "{\"op\":\"scenario1\",\"id\":\"alive\"}\n")) {
        fail(name, "send failed after torn connection");
        ::close(fd2);
        return;
    }
    const std::vector<std::string> codes = expect_replies(name, fd2, 1);
    if (codes.size() == 1 && !codes[0].empty()) {
        fail(name, "server unhealthy after torn connection");
    }
    ::close(fd2);
}

void scenario_metrics_scrape(int port) {
    const std::string name = "metrics scrape";
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(name, "connect failed");
        return;
    }
    if (!send_bytes(fd, "GET /metrics HTTP/1.0\r\n\r\n")) {
        fail(name, "send failed");
        ::close(fd);
        return;
    }
    // Read until close; the response must be an HTTP 200 carrying the
    // rejection counters this run has been generating.
    std::string body;
    char chunk[4096];
    for (;;) {
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, kReplyTimeoutMs) <= 0) {
            break;
        }
        const ssize_t got = ::read(fd, chunk, sizeof chunk);
        if (got <= 0) {
            break;
        }
        body.append(chunk, static_cast<std::size_t>(got));
    }
    // The multiplexed transport answers HTTP/1.1 (with Connection:
    // close for a 1.0 client); only the status matters here.
    if (body.rfind("HTTP/1.", 0) != 0 ||
        body.find(" 200 OK") == std::string::npos ||
        body.find(" 200 OK") > 10) {
        fail(name, "scrape did not return HTTP 200");
    }
    if (body.find("silicon_serve_rejected_total") == std::string::npos) {
        fail(name, "exposition lacks silicon_serve_rejected_total");
    }
    ::close(fd);
}

// ---------------------------------------------------------------------------
// Fault-armed battery (epoll transport under the switchboard)
// ---------------------------------------------------------------------------

void scenario_connection_flood(int port, std::size_t max_conns) {
    const std::string name = "connection flood";
    // Let the loop reap connections closed by earlier scenarios; a
    // straggler would otherwise occupy a slot and skew the count.
    std::this_thread::sleep_for(std::chrono::milliseconds{200});
    // Open well past the accept limit while holding every fd: the
    // event loop must close the surplus accepts immediately (no reply,
    // no hang) and keep serving the admitted ones.
    const std::size_t total = max_conns + 16;
    std::vector<int> fds;
    fds.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        const int fd = connect_to(port);
        if (fd < 0) {
            fail(name, "connect " + std::to_string(i) + " failed");
            break;
        }
        fds.push_back(fd);
    }
    // Give the loop a beat to accept (and shed) the whole backlog.
    std::this_thread::sleep_for(std::chrono::milliseconds{200});
    std::size_t dropped = 0;
    std::vector<int> admitted;
    for (const int fd : fds) {
        pollfd p{fd, POLLIN, 0};
        char byte = 0;
        if (::poll(&p, 1, 0) > 0 &&
            ::recv(fd, &byte, 1, MSG_DONTWAIT) == 0) {
            ++dropped;
            ::close(fd);
        } else {
            admitted.push_back(fd);
        }
    }
    // At least the surplus must be shed; a couple extra are legal if a
    // prior scenario's close raced the flood into the same epoll batch.
    if (dropped < total - max_conns || dropped > total - max_conns + 2) {
        fail(name, "expected ~" + std::to_string(total - max_conns) +
                       " shed accepts, saw " + std::to_string(dropped));
    }
    // Every admitted connection still gets real service.
    for (std::size_t i = 0; i < admitted.size(); ++i) {
        if (!send_bytes(admitted[i],
                        "{\"op\":\"scenario1\",\"id\":\"flood\"}\n")) {
            fail(name, "send failed on admitted conn " + std::to_string(i));
            break;
        }
    }
    for (std::size_t i = 0; i < admitted.size(); ++i) {
        const std::vector<std::string> codes =
            expect_replies(name, admitted[i], 1);
        if (codes.size() == 1 && !codes[0].empty()) {
            fail(name, "admitted conn " + std::to_string(i) +
                           " answered '" + codes[0] + "'");
            break;
        }
    }
    for (const int fd : admitted) {
        ::close(fd);
    }
}

void scenario_half_close_mid_batch(int port) {
    const std::string name = "half-close mid-batch";
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(name, "connect failed");
        return;
    }
    constexpr int kCount = 50;
    std::string payload;
    for (int i = 0; i < kCount; ++i) {
        payload += "{\"op\":\"scenario1\",\"lambda_um\":0.5,\"id\":" +
                   std::to_string(i) + "}\n";
    }
    if (!send_bytes(fd, payload)) {
        fail(name, "send failed");
        ::close(fd);
        return;
    }
    // EOF lands while the batch is still being evaluated: the server
    // must flush all 50 replies in order and only then close.
    ::shutdown(fd, SHUT_WR);
    const reply_stream replies = read_replies(fd, kCount);
    if (replies.lines.size() != kCount) {
        fail(name, "expected 50 replies after half-close, got " +
                       std::to_string(replies.lines.size()));
        ::close(fd);
        return;
    }
    for (std::size_t i = 0; i < replies.lines.size(); ++i) {
        if (!envelope_code(name, replies.lines[i]).empty() ||
            replies.lines[i].find("\"id\":" + std::to_string(i)) ==
                std::string::npos) {
            fail(name, "reply " + std::to_string(i) +
                           " wrong after half-close: " + replies.lines[i]);
            break;
        }
    }
    const reply_stream rest = read_replies(fd, 1, 10000);
    if (!rest.closed || !rest.lines.empty()) {
        fail(name, "connection not closed after half-close batch");
    }
    ::close(fd);
}

void scenario_chiplet_burst_under_faults(int port) {
    const std::string name = "chiplet burst under faults";
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(name, "connect failed");
        return;
    }
    // partition_explore replies are the largest the server emits (grid
    // rows per split), so the armed short-write cap forces dozens of
    // resumption passes per reply while order must still hold.
    constexpr int kCount = 20;
    std::string payload;
    for (int i = 0; i < kCount; ++i) {
        if (i % 2 == 0) {
            payload += "{\"op\":\"chiplet\",\"chiplets\":4,\"id\":" +
                       std::to_string(i) + "}\n";
        } else {
            payload += "{\"op\":\"partition_explore\",\"splits\":\"1,2,4\","
                       "\"count\":9,\"id\":" +
                       std::to_string(i) + "}\n";
        }
    }
    if (!send_bytes(fd, payload)) {
        fail(name, "send failed");
        ::close(fd);
        return;
    }
    const reply_stream replies = read_replies(fd, kCount);
    if (replies.lines.size() != kCount) {
        fail(name, "expected 20 replies, got " +
                       std::to_string(replies.lines.size()));
        ::close(fd);
        return;
    }
    for (std::size_t i = 0; i < replies.lines.size(); ++i) {
        if (!envelope_code(name, replies.lines[i]).empty() ||
            replies.lines[i].find("\"id\":" + std::to_string(i)) ==
                std::string::npos) {
            fail(name, "reply " + std::to_string(i) + " wrong: " +
                           replies.lines[i]);
            break;
        }
    }
    ::close(fd);
}

void scenario_abrupt_close_pending_write(int port) {
    const std::string name = "abrupt close, pending write";
    // The armed short_write cap guarantees replies are still queued in
    // the event loop when the RST arrives (EPOLLHUP/ECONNRESET with a
    // non-empty write queue — the nastiest teardown ordering).
    for (int round = 0; round < 4; ++round) {
        const int fd = connect_to(port);
        if (fd < 0) {
            fail(name, "connect failed on round " + std::to_string(round));
            return;
        }
        std::string payload;
        for (int i = 0; i < 20; ++i) {
            payload += "{\"op\":\"scenario1\",\"id\":" + std::to_string(i) +
                       "}\n";
        }
        send_bytes(fd, payload);
        const linger hard{1, 0};  // close() sends RST, not FIN
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
        ::close(fd);
    }
    // The server must have shrugged all four off.
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(name, "server dead after aborted connections");
        return;
    }
    if (!send_bytes(fd, "{\"op\":\"scenario1\",\"id\":\"alive\"}\n")) {
        fail(name, "send failed after aborted connections");
        ::close(fd);
        return;
    }
    const std::vector<std::string> codes = expect_replies(name, fd, 1);
    if (codes.size() == 1 && !codes[0].empty()) {
        fail(name, "server unhealthy after aborted connections");
    }
    ::close(fd);
}

// ---------------------------------------------------------------------------
// Observability battery (debug surface under a shedding burst)
// ---------------------------------------------------------------------------

/// GET `target` and read to close.  Returns the raw response ("" on
/// transport failure) and reports the wall time via `elapsed_ms`.
std::string http_get(const std::string& scenario, int port,
                     const std::string& target, double& elapsed_ms) {
    elapsed_ms = -1.0;
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(scenario, "connect failed for GET " + target);
        return "";
    }
    const auto start = std::chrono::steady_clock::now();
    if (!send_bytes(fd, "GET " + target +
                            " HTTP/1.1\r\nConnection: close\r\n\r\n")) {
        fail(scenario, "send failed for GET " + target);
        ::close(fd);
        return "";
    }
    std::string response;
    char chunk[16384];
    for (;;) {
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, kReplyTimeoutMs) <= 0) {
            break;
        }
        const ssize_t got = ::read(fd, chunk, sizeof chunk);
        if (got <= 0) {
            break;
        }
        response.append(chunk, static_cast<std::size_t>(got));
    }
    elapsed_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    ::close(fd);
    return response;
}

/// A heavy burst must shed (tight --deadline-ms budget, expensive
/// mc_yield lines) while a bystander /healthz answers within a hard
/// deadline: liveness must not queue behind the work it reports on.
void scenario_health_under_shedding_burst(int port) {
    const std::string name = "health under shedding burst";
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(name, "connect failed");
        return;
    }
    constexpr int kCount = 60;
    std::string payload;
    for (int i = 0; i < kCount; ++i) {
        // Unique seeds defeat the cache; every line costs real work.
        payload += "{\"op\":\"mc_yield\",\"dies\":90000,\"seed\":" +
                   std::to_string(i) + ",\"trace_id\":\"burst-" +
                   std::to_string(i) + "\",\"id\":" + std::to_string(i) +
                   "}\n";
    }
    if (!send_bytes(fd, payload)) {
        fail(name, "send failed");
        ::close(fd);
        return;
    }

    // Probe liveness while the burst is queued/executing.
    constexpr double kHealthDeadlineMs = 2000.0;
    double health_ms = -1.0;
    const std::string health = http_get(name, port, "/healthz", health_ms);
    if (health.rfind("HTTP/1.1 200 OK\r\n", 0) != 0 &&
        health.rfind("HTTP/1.1 503 ", 0) != 0) {
        fail(name, "/healthz answered neither 200 nor 503: " +
                       health.substr(0, 40));
    } else if (health.find("\r\n\r\nok\n") == std::string::npos &&
               health.find("\r\n\r\noverloaded\n") == std::string::npos) {
        fail(name, "/healthz body is neither ok nor overloaded");
    }
    if (health_ms < 0.0 || health_ms > kHealthDeadlineMs) {
        fail(name, "/healthz took " + std::to_string(health_ms) +
                       " ms, deadline " + std::to_string(kHealthDeadlineMs));
    }

    // Every burst line is answered — and the tight budget sheds work.
    std::size_t shed = 0;
    for (const std::string& code : expect_replies(name, fd, kCount)) {
        if (code == "deadline_exceeded") {
            ++shed;
        } else if (!code.empty()) {
            fail(name, "burst line answered '" + code +
                           "', want ok or deadline_exceeded");
            break;
        }
    }
    if (shed == 0) {
        fail(name, "no burst line was shed under a 5 ms budget");
    }
    ::close(fd);
}

/// After the shedding burst, the debug surface must tell the story:
/// /flightz carries anomaly records with the burst's trace IDs and
/// /statusz counts the anomalies.
void scenario_flightz_records_sheds(int port) {
    const std::string name = "flightz records sheds";
    double elapsed_ms = -1.0;
    const std::string response =
        http_get(name, port, "/flightz", elapsed_ms);
    if (response.rfind("HTTP/1.1 200 OK\r\n", 0) != 0 ||
        response.find("Content-Type: application/x-ndjson") ==
            std::string::npos) {
        fail(name, "/flightz is not a 200 x-ndjson response");
        return;
    }
    const std::size_t body_at = response.find("\r\n\r\n");
    const std::string body =
        body_at == std::string::npos ? "" : response.substr(body_at + 4);
    if (body.find("{\"seq\":") != 0) {
        fail(name, "/flightz body does not start with a record");
    }
    for (const char* marker :
         {"\"code\":\"deadline_exceeded\"", "\"anomaly\":true",
          "\"trace_id\":\"burst-"}) {
        if (body.find(marker) == std::string::npos) {
            fail(name, std::string{"/flightz lacks "} + marker);
        }
    }

    const std::string status =
        http_get(name, port, "/statusz", elapsed_ms);
    if (status.rfind("HTTP/1.1 200 OK\r\n", 0) != 0 ||
        status.find("\"flight\":") == std::string::npos ||
        status.find("\"anomalies\":") == std::string::npos) {
        fail(name, "/statusz lacks the flight-recorder section");
    }
}

// ---------------------------------------------------------------------------
// Snapshot battery (SIGUSR2 trigger, kill-mid-snapshot warm restart)
// ---------------------------------------------------------------------------

/// Deterministic, cacheable corpus shared by the snapshot scenarios:
/// the same lines must produce the same reply bytes whether the cache
/// started cold, was restored from a snapshot, or survived a crash.
constexpr std::size_t kSnapshotCorpusLines = 6;
std::string snapshot_corpus() {
    return "{\"id\":1,\"op\":\"scenario1\"}\n"
           "{\"id\":2,\"op\":\"scenario1\",\"lambda_um\":0.5}\n"
           "{\"id\":3,\"op\":\"scenario2\",\"lambda_um\":0.6,\"y0\":0.8}\n"
           "{\"id\":4,\"op\":\"chiplet\",\"chiplets\":2}\n"
           "{\"id\":5,\"op\":\"chiplet\",\"chiplets\":4,\"logic_area_mm2\":500}\n"
           "{\"id\":6,\"op\":\"gross_die\",\"die_width_mm\":7.5,"
           "\"die_height_mm\":9}\n";
}

/// Play the snapshot corpus and return the raw reply lines (empty on
/// any transport or envelope failure — failures are already reported).
std::vector<std::string> play_snapshot_corpus(const std::string& scenario,
                                              int port) {
    const int fd = connect_to(port);
    if (fd < 0) {
        fail(scenario, "connect failed");
        return {};
    }
    if (!send_bytes(fd, snapshot_corpus())) {
        fail(scenario, "send failed");
        ::close(fd);
        return {};
    }
    const reply_stream replies = read_replies(fd, kSnapshotCorpusLines);
    ::close(fd);
    if (replies.lines.size() != kSnapshotCorpusLines) {
        fail(scenario, "expected " + std::to_string(kSnapshotCorpusLines) +
                           " replies, got " +
                           std::to_string(replies.lines.size()));
        return {};
    }
    for (const std::string& line : replies.lines) {
        if (envelope_code(scenario, line) != "") {
            fail(scenario, "corpus line not answered ok: " + line);
            return {};
        }
    }
    return replies.lines;
}

/// Pull the integer value of `"key":N` out of the `"snapshot"` object
/// embedded in a /statusz body.  Returns -1 when absent.
long statusz_snapshot_field(const std::string& body, const std::string& key) {
    const std::size_t section = body.find("\"snapshot\":");
    if (section == std::string::npos) {
        return -1;
    }
    const std::size_t at = body.find("\"" + key + "\":", section);
    if (at == std::string::npos) {
        return -1;
    }
    long value = 0;
    std::size_t i = at + key.size() + 3;
    if (i >= body.size() || body[i] < '0' || body[i] > '9') {
        return -1;
    }
    while (i < body.size() && body[i] >= '0' && body[i] <= '9') {
        value = value * 10 + (body[i] - '0');
        ++i;
    }
    return value;
}

/// SIGUSR2 is the manual snapshot trigger: after a warmed cache takes
/// the signal, a snapshot file must appear on disk and the write must
/// surface on /statusz (snapshot.writes, last_bytes) and /metrics.
void scenario_sigusr2_snapshot(server& s, const std::string& snap_path) {
    const std::string name = "sigusr2 snapshot trigger";
    if (play_snapshot_corpus(name, s.port).empty()) {
        return;
    }
    if (::kill(s.pid, SIGUSR2) != 0) {
        fail(name, "kill(SIGUSR2) failed");
        return;
    }
    // The signal wakes the event loop; poll the debug surface until the
    // write lands (each GET also nudges the loop awake).
    long writes = 0;
    long last_bytes = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds{kReplyTimeoutMs};
    while (std::chrono::steady_clock::now() < deadline) {
        double elapsed_ms = -1.0;
        const std::string status =
            http_get(name, s.port, "/statusz", elapsed_ms);
        writes = statusz_snapshot_field(status, "writes");
        last_bytes = statusz_snapshot_field(status, "last_bytes");
        if (writes >= 1) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{20});
    }
    if (writes < 1) {
        fail(name, "/statusz never reported snapshot.writes >= 1");
        return;
    }
    if (last_bytes <= 0) {
        fail(name, "/statusz snapshot.last_bytes not positive after write");
    }
    if (::access(snap_path.c_str(), F_OK) != 0) {
        fail(name, "snapshot file " + snap_path + " missing after SIGUSR2");
    }
    double elapsed_ms = -1.0;
    const std::string metrics =
        http_get(name, s.port, "/metrics", elapsed_ms);
    if (metrics.find("silicon_cache_snapshot_writes_total") ==
        std::string::npos) {
        fail(name, "/metrics lacks silicon_cache_snapshot_writes_total");
    }
}

/// Crash-safety contract: SIGKILL in the middle of a snapshot write
/// must never poison the warm restart.  The first server takes a clean
/// snapshot, then is killed mid-write of a second one (slow_task on
/// serve.snapshot_write holds the window open); the replacement server
/// on the same path must boot — restoring the intact previous image —
/// and answer the same corpus with byte-identical replies.
void scenario_kill_mid_snapshot(const char* binary,
                                const std::string& snap_path) {
    const std::string name = "kill mid-snapshot, warm restart";
    std::remove(snap_path.c_str());
    std::remove((snap_path + ".tmp").c_str());

    const std::vector<std::string> slow_writer{
        "--threads", "2",
        "--cache-snapshot", snap_path,
        "--faults", "slow_task@serve.snapshot_write:100",
    };
    server a = spawn_silicond(binary, slow_writer);
    if (a.pid < 0) {
        fail(name, "spawn failed");
        return;
    }
    a.port = await_port(a);
    if (a.port == 0) {
        fail(name, "first server never reported a port");
        stop_child(a);
        return;
    }
    const std::vector<std::string> baseline =
        play_snapshot_corpus(name, a.port);
    if (baseline.empty()) {
        stop_child(a);
        return;
    }

    // First snapshot: trigger and wait for the file to land on disk.
    ::kill(a.pid, SIGUSR2);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds{kReplyTimeoutMs};
    while (::access(snap_path.c_str(), F_OK) != 0 &&
           std::chrono::steady_clock::now() < deadline) {
        // Connecting wakes the event loop in case the signal landed
        // between epoll waits; no reply is awaited.
        const int nudge = connect_to(a.port);
        if (nudge >= 0) {
            ::close(nudge);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{20});
    }
    if (::access(snap_path.c_str(), F_OK) != 0) {
        fail(name, "first snapshot never appeared at " + snap_path);
        stop_child(a);
        return;
    }

    // Second snapshot: trigger, give the slow write time to start, and
    // SIGKILL the server mid-write.  Whether the kill lands during
    // serialization or the file write, the previous snapshot must stay
    // intact (the tmp-write + rename protocol never touches it).
    ::kill(a.pid, SIGUSR2);
    const int nudge = connect_to(a.port);
    std::this_thread::sleep_for(std::chrono::milliseconds{150});
    ::kill(a.pid, SIGKILL);
    int status = 0;
    ::waitpid(a.pid, &status, 0);
    a.pid = -1;
    if (nudge >= 0) {
        ::close(nudge);
    }
    if (a.stderr_fd >= 0) {
        ::close(a.stderr_fd);
        a.stderr_fd = -1;
    }

    // The replacement must boot (a leftover .tmp or torn image must not
    // crash it) and answer the same corpus byte-for-byte.
    const std::vector<std::string> replacement{
        "--threads", "2",
        "--cache-snapshot", snap_path,
    };
    server b = spawn_silicond(binary, replacement);
    if (b.pid < 0) {
        fail(name, "replacement spawn failed");
        return;
    }
    b.port = await_port(b);
    if (b.port == 0) {
        fail(name, "replacement server never came up after the kill");
        stop_child(b);
        return;
    }
    const std::vector<std::string> warm = play_snapshot_corpus(name, b.port);
    if (warm.size() == baseline.size()) {
        for (std::size_t i = 0; i < warm.size(); ++i) {
            if (warm[i] != baseline[i]) {
                fail(name, "reply " + std::to_string(i + 1) +
                               " differs after warm restart:\n  before: " +
                               baseline[i] + "\n  after:  " + warm[i]);
            }
        }
    }
    stop_child(b);
    std::remove(snap_path.c_str());
    std::remove((snap_path + ".tmp").c_str());
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::cerr << "usage: chaosclient /path/to/silicond [extra args...]\n";
        return 2;
    }
    constexpr std::size_t kMaxLineBytes = 2048;
    std::vector<std::string> extra{
        "--threads",         "2",
        "--max-line-bytes",  std::to_string(kMaxLineBytes),
        "--max-sweep-points", "64",
        "--max-mc-dies",     "100000",
    };
    for (int i = 2; i < argc; ++i) {
        extra.emplace_back(argv[i]);
    }

    server s = spawn_silicond(argv[1], extra);
    if (s.pid < 0) {
        return 2;
    }
    s.port = await_port(s);
    if (s.port == 0) {
        stop_child(s);
        return 2;
    }
    std::cerr << "chaosclient: server up on port " << s.port << "\n";

    scenario_valid_burst(s.port);
    scenario_malformed(s.port);
    scenario_oversized(s.port, kMaxLineBytes);
    scenario_slow_loris(s.port);
    scenario_over_budget(s.port);
    scenario_zero_deadline(s.port);
    scenario_half_line_close(s.port);
    scenario_metrics_scrape(s.port);

    stop_child(s);

    // Second battery: a capped server with the fault switchboard armed
    // on the epoll transport sites, so every scenario below exercises
    // the injected-EINTR retry and short-write resumption paths.
    constexpr std::size_t kMaxConns = 32;
    const std::vector<std::string> armed{
        "--threads", "2",
        "--max-conns", std::to_string(kMaxConns),
        "--faults", "eintr@silicond.read:3,short_write@silicond.write:7",
    };
    server s2 = spawn_silicond(argv[1], armed);
    if (s2.pid < 0) {
        return 2;
    }
    s2.port = await_port(s2);
    if (s2.port == 0) {
        stop_child(s2);
        return 2;
    }
    std::cerr << "chaosclient: fault-armed server up on port " << s2.port
              << "\n";

    scenario_valid_burst(s2.port);
    scenario_connection_flood(s2.port, kMaxConns);
    scenario_half_close_mid_batch(s2.port);
    scenario_chiplet_burst_under_faults(s2.port);
    scenario_abrupt_close_pending_write(s2.port);

    stop_child(s2);

    // Third battery: a tight per-request deadline budget forces a heavy
    // burst to shed while the debug surface (/healthz, /flightz,
    // /statusz) stays live and records the sheds.
    const std::vector<std::string> shedding{
        "--threads", "2",
        "--deadline-ms", "5",
        "--max-mc-dies", "100000",
    };
    server s3 = spawn_silicond(argv[1], shedding);
    if (s3.pid < 0) {
        return 2;
    }
    s3.port = await_port(s3);
    if (s3.port == 0) {
        stop_child(s3);
        return 2;
    }
    std::cerr << "chaosclient: shedding server up on port " << s3.port
              << "\n";

    scenario_health_under_shedding_burst(s3.port);
    scenario_flightz_records_sheds(s3.port);

    stop_child(s3);

    // Fourth battery: cache snapshot persistence.  SIGUSR2 must take a
    // manual snapshot whose write surfaces on /statusz and /metrics;
    // SIGKILL in the middle of a snapshot write must leave the previous
    // image intact so the replacement server answers the same corpus
    // byte-identically.
    const std::string snap_path =
        "chaosclient_snapshot_" + std::to_string(::getpid()) + ".snap";
    std::remove(snap_path.c_str());
    const std::vector<std::string> snapshotting{
        "--threads", "2",
        "--cache-snapshot", snap_path,
    };
    server s4 = spawn_silicond(argv[1], snapshotting);
    if (s4.pid < 0) {
        return 2;
    }
    s4.port = await_port(s4);
    if (s4.port == 0) {
        stop_child(s4);
        return 2;
    }
    std::cerr << "chaosclient: snapshotting server up on port " << s4.port
              << "\n";

    scenario_sigusr2_snapshot(s4, snap_path);

    stop_child(s4);
    std::remove(snap_path.c_str());

    scenario_kill_mid_snapshot(argv[1], snap_path);

    if (g_failures != 0) {
        std::cerr << "chaosclient: " << g_failures << " failure(s)\n";
        return 1;
    }
    std::cerr << "chaosclient: all scenarios passed\n";
    return 0;
}
