// io.hpp — EINTR-safe stream I/O and bounded line framing for silicond.
//
// The JSONL transport has two classic robustness holes this module
// closes in one testable place:
//
//   * Partial/interrupted writes.  `write(2)` may return short or fail
//     with EINTR (signal delivery without SA_RESTART — exactly what our
//     SIGTERM handler does); treating either as fatal drops replies.
//     `write_all` retries both against a pluggable `write_fn`, so the
//     retry logic is unit-testable with shims and fault-injectable
//     without a real socket.
//
//   * Unbounded line buffering.  A client that never sends a newline
//     used to grow the per-connection std::string without limit.
//     `line_splitter` frames incoming bytes into lines under a byte
//     budget: an over-budget line is *discarded* (bytes dropped until
//     its terminating newline) and surfaced once as an oversized event,
//     so the JSONL framer both transports share (serve/conn) can
//     answer a `too_large` envelope instead of OOMing.  Completed
//     in-budget lines queued before the oversized one are still
//     delivered first — replies stay in request order.
//
// Framing matches the previous transport exactly for in-budget input:
// lines split on '\n', a single trailing '\r' stripped (CRLF
// tolerance), final unterminated line delivered by `finish()`.

#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

namespace silicon::serve::io {

/// One write attempt: returns bytes written (> 0), 0/negative on error.
/// `errno` is consulted for EINTR when the result is negative.
using write_fn = std::function<long(const char* data, std::size_t size)>;

/// Write all of `data`, retrying short writes and EINTR.  Returns false
/// on any other error (connection dead).  Never throws.  Assumes a
/// *blocking* write_fn: EAGAIN is treated as fatal here, because a
/// non-blocking sink would busy-spin — non-blocking callers use
/// `write_some_fd` (below) and park the rest behind poll/epoll.
bool write_all(std::string_view data, const write_fn& write);

/// EINTR-safe `write_all` over a file descriptor (uses send with
/// MSG_NOSIGNAL when `is_socket`, plain write otherwise, so a dead peer
/// yields EPIPE instead of killing the process with SIGPIPE).
///
/// Safe on non-blocking fds too: EAGAIN/EWOULDBLOCK parks in poll(2)
/// until the fd is writable instead of reporting the peer dead (the
/// PR 5 retry loop assumed blocking sockets and dropped the connection
/// on the first full socket buffer — regression-tested with a tiny
/// SO_SNDBUF in tests/serve/test_event_loop.cpp).
bool write_all_fd(int fd, std::string_view data, bool is_socket);

/// Result of one best-effort write pass on a (possibly non-blocking)
/// fd: `written` bytes left the process; `would_block` reports a clean
/// EAGAIN/EWOULDBLOCK stop (caller re-arms for writability); `dead`
/// reports a real error (EPIPE, ECONNRESET, ...).  At most one of
/// would_block/dead is set.
struct write_result {
    std::size_t written = 0;
    bool would_block = false;
    bool dead = false;
};

/// Write as much of `data` as the fd accepts without blocking: retries
/// EINTR, stops on EAGAIN/EWOULDBLOCK, never busy-waits.  Honors the
/// `silicond.write` fault sites (eintr / short_write) exactly like
/// `write_all_fd`, so the chaos switchboard covers the event-loop
/// write queue too.
[[nodiscard]] write_result write_some_fd(int fd, std::string_view data,
                                         bool is_socket);

/// Incremental newline framer with a per-line byte budget.
class line_splitter {
public:
    /// `max_line_bytes` = 0 means unbounded (legacy behavior).
    explicit line_splitter(std::size_t max_line_bytes = 0)
        : max_line_bytes_{max_line_bytes} {}

    /// Feed a chunk of received bytes.  For each framed event, calls
    /// `on_line(line, oversized)` in arrival order: `oversized` false
    /// delivers a complete in-budget line ('\n' removed, one trailing
    /// '\r' stripped); `oversized` true reports a line whose byte count
    /// exceeded the budget (its content is dropped, the event fires
    /// once per offending line, at the position the line occupied).
    void feed(std::string_view chunk,
              const std::function<void(std::string_view line, bool oversized)>&
                  on_line);

    /// Like `feed`, but the callback returns false to stop framing: the
    /// bytes after that event's newline are left unconsumed and the
    /// number of consumed `chunk` bytes is returned.  The JSONL framer
    /// stops after an event this way: a connection then hands the rest
    /// of the stream to its HTTP parser, or closes.
    std::size_t feed_some(
        std::string_view chunk,
        const std::function<bool(std::string_view line, bool oversized)>&
            on_line);

    /// Deliver the final unterminated line, if any (end of stream).
    void finish(const std::function<void(std::string_view line,
                                         bool oversized)>& on_line);

    /// Bytes currently buffered for the in-progress line.
    [[nodiscard]] std::size_t buffered_bytes() const noexcept {
        return buffer_.size();
    }

private:
    std::size_t max_line_bytes_;
    std::string buffer_;
    bool discarding_ = false;  ///< dropping bytes until the next '\n'
};

}  // namespace silicon::serve::io
