// conn.hpp — the JSONL framer of both silicond transports, and one
// multiplexed connection of the event loop.
//
// `jsonl_framer` is the one path from request bytes to replies: a
// bounded `io::line_splitter` frames the stream into reused line slots,
// skips blank keep-alive lines, serves a `--batch`-full segment at once,
// answers an oversized line `too_large` (counted) at the position it
// occupied, behind the pending replies, and hands a bare `GET /metrics`
// line or an HTTP request line to its transport.  The transports — the
// stdio loop (`serve_stdio`) and `conn` — keep only what differs: where
// replies go, and what follows an event (stdio goes on after an
// oversized line and writes the raw exposition; a conn closes after
// either, and switches to HTTP on a request line).
//
// A `conn` owns, for a non-blocking fd driven by epoll
// (serve/event_loop):
//
//   * a framer whose pending segment the loop serves after the wakeup
//     together with every other ready connection's (`pending_segment`,
//     `deliver`);
//   * an `http::parser` the connection hands its stream to whenever a
//     framed line turns out to be an HTTP/1.1 request line — after the
//     response (keep-alive permitting) the stream drops back to JSONL,
//     so Prometheus scrapers and JSONL clients coexist on one port and
//     even on one connection;
//   * a bounded write queue with watermark backpressure: responses the
//     socket will not take immediately are buffered; above
//     `queue_high_bytes` the connection *stops reading* (the kernel's
//     receive window then pushes back on the client) and resumes below
//     `queue_low_bytes`.  Every buffered byte holds a PR 5 admission
//     ticket against the loop-wide `queue_budget_bytes` ledger, so a
//     thousand slow readers cannot OOM the server: when the ledger
//     refuses, the connection is dropped (counted, never torn
//     mid-line — the queue is all-or-nothing per response flush).
//
// Ordering invariant (inherited from DESIGN.md §11): every accepted
// line gets exactly one reply, in request order; oversized rejections
// and HTTP responses land at the stream position their bytes occupied,
// behind any batch still pending, which is why those events (and EOF,
// and a `--batch`-full segment) serve the pending segment at once,
// alone, instead of leaving it to the wakeup batch.
//
// A conn is single-threaded — only the owning event loop touches it.
// The shared state (`conn_shared`) is the loop-wide ledger + metrics,
// safe to alias from every conn of that loop.

#pragma once

#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/http.hpp"
#include "serve/io.hpp"
#include "serve/limits.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace silicon::serve {

struct conn_config {
    /// Max lines per engine batch (mirrors silicond --batch).
    std::size_t batch = 1024;
    /// Pause reading when the write queue holds more than this.
    std::size_t queue_high_bytes = 4u << 20;
    /// Resume reading when it drains below this.
    std::size_t queue_low_bytes = 256u << 10;
    /// Loop-wide buffered-response byte budget (0 = off); enforced via
    /// admission tickets on the shared ledger.
    std::size_t queue_budget_bytes = 0;
    /// HTTP parser bounds (431/413 beyond).
    http::parser::config http;
};

/// The counters both silicond transports (the event loop's conns and
/// the stdio loop) add to, registered once in the process-global obs
/// registry.
struct transport_counters {
    obs::counter& flushes;
    obs::counter& flushed_bytes;
    obs::counter& oversized_lines;
    /// Batches the event loop served after a wakeup, and the connection
    /// segments they carried: their ratio is how many connections
    /// shared an engine batch.
    obs::counter& wakeup_batches;
    obs::counter& wakeup_batch_segments;

    [[nodiscard]] static transport_counters& instance();
};

/// What the framer meets that is not a request line.
enum class framer_event : std::uint8_t {
    oversized,  ///< a line over max_line_bytes, already answered too_large
    metrics,    ///< a bare `GET /metrics` line
    http,       ///< an HTTP/1.x request line (when the framer speaks HTTP)
};

/// The one JSONL framer of both transports (see the top of this file).
class jsonl_framer {
public:
    /// The transport's side.
    class transport {
    public:
        /// Write whole reply lines; false = the peer is gone.
        virtual bool write(std::string_view replies) = 0;
        /// An event, after every earlier reply (and an oversized line's
        /// own) was written; false stops the framing.
        virtual bool on_event(framer_event event, std::string_view line) = 0;

    protected:
        ~transport() = default;
    };

    /// Lines are bounded by the engine's `limits.max_line_bytes`; `http`
    /// makes HTTP request lines events.
    jsonl_framer(engine& eng, transport& sink, std::size_t batch, bool http);

    /// Frame `chunk`; returns the bytes consumed (fewer when the framing
    /// stopped after a line).
    std::size_t feed(std::string_view chunk);
    /// End of stream: frame the torn final line, then flush.
    void finish();
    /// The lines framed since the last flush.
    [[nodiscard]] std::span<std::string> pending() noexcept {
        return {lines_.data(), pending_};
    }
    /// Serve the pending lines now, alone, and write their replies.
    bool flush();
    /// Write the pending lines' replies, count the flush, start anew.
    bool deliver(std::string_view replies);

private:
    bool on_line(std::string_view line, bool oversized);

    engine& eng_;
    transport& sink_;
    std::size_t batch_;
    bool http_;
    io::line_splitter splitter_;
    std::vector<std::string> lines_;  ///< slots, capacity reused
    std::size_t pending_ = 0;
    std::string gather_;
    std::string reject_;
    transport_counters& counters_;
};

/// The stdio transport: frame what `read` returns (0 = end of stream or
/// shutdown, negative = dead input) and write replies to `out_fd`,
/// flushing after every read, so a client that sends one line and waits
/// never stalls behind the batch threshold.
void serve_stdio(engine& eng, std::size_t batch,
                 const std::function<long(char* buf, std::size_t cap)>& read,
                 int out_fd);

/// State shared by every conn of one event loop: the engine, the
/// response-queue ledger, and the metric handles (registered once in
/// the process-global obs registry).
struct conn_shared {
    conn_shared(engine& eng, conn_config cfg);

    engine& eng;
    conn_config config;
    admission_controller ledger;  ///< buffered-response bytes
    std::atomic<std::uint64_t> queued_bytes{0};
    std::atomic<std::size_t> paused_conns{0};
    /// Transport-level debug state for `GET /statusz`.
    std::chrono::steady_clock::time_point started =
        std::chrono::steady_clock::now();
    std::atomic<std::size_t> open_conns{0};

    transport_counters& transport;
    obs::counter& http_requests;
    obs::counter& queue_overflow_drops;
    obs::gauge& queue_bytes_gauge;
};

class conn final : private jsonl_framer::transport {
public:
    conn(int fd, conn_shared& shared);
    ~conn();
    conn(const conn&) = delete;
    conn& operator=(const conn&) = delete;

    /// Drain the socket (until EAGAIN / short read / backpressure
    /// pause) and frame lines into the pending segment, which the loop
    /// serves after the wakeup (`pending_segment`, `deliver`).  A
    /// `--batch`-full segment, EOF (which also frames the final
    /// unterminated line and schedules flush-then-close), an oversized
    /// line and an HTTP request line flush it at once, alone.
    void on_readable();

    /// The lines framed since the last flush: this connection's segment
    /// of the loop's next wakeup batch (empty once the peer is dead).
    /// The loop may swap the strings out; `deliver` ends the segment.
    [[nodiscard]] std::span<std::string> pending_segment() noexcept {
        return dead_ ? std::span<std::string>{} : framer_.pending();
    }

    /// Queue the replies to the pending segment (one '\n'-terminated
    /// line per pending line, in order) and start a new segment.
    void deliver(std::string_view replies);

    /// Serve the pending segment now, alone, and queue its replies.
    void flush_pending_batch();

    /// Flush the write queue as far as the socket allows.
    void on_writable();

    /// True when the loop must destroy this connection (dead peer, or
    /// close-after-flush with an empty queue).
    [[nodiscard]] bool finished() const noexcept {
        return dead_ || (close_after_flush_ && queue_.empty());
    }

    [[nodiscard]] bool wants_read() const noexcept {
        return !paused_ && !eof_seen_ && !close_after_flush_ && !dead_;
    }
    [[nodiscard]] bool wants_write() const noexcept {
        return !queue_.empty() && !dead_;
    }
    [[nodiscard]] bool paused() const noexcept { return paused_; }
    [[nodiscard]] std::size_t queued_bytes() const noexcept {
        return queued_bytes_;
    }
    [[nodiscard]] int fd() const noexcept { return fd_; }

    // Timer bookkeeping, owned by the event loop's wheel.
    std::uint64_t last_activity_tick = 0;
    std::uint64_t write_pending_since_tick = 0;  ///< 0 = nothing pending
    bool wheel_scheduled = false;

private:
    enum class mode { jsonl, http };

    struct out_buf {
        std::string data;
        std::size_t offset = 0;
        admission_controller::ticket ticket;
    };

    void consume(std::string_view data);
    bool write(std::string_view replies) override;
    /// An oversized line or a bare `GET /metrics` line closes the
    /// connection after its reply; an HTTP request line switches the
    /// stream to the HTTP parser.
    bool on_event(framer_event event, std::string_view line) override;
    void respond_http(const http::request& req);
    void respond_http_error();
    void enqueue(std::string_view bytes);
    void set_paused(bool paused);

    int fd_;
    conn_shared& shared_;
    mode mode_ = mode::jsonl;
    jsonl_framer framer_;
    http::parser http_;
    std::deque<out_buf> queue_;
    std::size_t queued_bytes_ = 0;
    bool paused_ = false;
    bool eof_seen_ = false;
    bool close_after_flush_ = false;
    bool dead_ = false;
};

}  // namespace silicon::serve
