#include "serve/conn.hpp"

#include "serve/faults.hpp"

#include <cerrno>
#include <unistd.h>

namespace silicon::serve {

namespace {

[[nodiscard]] std::string_view reason_phrase(int status_code) {
    switch (status_code) {
        case 200: return "OK";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 413: return "Payload Too Large";
        case 431: return "Request Header Fields Too Large";
        case 501: return "Not Implemented";
        case 503: return "Service Unavailable";
        case 505: return "HTTP Version Not Supported";
        default:  return "Error";
    }
}

}  // namespace

transport_counters& transport_counters::instance() {
    static transport_counters counters{
        obs::metrics_registry::global().get_counter(
            "silicond_flushes_total",
            "Gathered response flushes written to the transport"),
        obs::metrics_registry::global().get_counter(
            "silicond_flushed_bytes_total",
            "Response bytes written through gathered flushes"),
        obs::metrics_registry::global().get_counter(
            "silicond_oversized_lines_total",
            "Transport lines rejected by the max-line-bytes bound"),
        obs::metrics_registry::global().get_counter(
            "silicond_wakeup_batches_total",
            "Engine batches the event loop served after a wakeup"),
        obs::metrics_registry::global().get_counter(
            "silicond_wakeup_batch_segments_total",
            "Connection segments served in the event loop's wakeup "
            "batches"),
    };
    return counters;
}

jsonl_framer::jsonl_framer(engine& eng, transport& sink, std::size_t batch,
                           bool http)
    : eng_{eng},
      sink_{sink},
      batch_{batch},
      http_{http},
      splitter_{eng.config().limits.max_line_bytes},
      counters_{transport_counters::instance()} {
    lines_.reserve(batch < 256 ? batch : 256);
}

std::size_t jsonl_framer::feed(std::string_view chunk) {
    return splitter_.feed_some(
        chunk, [this](std::string_view line, bool oversized) {
            return on_line(line, oversized);
        });
}

void jsonl_framer::finish() {
    // A line that stops the framing leaves nothing pending.
    splitter_.finish([this](std::string_view line, bool oversized) {
        (void)on_line(line, oversized);
    });
    flush();
}

bool jsonl_framer::on_line(std::string_view line, bool oversized) {
    if (oversized) {
        // Serve the pending lines first, so the rejection lands at the
        // position the oversized line occupied.
        if (!flush()) {
            return false;
        }
        counters_.oversized_lines.add(1);
        reject_.clear();
        append_line_too_large(eng_.config().limits.max_line_bytes, reject_);
        reject_ += '\n';
        return sink_.write(reject_) &&
               sink_.on_event(framer_event::oversized, {});
    }
    if (line.empty()) {
        return true;  // blank lines are keep-alives, not requests
    }
    // An HTTP request line wins over the bare `GET /metrics` prefix; the
    // transport answers either behind the pending replies.
    const bool is_http = http_ && http::is_request_line(line);
    if (is_http || line.rfind("GET /metrics", 0) == 0) {
        return flush() &&
               sink_.on_event(
                   is_http ? framer_event::http : framer_event::metrics,
                   line);
    }
    // Reuse the slot strings' capacity: a warm stream allocates nothing
    // per line.
    if (pending_ == lines_.size()) {
        lines_.emplace_back(line);
    } else {
        lines_[pending_].assign(line.data(), line.size());
    }
    ++pending_;
    return pending_ < batch_ || flush();
}

bool jsonl_framer::flush() {
    if (pending_ == 0) {
        return true;
    }
    gather_.clear();
    eng_.handle_batch_into(pending(), gather_);
    return deliver(gather_);
}

bool jsonl_framer::deliver(std::string_view replies) {
    pending_ = 0;
    counters_.flushes.add(1);
    counters_.flushed_bytes.add(replies.size());
    return sink_.write(replies);
}

void serve_stdio(engine& eng, std::size_t batch,
                 const std::function<long(char* buf, std::size_t cap)>& read,
                 int out_fd) {
    struct stdio_sink final : jsonl_framer::transport {
        engine& eng;
        int fd;
        bool dead = false;
        stdio_sink(engine& e, int out) : eng{e}, fd{out} {}
        bool write(std::string_view replies) override {
            dead = dead || !io::write_all_fd(fd, replies, false);
            return !dead;
        }
        bool on_event(framer_event event, std::string_view) override {
            // An oversized line was answered: the stream goes on.
            return event != framer_event::metrics ||
                   write(eng.prometheus_text());
        }
    } sink{eng, out_fd};
    jsonl_framer framer{eng, sink, batch, false};
    char chunk[4096];
    long got = 0;
    while (!sink.dead && (got = read(chunk, sizeof chunk)) > 0) {
        framer.feed({chunk, static_cast<std::size_t>(got)});
        framer.flush();
    }
    if (!sink.dead) {
        framer.finish();
    }
}

conn_shared::conn_shared(engine& engine_ref, conn_config cfg)
    : eng{engine_ref},
      config{cfg},
      transport{transport_counters::instance()},
      http_requests{obs::metrics_registry::global().get_counter(
          "silicond_http_requests_total",
          "HTTP/1.x requests parsed on the multiplexed port")},
      queue_overflow_drops{obs::metrics_registry::global().get_counter(
          "silicond_queue_overflow_drops_total",
          "Connections dropped because the response-queue byte budget "
          "refused their reply")},
      queue_bytes_gauge{obs::metrics_registry::global().get_gauge(
          "silicond_write_queue_bytes",
          "Response bytes buffered across all connections")} {}

conn::conn(int fd, conn_shared& shared)
    : fd_{fd},
      shared_{shared},
      framer_{shared.eng, *this, shared.config.batch, true},
      http_{shared.config.http} {
    shared_.open_conns.fetch_add(1, std::memory_order_relaxed);
}

conn::~conn() {
    shared_.open_conns.fetch_sub(1, std::memory_order_relaxed);
    set_paused(false);
    if (queued_bytes_ != 0) {
        shared_.queued_bytes.fetch_sub(queued_bytes_,
                                       std::memory_order_relaxed);
        shared_.queue_bytes_gauge.add(
            -static_cast<double>(queued_bytes_));
    }
    ::close(fd_);
}

void conn::set_paused(bool paused) {
    if (paused == paused_) {
        return;
    }
    paused_ = paused;
    if (paused) {
        shared_.paused_conns.fetch_add(1, std::memory_order_relaxed);
    } else {
        shared_.paused_conns.fetch_sub(1, std::memory_order_relaxed);
    }
}

void conn::on_readable() {
    char chunk[16384];
    while (wants_read()) {
        if (faults::enabled() && faults::take_eintr("silicond.read")) {
            // Injected EINTR: with level-triggered epoll the readable
            // event re-fires on the next wait, which is the retry.
            break;
        }
        const ssize_t got = ::read(fd_, chunk, sizeof chunk);
        if (got < 0) {
            if (errno == EINTR) {
                continue;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                break;
            }
            dead_ = true;
            return;
        }
        if (got == 0) {
            // Peer half-closed (or closed).  A torn final line is still
            // a line: answer it, then flush and close — the write side
            // may outlive the read side (shutdown(SHUT_WR) clients).
            eof_seen_ = true;
            if (mode_ == mode::jsonl) {
                framer_.finish();
            }
            close_after_flush_ = true;
            break;
        }
        consume({chunk, static_cast<std::size_t>(got)});
        if (dead_) {
            return;
        }
        if (static_cast<std::size_t>(got) < sizeof chunk) {
            break;  // socket drained (level-triggered re-arms otherwise)
        }
    }
    on_writable();
}

void conn::consume(std::string_view data) {
    while (!data.empty() && !dead_ && !close_after_flush_) {
        if (mode_ == mode::http) {
            data.remove_prefix(http_.consume(data));
            if (http_.state() == http::parser::status::complete) {
                respond_http(http_.result());
                http_.reset();
                mode_ = mode::jsonl;
            } else if (http_.state() == http::parser::status::error) {
                respond_http_error();
                close_after_flush_ = true;
            }
            continue;
        }
        data.remove_prefix(framer_.feed(data));
    }
}

bool conn::write(std::string_view replies) {
    enqueue(replies);
    return !dead_;
}

bool conn::on_event(framer_event event, std::string_view line) {
    if (event == framer_event::http) {
        // JSONL replies already queued stay ahead of the HTTP response;
        // the request line re-enters through the parser, and the rest
        // of the stream belongs to it.
        mode_ = mode::http;
        (void)http_.consume(line);
        (void)http_.consume("\r\n");
        if (http_.state() == http::parser::status::error) {
            respond_http_error();
            close_after_flush_ = true;
        }
        return false;
    }
    if (event == framer_event::metrics) {
        // PR 5 compatibility: a bare `GET /metrics` line (no HTTP
        // version, so not a real request line) gets the one-shot
        // HTTP/1.0 response and a close, exactly as before.
        const std::string body = shared_.eng.prometheus_text();
        enqueue("HTTP/1.0 200 OK\r\n"
                "Content-Type: text/plain; version=0.0.4\r\n"
                "Content-Length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body);
    }
    // An oversized line's framing is suspect: drop the peer.
    close_after_flush_ = true;
    return false;
}

void conn::flush_pending_batch() {
    if (!dead_) {
        (void)framer_.flush();
    }
}

void conn::deliver(std::string_view replies) {
    (void)framer_.deliver(replies);
}

void conn::respond_http(const http::request& req) {
    shared_.http_requests.add(1);
    const bool keep_alive = req.keep_alive;
    std::string response;
    if (req.method == "GET" || req.method == "HEAD") {
        const bool head_only = req.method == "HEAD";
        std::string_view target = req.target;
        target = target.substr(0, target.find('?'));
        if (target == "/metrics") {
            response = http::simple_response(
                200, reason_phrase(200), "text/plain; version=0.0.4",
                shared_.eng.prometheus_text(), keep_alive, head_only);
        } else if (target == "/healthz") {
            // Liveness stays cheap on purpose (no JSON, no engine
            // walk): it must answer within its deadline even while the
            // engine sheds work.  Admission state is reflected in the
            // status: over the in-flight byte budget = 503.
            const std::size_t budget =
                shared_.eng.config().limits.max_inflight_bytes;
            const bool overloaded =
                budget != 0 &&
                shared_.eng.admission().inflight_bytes() >= budget;
            response = overloaded
                           ? http::simple_response(
                                 503, reason_phrase(503), "text/plain",
                                 "overloaded\n", keep_alive, head_only)
                           : http::simple_response(
                                 200, reason_phrase(200), "text/plain",
                                 "ok\n", keep_alive, head_only);
        } else if (target == "/statusz") {
            json::value status = shared_.eng.statusz_json();
            json::object transport_status;
            const double uptime =
                std::chrono::duration_cast<std::chrono::duration<double>>(
                    std::chrono::steady_clock::now() - shared_.started)
                    .count();
            transport_status.set("uptime_seconds", uptime);
            transport_status.set("open_conns",
                                 static_cast<double>(shared_.open_conns.load(
                                     std::memory_order_relaxed)));
            transport_status.set("queued_bytes",
                                 static_cast<double>(shared_.queued_bytes.load(
                                     std::memory_order_relaxed)));
            transport_status.set("paused_conns",
                                 static_cast<double>(shared_.paused_conns.load(
                                     std::memory_order_relaxed)));
            status.as_object().set(
                "transport", json::value{std::move(transport_status)});
            std::string body = json::dump(status);
            body += '\n';
            response = http::simple_response(200, reason_phrase(200),
                                             "application/json", body,
                                             keep_alive, head_only);
        } else if (target == "/flightz") {
            std::string body;
            obs::flight_recorder::instance().export_jsonl(body);
            response = http::simple_response(200, reason_phrase(200),
                                             "application/x-ndjson", body,
                                             keep_alive, head_only);
        } else {
            response = http::simple_response(404, reason_phrase(404),
                                             "text/plain", "not found\n",
                                             keep_alive, head_only);
        }
    } else {
        response = http::simple_response(405, reason_phrase(405),
                                         "text/plain",
                                         "method not allowed\n", keep_alive);
    }
    enqueue(response);
    if (!keep_alive) {
        close_after_flush_ = true;
    }
}

void conn::respond_http_error() {
    shared_.http_requests.add(1);
    const int status_code = http_.error_status();
    std::string body{http_.error_reason()};
    body += '\n';
    enqueue(http::simple_response(status_code, reason_phrase(status_code),
                                  "text/plain", body,
                                  /*keep_alive=*/false));
}

void conn::enqueue(std::string_view bytes) {
    if (bytes.empty() || dead_) {
        return;
    }
    std::size_t offset = 0;
    if (queue_.empty()) {
        // Common case: the socket takes the whole reply immediately and
        // nothing is buffered.
        const io::write_result r = io::write_some_fd(fd_, bytes, true);
        if (r.dead) {
            dead_ = true;
            return;
        }
        offset = r.written;
        if (offset == bytes.size()) {
            return;
        }
    }
    const std::string_view rest = bytes.substr(offset);
    admission_controller::ticket ticket =
        shared_.ledger.admit(rest.size(), shared_.config.queue_budget_bytes);
    if (shared_.config.queue_budget_bytes != 0 && !ticket) {
        // The loop-wide buffer budget is exhausted: shedding this
        // connection (whole, never mid-line) is the only move that
        // keeps memory bounded.
        shared_.queue_overflow_drops.add(1);
        dead_ = true;
        return;
    }
    out_buf buf;
    buf.data.assign(rest.data(), rest.size());
    buf.ticket = std::move(ticket);
    queue_.push_back(std::move(buf));
    queued_bytes_ += rest.size();
    shared_.queued_bytes.fetch_add(rest.size(), std::memory_order_relaxed);
    shared_.queue_bytes_gauge.add(static_cast<double>(rest.size()));
    if (shared_.config.queue_high_bytes != 0 &&
        queued_bytes_ > shared_.config.queue_high_bytes) {
        set_paused(true);
    }
}

void conn::on_writable() {
    while (!queue_.empty() && !dead_) {
        out_buf& front = queue_.front();
        const std::string_view rest =
            std::string_view{front.data}.substr(front.offset);
        const io::write_result r = io::write_some_fd(fd_, rest, true);
        if (r.written != 0) {
            front.offset += r.written;
            queued_bytes_ -= r.written;
            shared_.queued_bytes.fetch_sub(r.written,
                                           std::memory_order_relaxed);
            shared_.queue_bytes_gauge.add(-static_cast<double>(r.written));
        }
        if (r.dead) {
            dead_ = true;
            return;
        }
        if (front.offset == front.data.size()) {
            queue_.pop_front();  // releases the admission ticket
            continue;
        }
        if (r.would_block) {
            break;
        }
    }
    if (paused_ && queued_bytes_ < shared_.config.queue_low_bytes) {
        set_paused(false);
    }
}

}  // namespace silicon::serve
