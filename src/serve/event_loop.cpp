#include "serve/event_loop.hpp"

#include "exec/thread_pool.hpp"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <system_error>
#include <unistd.h>

namespace silicon::serve {

namespace {

void make_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) {
        (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
}

[[nodiscard]] std::uint64_t ms_to_ticks(std::uint64_t ms,
                                        std::uint64_t tick_ms) noexcept {
    return (ms + tick_ms - 1) / tick_ms;  // round up: never fire early
}

}  // namespace

event_loop::event_loop(engine& eng, int listen_fd, event_loop_config config)
    : eng_{eng},
      config_{config},
      shared_{eng, config.conn},
      listen_fd_{listen_fd},
      open_conns_gauge_{obs::metrics_registry::global().get_gauge(
          "silicond_open_connections",
          "Connections currently multiplexed by the event loop")},
      accepts_{obs::metrics_registry::global().get_counter(
          "silicond_accepts_total", "Connections accepted")},
      accept_drops_{obs::metrics_registry::global().get_counter(
          "silicond_accept_drops_total",
          "Connections closed at accept because max-conns was reached")},
      timeouts_{obs::metrics_registry::global().get_counter(
          "silicond_conn_timeouts_total",
          "Connections closed by the idle or write-stall deadline")} {
    batch_lines_.resize(exec::max_shards);
    if (config_.tick_ms == 0) {
        config_.tick_ms = 100;
    }
    idle_ticks_ = ms_to_ticks(config_.idle_timeout_ms, config_.tick_ms);
    write_ticks_ = ms_to_ticks(config_.write_timeout_ms, config_.tick_ms);

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
        throw std::system_error{errno, std::generic_category(),
                                "epoll_create1"};
    }
    stop_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (stop_fd_ < 0) {
        throw std::system_error{errno, std::generic_category(), "eventfd"};
    }
    make_nonblocking(listen_fd_);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
    ev.data.fd = stop_fd_;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &ev);

    if (idle_ticks_ != 0 || write_ticks_ != 0) {
        timer_fd_ =
            ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
        if (timer_fd_ < 0) {
            throw std::system_error{errno, std::generic_category(),
                                    "timerfd_create"};
        }
        itimerspec spec{};
        spec.it_interval.tv_sec =
            static_cast<time_t>(config_.tick_ms / 1000);
        spec.it_interval.tv_nsec =
            static_cast<long>((config_.tick_ms % 1000) * 1000000);
        spec.it_value = spec.it_interval;
        (void)::timerfd_settime(timer_fd_, 0, &spec, nullptr);
        ev.data.fd = timer_fd_;
        (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
    }
}

event_loop::~event_loop() {
    conns_.clear();  // each conn closes its fd
    if (timer_fd_ >= 0) {
        ::close(timer_fd_);
    }
    if (stop_fd_ >= 0) {
        ::close(stop_fd_);
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
    }
    if (epoll_fd_ >= 0) {
        ::close(epoll_fd_);
    }
}

void event_loop::stop() noexcept {
    const std::uint64_t one = 1;
    // Async-signal-safe: a single write(2).  EAGAIN means the counter is
    // already non-zero, i.e. a stop is already pending — fine.
    [[maybe_unused]] const ssize_t n =
        ::write(stop_fd_, &one, sizeof one);
}

void event_loop::run(const std::function<bool()>& should_stop) {
    std::array<epoll_event, 128> events{};
    bool stopping = false;
    while (!stopping) {
        if (should_stop && should_stop()) {
            break;
        }
        const int n = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()), -1);
        if (n < 0) {
            if (errno == EINTR) {
                continue;  // signal: the should_stop check above decides
            }
            break;
        }
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == stop_fd_) {
                std::uint64_t drain = 0;
                (void)!::read(stop_fd_, &drain, sizeof drain);
                stopping = true;
            } else if (fd == listen_fd_) {
                handle_listener();
            } else if (fd == timer_fd_) {
                std::uint64_t expirations = 0;
                if (::read(timer_fd_, &expirations, sizeof expirations) ==
                        static_cast<ssize_t>(sizeof expirations) &&
                    expirations > 0) {
                    advance_wheel(expirations);
                }
            } else {
                handle_conn(fd, events[i].events);
            }
        }
        serve_ready();
    }
}

void event_loop::handle_listener() {
    for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR) {
                continue;
            }
            return;  // EAGAIN, or a transient accept error: wait again
        }
        if (config_.max_conns != 0 && conns_.size() >= config_.max_conns) {
            // Shedding at accept keeps established clients healthy; the
            // refused client sees an orderly close, not a hang.
            accept_drops_.add(1);
            ::close(fd);
            continue;
        }
        accepts_.add(1);
        auto c = std::make_unique<conn>(fd, shared_);
        c->last_activity_tick = now_tick_;
        conn& ref = *c;
        conns_.emplace(fd, std::move(c));
        interest_.emplace(fd, 0u);
        epoll_event ev{};
        ev.data.fd = fd;
        (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
        open_conns_gauge_.set(static_cast<double>(conns_.size()));
        settle(ref);
    }
}

void event_loop::handle_conn(int fd, std::uint32_t events) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) {
        return;  // closed earlier in this same wakeup batch
    }
    conn& c = *it->second;
    c.last_activity_tick = now_tick_;
    if ((events & EPOLLOUT) != 0) {
        c.on_writable();
    }
    if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0) {
        // HUP/ERR flow through the read path: read(2) reports 0 or the
        // real errno, which is how the conn learns the peer is gone even
        // mid-pending-write (the EPOLLHUP chaos scenario).
        c.on_readable();
    }
    if (!c.pending_segment().empty()) {
        ready_.push_back(fd);  // settled once its replies are queued
        return;
    }
    settle(c);
}

void event_loop::serve_ready() {
    ready_conns_.clear();
    for (const int fd : ready_) {
        // Gone (a timer closed it), or the fd already belongs to a
        // connection accepted later in this wakeup, which has no lines.
        const auto it = conns_.find(fd);
        if (it != conns_.end() && !it->second->pending_segment().empty()) {
            ready_conns_.push_back(it->second.get());
        }
    }
    ready_.clear();
    // Whole segments, in event order, up to max_shards lines per batch;
    // a segment longer than that is a batch of its own.
    for (std::size_t at = 0; at < ready_conns_.size();) {
        std::size_t lines = ready_conns_[at]->pending_segment().size();
        std::size_t end = at + 1;
        while (end < ready_conns_.size() &&
               lines + ready_conns_[end]->pending_segment().size() <=
                   exec::max_shards) {
            lines += ready_conns_[end]->pending_segment().size();
            ++end;
        }
        serve_group({ready_conns_.data() + at, end - at});
        at = end;
    }
    for (conn* c : ready_conns_) {
        settle(*c);
    }
}

void event_loop::serve_group(std::span<conn* const> group) {
    shared_.transport.wakeup_batches.add(1);
    shared_.transport.wakeup_batch_segments.add(group.size());
    if (group.size() == 1) {
        group.front()->flush_pending_batch();
        return;
    }
    segment_ends_.clear();
    std::size_t count = 0;
    for (conn* c : group) {
        for (std::string& line : c->pending_segment()) {
            batch_lines_[count++].swap(line);
        }
        segment_ends_.push_back(count);
    }
    reply_ends_.resize(group.size());
    gather_.clear();
    eng_.handle_batch_into({batch_lines_.data(), count}, segment_ends_,
                           gather_, reply_ends_);
    std::size_t begin = 0;
    for (std::size_t s = 0; s < group.size(); ++s) {
        group[s]->deliver(std::string_view{gather_}.substr(
            begin, reply_ends_[s] - begin));
        begin = reply_ends_[s];
    }
}

void event_loop::settle(conn& c) {
    const int fd = c.fd();
    if (c.finished()) {
        close_conn(fd);
        return;
    }
    if (c.wants_write()) {
        if (c.write_pending_since_tick == 0) {
            c.write_pending_since_tick = now_tick_;
        }
    } else {
        c.write_pending_since_tick = 0;
    }
    std::uint32_t want = 0;
    if (c.wants_read()) {
        want |= EPOLLIN;
    }
    if (c.wants_write()) {
        want |= EPOLLOUT;
    }
    std::uint32_t& have = interest_[fd];
    if (want != have) {
        epoll_event ev{};
        ev.events = want;
        ev.data.fd = fd;
        (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
        have = want;
    }
    if (timer_fd_ >= 0 && !c.wheel_scheduled) {
        schedule(c);
    }
}

void event_loop::close_conn(int fd) {
    // Stale wheel entries for this fd are harmless: expiry revalidates
    // against whatever connection (if any) owns the fd by then.
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    interest_.erase(fd);
    conns_.erase(fd);  // ~conn closes the fd and releases its tickets
    open_conns_gauge_.set(static_cast<double>(conns_.size()));
}

std::uint64_t event_loop::deadline_tick(const conn& c) const noexcept {
    std::uint64_t deadline = 0;
    if (idle_ticks_ != 0) {
        deadline = c.last_activity_tick + idle_ticks_;
    }
    if (write_ticks_ != 0 && c.write_pending_since_tick != 0) {
        const std::uint64_t write_deadline =
            c.write_pending_since_tick + write_ticks_;
        if (deadline == 0 || write_deadline < deadline) {
            deadline = write_deadline;
        }
    }
    return deadline;
}

void event_loop::schedule(conn& c) {
    const std::uint64_t deadline = deadline_tick(c);
    if (deadline == 0) {
        return;
    }
    const std::uint64_t at = deadline > now_tick_ ? deadline : now_tick_ + 1;
    wheel_[at % wheel_slots].push_back(c.fd());
    c.wheel_scheduled = true;
}

void event_loop::advance_wheel(std::uint64_t ticks) {
    std::vector<int> due;
    for (std::uint64_t t = 0; t < ticks; ++t) {
        ++now_tick_;
        std::vector<int>& slot = wheel_[now_tick_ % wheel_slots];
        due.insert(due.end(), slot.begin(), slot.end());
        slot.clear();
    }
    for (const int fd : due) {
        const auto it = conns_.find(fd);
        if (it == conns_.end()) {
            continue;  // stale entry: connection already gone
        }
        conn& c = *it->second;
        c.wheel_scheduled = false;
        const std::uint64_t deadline = deadline_tick(c);
        if (deadline != 0 && deadline <= now_tick_) {
            // A slot is revisited every wheel_slots ticks, so an entry
            // can surface before its (rescheduled) deadline — only the
            // recomputed deadline decides.
            timeouts_.add(1);
            close_conn(fd);
            continue;
        }
        schedule(c);
    }
}

}  // namespace silicon::serve
