#include "client.hpp"

#include "common.hpp"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

namespace silibench {

namespace {

/// The next send is awaited in ppoll unless it is closer than this.
constexpr std::int64_t kSpinNs = 30'000;
/// ppoll is asked to wake this much before the next send is due.
constexpr std::int64_t kWakeEarlyNs = 10'000;
/// How long replies may trail the last request of a phase.
constexpr std::int64_t kDrainNs = 10'000'000'000;
/// Replies read per recv call.
constexpr std::size_t kRecvChunk = 256 * 1024;

}  // namespace

verdict check_reply(std::string_view reply, std::uint32_t line,
                    const expected_replies& ex) {
    if (reply.rfind("{\"ok\":true", 0) != 0) {
        return reply.rfind("{\"ok\":false", 0) == 0 ? verdict::error
                                                     : verdict::wrong;
    }
    const std::string& full = ex.bytes[line];
    if (!full.empty()) {
        return reply == full ? verdict::ok : verdict::wrong;
    }
    return reply.size() == ex.size[line] && reply_hash(reply) == ex.hash[line]
               ? verdict::ok
               : verdict::wrong;
}

struct client::conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::vector<std::uint32_t> pending;  ///< phase positions, send order
    std::size_t head = 0;                ///< first unanswered in pending

    [[nodiscard]] std::size_t outstanding() const { return pending.size() - head; }

    void reset(std::size_t capacity) {
        pending.clear();
        pending.reserve(capacity);
        head = 0;
        in.clear();
        out.clear();
        out_off = 0;
    }

    /// One send of everything queued; false when the peer is gone.
    bool flush() {
        while (out_off < out.size()) {
            const ssize_t n = ::send(fd, out.data() + out_off,
                                     out.size() - out_off, MSG_NOSIGNAL);
            if (n > 0) {
                out_off += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                return true;  // the rest goes when ppoll reports POLLOUT
            }
            return false;
        }
        out.clear();
        out_off = 0;
        return true;
    }
};

client::client(const workload& w, const expected_replies& ex)
    : w_{w}, ex_{ex} {
    // Timer slack of 1 ns: ppoll wakes when asked, not up to 50 us later.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

client::~client() {
    for (const auto& c : conns_) {
        ::close(c->fd);
    }
}

bool client::connect(int port, int conns) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (int i = 0; i < conns; ++i) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) {
            return false;
        }
        conn* c = conns_.emplace_back(std::make_unique<conn>()).get();
        c->fd = fd;
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
            return false;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
        c->in.reserve(2 * kRecvChunk);
        c->out.reserve(1 << 20);
    }
    return true;
}

void client::account(std::string_view reply, std::uint32_t pos, phase_stats& st) {
    switch (check_reply(reply, seq_[pos], ex_)) {
        case verdict::ok: ++st.ok; break;
        case verdict::error: ++st.errors; break;
        case verdict::wrong: ++st.wrong; break;
    }
    if (!ex_.bytes[seq_[pos]].empty()) {
        ++st.byte_compared;
    }
    if (sched_ != nullptr) {
        st.latency_ms[pos] =
            static_cast<double>(t_last_reply_ - (*sched_)[pos]) * 1e-6;
    }
}

bool client::pump(std::int64_t timeout_ns, phase_stats& st) {
    pollfd fds[16];
    const std::size_t n = conns_.size();
    for (std::size_t i = 0; i < n; ++i) {
        fds[i].fd = conns_[i]->fd;
        fds[i].events = static_cast<short>(
            POLLIN | (conns_[i]->out_off < conns_[i]->out.size() ? POLLOUT : 0));
        fds[i].revents = 0;
    }
    timespec ts{timeout_ns / 1'000'000'000, timeout_ns % 1'000'000'000};
    const int ready = ::ppoll(fds, static_cast<nfds_t>(n), &ts, nullptr);
    if (ready <= 0) {
        return ready == 0 || errno == EINTR;
    }
    for (std::size_t i = 0; i < n; ++i) {
        conn& c = *conns_[i];
        if ((fds[i].revents & POLLOUT) != 0 && !c.flush()) {
            return false;
        }
        if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
            continue;
        }
        bool got_any = false;
        for (;;) {
            const std::size_t old = c.in.size();
            c.in.resize(old + kRecvChunk);
            const ssize_t got = ::recv(c.fd, c.in.data() + old, kRecvChunk, 0);
            c.in.resize(old + (got > 0 ? static_cast<std::size_t>(got) : 0));
            if (got > 0) {
                got_any = true;
                if (static_cast<std::size_t>(got) < kRecvChunk) {
                    break;
                }
                continue;
            }
            if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                break;
            }
            if (got < 0 && errno == EINTR) {
                continue;
            }
            return false;  // EOF or a connection error
        }
        if (!got_any) {
            continue;
        }
        t_last_reply_ = now_ns();
        std::size_t start = 0;
        for (;;) {
            const void* nl = std::memchr(c.in.data() + start, '\n',
                                         c.in.size() - start);
            if (nl == nullptr) {
                break;
            }
            const std::size_t end =
                static_cast<std::size_t>(static_cast<const char*>(nl) - c.in.data());
            if (c.head < c.pending.size()) {
                account({c.in.data() + start, end - start}, c.pending[c.head++], st);
            } else {
                ++st.wrong;  // a reply nobody asked for
            }
            start = end + 1;
        }
        c.in.erase(0, start);
    }
    return true;
}

phase_stats client::run_open(std::span<const std::uint32_t> seq,
                             double rate, std::uint64_t seed) {
    phase_stats st;
    const std::size_t n = seq.size();
    const std::size_t nc = conns_.size();
    // Everything the phase writes to is sized here, before the clock runs.
    std::vector<std::int64_t> sched(n);
    rng gaps = stream(seed, 0x5c4ed);
    double t = 0;
    for (std::size_t i = 0; i < n; ++i) {
        t += gaps.exponential(1e9 / rate);
        sched[i] = static_cast<std::int64_t>(t);
    }
    st.latency_ms.assign(n, std::nan(""));
    st.late_ms.assign(n, 0.0);
    for (const auto& c : conns_) {
        c->reset(n / nc + 1);
    }
    seq_ = seq;
    sched_ = &sched;
    const std::int64_t start = now_ns() + 1'000'000;
    for (std::int64_t& s : sched) {
        s += start;
    }
    std::size_t next = 0;
    bool alive = true;
    while (alive) {
        std::int64_t now = now_ns();
        if (next < n && sched[next] <= now) {
            while (next < n && sched[next] <= now) {
                conn& c = *conns_[next % nc];
                c.out += w_.lines[seq[next]];
                c.pending.push_back(static_cast<std::uint32_t>(next));
                st.late_ms[next] = static_cast<double>(now - sched[next]) * 1e-6;
                st.lanes += w_.info[seq[next]].sweep_lanes;
                st.cached_lanes += w_.info[seq[next]].cached_lanes;
                ++next;
            }
            for (const auto& c : conns_) {
                if (c->out_off < c->out.size() && !c->flush()) {
                    alive = false;
                }
            }
        }
        if (next == n && st.ok + st.errors + st.wrong >= n) {
            break;
        }
        now = now_ns();
        if (next == n && now > sched[n - 1] + kDrainNs) {
            break;
        }
        const std::int64_t wait = next < n ? sched[next] - now : 50'000'000;
        alive = alive && pump(wait > kSpinNs ? wait - kWakeEarlyNs : 0, st);
    }
    st.sent = next;
    st.unanswered = next - (st.ok + st.errors + st.wrong);
    st.elapsed_s = static_cast<double>(t_last_reply_ - start) * 1e-9;
    sched_ = nullptr;
    seq_ = {};
    return st;
}

phase_stats client::run_closed(std::span<const std::uint32_t> seq,
                               unsigned window, double seconds) {
    phase_stats st;
    const std::size_t n = seq.size();
    for (const auto& c : conns_) {
        c->reset(n);
    }
    seq_ = seq;
    const std::int64_t start = now_ns();
    const std::int64_t stop =
        seconds > 0 ? start + static_cast<std::int64_t>(seconds * 1e9) : INT64_MAX;
    std::size_t next = 0;
    bool alive = true;
    std::int64_t stopped_at = 0;
    while (alive) {
        const std::int64_t now = now_ns();
        const bool issuing = next < n && now < stop;
        if (issuing) {
            for (const auto& c : conns_) {
                while (c->outstanding() < window && next < n) {
                    c->out += w_.lines[seq[next]];
                    c->pending.push_back(static_cast<std::uint32_t>(next));
                    st.lanes += w_.info[seq[next]].sweep_lanes;
                    st.cached_lanes += w_.info[seq[next]].cached_lanes;
                    ++next;
                }
                if (c->out_off < c->out.size() && !c->flush()) {
                    alive = false;
                }
            }
        } else if (stopped_at == 0) {
            stopped_at = now;
        }
        if (!issuing && st.ok + st.errors + st.wrong >= next) {
            break;
        }
        if (stopped_at != 0 && now > stopped_at + kDrainNs) {
            break;
        }
        alive = alive && pump(10'000'000, st);
    }
    st.sent = next;
    st.unanswered = next - (st.ok + st.errors + st.wrong);
    st.elapsed_s = static_cast<double>(t_last_reply_ - start) * 1e-9;
    st.exhausted = seconds > 0 && next == n && stopped_at < stop;
    seq_ = {};
    return st;
}

bool client::ping_pong(std::uint32_t line, std::vector<double>& rtt_us) {
    const std::vector<std::uint32_t> seq(rtt_us.size(), line);
    conn& c = *conns_.front();
    c.reset(seq.size());
    seq_ = seq;
    phase_stats st;
    bool alive = true;
    for (std::size_t i = 0; i < seq.size() && alive; ++i) {
        const std::int64_t t0 = now_ns();
        c.out += w_.lines[line];
        c.pending.push_back(static_cast<std::uint32_t>(i));
        alive = c.flush();
        while (alive && st.ok + st.errors + st.wrong <= i) {
            alive = pump(1'000'000'000, st);
        }
        rtt_us[i] = static_cast<double>(t_last_reply_ - t0) * 1e-3;
    }
    seq_ = {};
    return alive && st.ok == seq.size();
}

}  // namespace silibench
