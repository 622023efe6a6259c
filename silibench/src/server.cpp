#include "server.hpp"

#include "common.hpp"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace silibench {

bool spawn_server(const std::string& binary, server& s) {
    int fds[2];
    if (::pipe(fds) != 0) {
        return false;
    }
    std::vector<std::string> args{binary, "--port", "0"};
    s.command_line.clear();
    for (const std::string& a : args) {
        s.command_line += (s.command_line.empty() ? "" : " ") + a;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return false;
    }
    if (pid == 0) {
        // The server must not outlive the benchmark, however it ends.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        // Undo the client's CPU pinning: silicond gets every CPU.
        cpu_set_t all;
        CPU_ZERO(&all);
        for (unsigned c = 0; c < CPU_SETSIZE; ++c) {
            CPU_SET(c, &all);
        }
        ::sched_setaffinity(0, sizeof all, &all);
        ::close(fds[0]);
        ::dup2(fds[1], STDERR_FILENO);
        ::close(fds[1]);
        std::vector<char*> argv;
        for (std::string& a : args) {
            argv.push_back(a.data());
        }
        argv.push_back(nullptr);
        ::execv(binary.c_str(), argv.data());
        std::_Exit(127);
    }
    ::close(fds[1]);
    s.pid = pid;
    s.stderr_fd = fds[0];
    return true;
}

namespace {

/// The JSON string value of `"key":"..."` in `log`, or empty.
std::string log_field(const std::string& log, std::string_view key) {
    const std::string pat = "\"" + std::string{key} + "\":\"";
    const std::size_t at = log.find(pat);
    if (at == std::string::npos) {
        return {};
    }
    const std::size_t b = at + pat.size();
    const std::size_t e = log.find('"', b);
    return e == std::string::npos ? std::string{} : log.substr(b, e - b);
}

}  // namespace

bool await_listening(server& s, int timeout_ms) {
    std::string log;
    char buf[1024];
    const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
    while (now_ns() < deadline) {
        pollfd p{s.stderr_fd, POLLIN, 0};
        if (::poll(&p, 1, 20) <= 0) {
            continue;
        }
        const ssize_t got = ::read(s.stderr_fd, buf, sizeof buf);
        if (got <= 0) {
            break;
        }
        log.append(buf, static_cast<std::size_t>(got));
        const std::size_t at = log.find("silicond.listening");
        if (at == std::string::npos) {
            continue;
        }
        const std::size_t key = log.find("\"port\":", at);
        const std::size_t end = key == std::string::npos
                                    ? std::string::npos
                                    : log.find_first_not_of("0123456789", key + 7);
        if (end == std::string::npos) {
            continue;
        }
        s.port = std::atoi(log.c_str() + key + 7);
        s.simd_target = log_field(log, "simd_target");
        return s.port > 0;
    }
    std::fprintf(stderr, "silibench: silicond did not start; log:\n%s\n",
                 log.c_str());
    return false;
}

void stop_server(server& s) {
    if (s.pid > 0) {
        ::kill(s.pid, SIGTERM);
        int status = 0;
        bool reaped = false;
        for (int i = 0; i < 200 && !reaped; ++i) {
            reaped = ::waitpid(s.pid, &status, WNOHANG) == s.pid;
            if (!reaped) {
                std::this_thread::sleep_for(std::chrono::milliseconds{10});
            }
        }
        if (!reaped) {
            ::kill(s.pid, SIGKILL);
            ::waitpid(s.pid, &status, 0);
        }
        s.pid = -1;
    }
    if (s.stderr_fd >= 0) {
        ::close(s.stderr_fd);
        s.stderr_fd = -1;
    }
}

double cpu_seconds(pid_t pid) {
    const std::string dir = "/proc/" + std::to_string(pid) + "/task";
    std::error_code ec;
    double ns = 0;
    for (const auto& task : std::filesystem::directory_iterator{dir, ec}) {
        std::ifstream f{task.path() / "schedstat"};
        double on_cpu = 0;
        if (f >> on_cpu) {
            ns += on_cpu;
        }
    }
    return ec ? std::nan("") : ns * 1e-9;
}

double peak_rss_mb(pid_t pid) {
    std::ifstream f{"/proc/" + std::to_string(pid) + "/status"};
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return std::nan("");
}

scrape parse_prometheus(std::string_view text) {
    scrape out;
    while (!text.empty()) {
        const std::size_t nl = text.find('\n');
        std::string_view line = text.substr(0, nl);
        text = nl == std::string_view::npos ? std::string_view{}
                                            : text.substr(nl + 1);
        if (!line.empty() && line.back() == '\r') {
            line.remove_suffix(1);
        }
        if (line.empty() || line.front() == '#') {
            continue;
        }
        // The series ends at the first space after the closing brace
        // (label values may themselves contain spaces).
        const std::size_t brace = line.find('{');
        std::size_t series_end = line.find(' ');
        if (brace != std::string_view::npos && brace < series_end) {
            const std::size_t close = line.find('}', brace);
            if (close == std::string_view::npos) {
                continue;
            }
            series_end = line.find(' ', close);
        }
        if (series_end == std::string_view::npos) {
            continue;
        }
        const std::string value{line.substr(series_end + 1)};
        char* end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        if (end == value.c_str()) {
            continue;
        }
        out[std::string{line.substr(0, series_end)}] = v;
    }
    return out;
}

double sum_series(const scrape& s, std::string_view name,
                  std::string_view label) {
    double total = 0;
    for (auto it = s.lower_bound(name); it != s.end(); ++it) {
        const std::string_view key = it->first;
        if (key.substr(0, name.size()) != name) {
            break;
        }
        const std::string_view rest = key.substr(name.size());
        if (!rest.empty() && rest.front() != '{') {
            continue;  // a longer metric name sharing the prefix
        }
        if (!label.empty() && rest.find(label) == std::string_view::npos) {
            continue;
        }
        total += it->second;
    }
    return total;
}

void add_delta(scrape& into, const scrape& after, const scrape& before) {
    for (const auto& [series, value] : after) {
        const auto it = before.find(series);
        into[series] += value - (it == before.end() ? 0.0 : it->second);
    }
}

scrape fetch_metrics(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return {};
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    std::string body;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
        const std::string_view req =
            "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
        if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(req.size())) {
            char buf[65536];
            for (;;) {
                pollfd p{fd, POLLIN, 0};
                if (::poll(&p, 1, 5000) <= 0) {
                    break;
                }
                const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
                if (got <= 0) {
                    break;
                }
                body.append(buf, static_cast<std::size_t>(got));
            }
        }
    }
    ::close(fd);
    const std::size_t start = body.find("\r\n\r\n");
    if (body.rfind("HTTP/1.1 200", 0) != 0 || start == std::string::npos) {
        return {};
    }
    return parse_prometheus(std::string_view{body}.substr(start + 4));
}

}  // namespace silibench
