// silicond_child.hpp — silicond as a child process of a test tool.
//
// chaosclient and loadgen both spawn `silicond --port 0 <extra...>`
// with its stderr piped back, learn the bound port from the
// `silicond.listening` log line, talk to it over loopback TCP and stop
// it with SIGTERM.  Header-only, POSIX.

#pragma once

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
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

namespace silicond_child {

/// How long a child may take to report its port (CI and ASan are slow).
inline constexpr int kStartupTimeoutMs = 30000;

struct server {
    pid_t pid = -1;
    int stderr_fd = -1;  ///< read side of the child's stderr
    int port = 0;
};

/// Spawn `silicond --port 0 <extra...>` with stderr piped back to us.
inline server spawn_silicond(const char* binary,
                             const std::vector<std::string>& extra) {
    server s;
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
        std::perror("pipe");
        return s;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("fork");
        ::close(pipe_fds[0]);
        ::close(pipe_fds[1]);
        return s;
    }
    if (pid == 0) {
        ::close(pipe_fds[0]);
        ::dup2(pipe_fds[1], STDERR_FILENO);
        ::close(pipe_fds[1]);
        std::vector<std::string> args{binary, "--port", "0"};
        args.insert(args.end(), extra.begin(), extra.end());
        std::vector<char*> argv;
        argv.reserve(args.size() + 1);
        for (std::string& a : args) {
            argv.push_back(a.data());
        }
        argv.push_back(nullptr);
        ::execv(binary, argv.data());
        std::perror("execv");
        std::_Exit(127);
    }
    ::close(pipe_fds[1]);
    s.pid = pid;
    s.stderr_fd = pipe_fds[0];
    return s;
}

/// Read the child's stderr until the `silicond.listening` log line
/// appears and extract the bound port from its `"port":N` field; 0 if
/// it never does.
inline int await_port(server& s) {
    std::string log;
    char buf[512];
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds{kStartupTimeoutMs};
    while (std::chrono::steady_clock::now() < deadline) {
        pollfd p{s.stderr_fd, POLLIN, 0};
        if (::poll(&p, 1, 100) <= 0) {
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
        if (key == std::string::npos) {
            continue;  // field not fully received yet
        }
        int port = 0;
        std::size_t i = key + 7;
        while (i < log.size() && log[i] >= '0' && log[i] <= '9') {
            port = port * 10 + (log[i] - '0');
            ++i;
        }
        if (i < log.size() && port > 0) {
            return port;
        }
    }
    std::cerr << "silicond never reported a port; stderr so far:\n"
              << log << "\n";
    return 0;
}

/// SIGTERM the child and reap it, SIGKILL after about 5 s.  Returns
/// false when it had to be killed.
inline bool stop_silicond(server& s) {
    bool clean = true;
    if (s.pid > 0) {
        ::kill(s.pid, SIGTERM);
        int status = 0;
        for (int i = 0; i < 100; ++i) {
            if (::waitpid(s.pid, &status, WNOHANG) == s.pid) {
                s.pid = -1;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds{50});
        }
        if (s.pid > 0) {
            std::cerr << "silicond ignored SIGTERM, killing\n";
            ::kill(s.pid, SIGKILL);
            ::waitpid(s.pid, &status, 0);
            s.pid = -1;
            clean = false;
        }
    }
    if (s.stderr_fd >= 0) {
        ::close(s.stderr_fd);
        s.stderr_fd = -1;
    }
    return clean;
}

/// A blocking loopback connection to `port`, retried for about a
/// second; -1 on failure.
inline int connect_to(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return -1;
    }
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(static_cast<std::uint16_t>(port));
    for (int attempt = 0; attempt < 50; ++attempt) {
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof address) == 0) {
            return fd;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{20});
    }
    ::close(fd);
    return -1;
}

}  // namespace silicond_child
