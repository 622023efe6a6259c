#include "gate.hpp"

#include "common.hpp"
#include "serve/engine.hpp"

#include <thread>

namespace silibench {

gate_result run_gate(const workload& w, const std::vector<bool>& keep_bytes,
                     unsigned threads) {
    const std::int64_t t0 = now_ns();
    const std::size_t n = w.lines.size();
    gate_result g;
    g.expected.hash.resize(n);
    g.expected.size.resize(n);
    g.expected.bytes.resize(n);
    std::vector<char> ok(n, 0);

    silicon::serve::engine_config cfg;
    cfg.parallelism = 1;
    cfg.cache_capacity = 0;
    silicon::serve::engine reference{cfg};

    const auto work = [&](std::size_t begin, std::size_t end) {
        std::string reply;
        for (std::size_t i = begin; i < end; ++i) {
            std::string_view line = w.lines[i];
            line.remove_suffix(1);  // the '\n'
            reference.handle_line_into(line, reply);
            ok[i] = reply.rfind("{\"ok\":true", 0) == 0 ? 1 : 0;
            g.expected.hash[i] = reply_hash(reply);
            g.expected.size[i] = static_cast<std::uint32_t>(reply.size());
            if (keep_bytes[i]) {
                g.expected.bytes[i] = reply;
            }
        }
    };
    // Interleaved blocks keep the threads balanced when costs cluster.
    constexpr std::size_t kBlock = 256;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t b = t * kBlock; b < n; b += threads * kBlock) {
                work(b, std::min(n, b + kBlock));
            }
        });
    }
    for (std::thread& th : pool) {
        th.join();
    }
    g.ok.assign(ok.begin(), ok.end());
    g.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    return g;
}

}  // namespace silibench
