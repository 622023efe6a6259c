#include "idle_poll.hpp"

#include <algorithm>

#include <pthread.h>
#include <sched.h>

namespace silibench {

idle_poll::idle_poll() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned cpu = 0; cpu < n; ++cpu) {
        threads_.emplace_back([this, cpu] {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(cpu, &set);
            pthread_setaffinity_np(pthread_self(), sizeof set, &set);
            sched_param none{};
            pthread_setschedparam(pthread_self(), SCHED_IDLE, &none);
            while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
                __builtin_ia32_pause();
#endif
            }
        });
    }
}

idle_poll::~idle_poll() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) {
        t.join();
    }
}

}  // namespace silibench
