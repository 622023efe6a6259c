// idle_poll.hpp — keeps every CPU out of the hypervisor's halt path.
//
// On a virtual machine an idle vCPU halts, and waking it again waits for
// the host to schedule it: microseconds on a quiet host, milliseconds on
// a busy one.  silicond's reactor and pool threads sleep and wake on
// every batch, so without this the open-phase latency and the closed-
// phase capacity follow the neighbours' load, not silicond.  One
// SCHED_IDLE thread per CPU spins (with `pause`) whenever nothing else
// wants that CPU; any runnable thread preempts it at once, so it never
// competes with silicond or the client for time, only fills idle time.

#pragma once

#include <atomic>
#include <thread>
#include <vector>

namespace silibench {

class idle_poll {
public:
    /// Starts one spinning SCHED_IDLE thread pinned to each CPU.
    idle_poll();
    /// Stops and joins them.
    ~idle_poll();
    idle_poll(const idle_poll&) = delete;
    idle_poll& operator=(const idle_poll&) = delete;

private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

}  // namespace silibench
