// gate.hpp — the validity gate and the source of reference replies.
//
// Every generated line is answered by an in-process reference
// `serve::engine` (cache off, parallelism 1) before it is used.  A line
// the reference does not answer `ok` is dropped, so a failure in the
// timed phases is the server's, never the generator's.  The reference
// replies become the checker's expected bytes: a 64-bit hash of every
// reply, and the full bytes of the lines in `keep_bytes`.

#pragma once

#include "client.hpp"
#include "workload.hpp"

#include <vector>

namespace silibench {

struct gate_result {
    expected_replies expected;
    std::vector<bool> ok;  ///< per line: the reference answered ok
    double seconds = 0;
};

/// Runs every line of `w` through the reference engine on `threads`
/// threads (each line is independent; the engine is thread-safe).
[[nodiscard]] gate_result run_gate(const workload& w,
                                   const std::vector<bool>& keep_bytes,
                                   unsigned threads);

}  // namespace silibench
