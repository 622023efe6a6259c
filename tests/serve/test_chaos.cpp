// Overload, deadline, fault-injection and transport-robustness tests
// (DESIGN.md §11).  Lives in its own test binary: the fault switchboard
// (serve/faults) is process-global state, and these tests arm it — they
// must not share a process with the rest of the serve suite.

#include "exec/cancel.hpp"
#include "exec/thread_pool.hpp"
#include "serve/engine.hpp"
#include "serve/event_loop.hpp"
#include "serve/faults.hpp"
#include "serve/io.hpp"
#include "serve/json.hpp"
#include "serve/limits.hpp"
#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace faults = silicon::serve::faults;
namespace io = silicon::serve::io;
using silicon::serve::admission_controller;
using silicon::serve::append_batch_too_large;
using silicon::serve::append_line_too_large;
using silicon::serve::append_overloaded;
using silicon::serve::scan_trace_id;
using silicon::serve::engine;
using silicon::serve::engine_config;
using silicon::serve::reject_reason;

namespace {

/// Every test leaves the global switchboard disarmed.
struct faults_guard {
    ~faults_guard() { faults::reset(); }
};

std::string error_code(const std::string& response) {
    const silicon::serve::json::value v =
        silicon::serve::json::parse(response);
    const auto* ok = v.as_object().find("ok");
    if (ok == nullptr || !ok->is_bool() || ok->as_bool()) {
        return "";
    }
    return std::string{
        v.as_object().find("error")->as_object().find("code")->as_string()};
}

// ---------------------------------------------------------------------------
// Fault switchboard
// ---------------------------------------------------------------------------

TEST(Faults, MalformedSpecsThrowLoudly) {
    const faults_guard guard;
    EXPECT_THROW(faults::configure("nonsense"), std::invalid_argument);
    EXPECT_THROW(faults::configure("explode@serve.line"),
                 std::invalid_argument);
    EXPECT_THROW(faults::configure("alloc_fail@"), std::invalid_argument);
    EXPECT_THROW(faults::configure("alloc_fail@serve.line:0"),
                 std::invalid_argument);
    EXPECT_THROW(faults::configure("alloc_fail@serve.line:x"),
                 std::invalid_argument);
    EXPECT_THROW(faults::configure("alloc_fail@serve.line,"),
                 std::invalid_argument);
    EXPECT_FALSE(faults::enabled());
}

TEST(Faults, EmptySpecDisarms) {
    const faults_guard guard;
    faults::configure("alloc_fail@serve.line");
    EXPECT_TRUE(faults::enabled());
    faults::configure("");
    EXPECT_FALSE(faults::enabled());
    EXPECT_FALSE(faults::should_fail("serve.line"));
}

TEST(Faults, AllocFailPeriodicity) {
    const faults_guard guard;
    faults::configure("alloc_fail@serve.arena:3");
    int fired = 0;
    for (int i = 0; i < 9; ++i) {
        if (faults::should_fail("serve.arena")) {
            ++fired;
        }
    }
    EXPECT_EQ(fired, 3);  // every 3rd arrival
    EXPECT_EQ(faults::injected("serve.arena"), 3u);
    EXPECT_EQ(faults::injected_total(), 3u);
    // Other sites are untouched.
    EXPECT_FALSE(faults::should_fail("serve.line"));
}

TEST(Faults, EintrCyclesNFailuresThenSuccess) {
    const faults_guard guard;
    faults::configure("eintr@silicond.write:2");
    EXPECT_TRUE(faults::take_eintr("silicond.write"));
    EXPECT_TRUE(faults::take_eintr("silicond.write"));
    EXPECT_FALSE(faults::take_eintr("silicond.write"));  // the success
    EXPECT_TRUE(faults::take_eintr("silicond.write"));   // cycle repeats
    EXPECT_EQ(faults::injected("silicond.write"), 3u);
}

TEST(Faults, ShortWriteCapAndReset) {
    const faults_guard guard;
    faults::configure("short_write@silicond.write:7");
    EXPECT_EQ(faults::write_cap("silicond.write"), 7u);
    EXPECT_EQ(faults::write_cap("silicond.read"), 0u);
    faults::reset();
    EXPECT_EQ(faults::write_cap("silicond.write"), 0u);
    EXPECT_EQ(faults::injected_total(), 0u);
}

// ---------------------------------------------------------------------------
// EINTR-safe writes
// ---------------------------------------------------------------------------

TEST(WriteAll, RetriesShortWritesAndEintr) {
    std::string sink;
    int eintrs_left = 3;
    const io::write_fn shim = [&](const char* data, std::size_t size) -> long {
        if (eintrs_left > 0) {
            --eintrs_left;
            errno = EINTR;
            return -1;
        }
        // Accept at most 2 bytes per call: forces short-write retries.
        const std::size_t take = size < 2 ? size : 2;
        sink.append(data, take);
        return static_cast<long>(take);
    };
    EXPECT_TRUE(io::write_all("hello, world", shim));
    EXPECT_EQ(sink, "hello, world");
    EXPECT_EQ(eintrs_left, 0);
}

TEST(WriteAll, HardErrorReturnsFalse) {
    int calls = 0;
    const io::write_fn shim = [&](const char*, std::size_t) -> long {
        ++calls;
        errno = EPIPE;
        return -1;
    };
    EXPECT_FALSE(io::write_all("data", shim));
    EXPECT_EQ(calls, 1);  // no retry on a dead peer
}

TEST(WriteAll, EmptyDataSucceedsWithoutWriting) {
    const io::write_fn shim = [](const char*, std::size_t) -> long {
        ADD_FAILURE() << "write_fn called for empty data";
        return -1;
    };
    EXPECT_TRUE(io::write_all("", shim));
}

// ---------------------------------------------------------------------------
// Bounded line framing
// ---------------------------------------------------------------------------

struct framed {
    std::string line;
    bool oversized;
};

std::vector<framed> frame(io::line_splitter& splitter,
                          const std::vector<std::string>& chunks,
                          bool finish = true) {
    std::vector<framed> out;
    const auto on_line = [&](std::string_view line, bool oversized) {
        out.push_back({std::string{line}, oversized});
    };
    for (const std::string& chunk : chunks) {
        splitter.feed(chunk, on_line);
    }
    if (finish) {
        splitter.finish(on_line);
    }
    return out;
}

TEST(LineSplitter, SplitsAcrossChunkBoundaries) {
    io::line_splitter splitter{64};
    const std::vector<framed> lines =
        frame(splitter, {"ab", "c\nde", "f\n", "tail"});
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0].line, "abc");
    EXPECT_EQ(lines[1].line, "def");
    EXPECT_EQ(lines[2].line, "tail");  // finish() delivers the remainder
    for (const framed& f : lines) {
        EXPECT_FALSE(f.oversized);
    }
}

TEST(LineSplitter, StripsOneTrailingCarriageReturn) {
    io::line_splitter splitter{64};
    const std::vector<framed> lines = frame(splitter, {"a\r\nb\r\r\n"});
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].line, "a");
    EXPECT_EQ(lines[1].line, "b\r");  // only one CR stripped
}

TEST(LineSplitter, OversizedLineIsDiscardedOnceInOrder) {
    io::line_splitter splitter{6};
    const std::vector<framed> lines =
        frame(splitter, {"ok\n", std::string(10, 'x') + "\nafter\n"});
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0].line, "ok");
    EXPECT_TRUE(lines[1].oversized);
    EXPECT_TRUE(lines[1].line.empty());  // content dropped, not delivered
    EXPECT_EQ(lines[2].line, "after");
    EXPECT_FALSE(lines[2].oversized);
}

TEST(LineSplitter, NewlineFreeFloodIsBoundedAndReportedOnce) {
    io::line_splitter splitter{8};
    std::vector<framed> events;
    const auto on_line = [&](std::string_view line, bool oversized) {
        events.push_back({std::string{line}, oversized});
    };
    // 1 MiB without a newline must not buffer more than the budget.
    const std::string chunk(4096, 'y');
    for (int i = 0; i < 256; ++i) {
        splitter.feed(chunk, on_line);
        EXPECT_LE(splitter.buffered_bytes(), 8u);
    }
    ASSERT_EQ(events.size(), 1u);  // one event for the whole flood
    EXPECT_TRUE(events[0].oversized);
    // The flood's eventual newline ends the discard; framing recovers.
    splitter.feed("\nok\n", on_line);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].line, "ok");
    EXPECT_FALSE(events[1].oversized);
}

TEST(LineSplitter, FinishReportsOversizedPartial) {
    io::line_splitter splitter{4};
    const std::vector<framed> lines = frame(splitter, {"toolongtail"});
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_TRUE(lines[0].oversized);
}

TEST(LineSplitter, ZeroBudgetIsUnbounded) {
    io::line_splitter splitter{0};
    const std::string big(1 << 20, 'z');
    const std::vector<framed> lines = frame(splitter, {big + "\n"});
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_FALSE(lines[0].oversized);
    EXPECT_EQ(lines[0].line.size(), big.size());
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(Admission, ZeroBudgetAdmitsWithoutLedger) {
    admission_controller ac;
    const auto ticket = ac.admit(1 << 30, 0);
    EXPECT_TRUE(static_cast<bool>(ticket));
    EXPECT_EQ(ac.inflight_bytes(), 0u);
}

TEST(Admission, TicketReleasesItsBytes) {
    admission_controller ac;
    {
        const auto ticket = ac.admit(100, 1000);
        EXPECT_TRUE(static_cast<bool>(ticket));
        EXPECT_EQ(ac.inflight_bytes(), 100u);
    }
    EXPECT_EQ(ac.inflight_bytes(), 0u);
}

TEST(Admission, OverBudgetRejectsAndRollsBack) {
    admission_controller ac;
    const auto held = ac.admit(900, 1000);
    const auto rejected = ac.admit(200, 1000, /*rejected_lines=*/3);
    EXPECT_FALSE(static_cast<bool>(rejected));
    EXPECT_EQ(ac.inflight_bytes(), 900u);  // rollback left no residue
    EXPECT_EQ(ac.rejected(reject_reason::overloaded), 3u);
    EXPECT_EQ(ac.rejected_total(), 3u);
}

TEST(Admission, OversizedButAloneIsAdmitted) {
    // A request bigger than the whole budget must still run when the
    // server is idle — budgets shed load, they do not ban inputs.
    admission_controller ac;
    const auto ticket = ac.admit(5000, 1000);
    EXPECT_TRUE(static_cast<bool>(ticket));
    // ...but it blocks everything else until it releases.
    const auto second = ac.admit(1, 1000);
    EXPECT_FALSE(static_cast<bool>(second));
}

// ---------------------------------------------------------------------------
// Shed-path trace correlation: scan_trace_id + the rejection envelopes
// ---------------------------------------------------------------------------

TEST(ScanTraceId, FindsTheStillEscapedMember) {
    EXPECT_EQ(scan_trace_id(R"({"op":"x","trace_id":"t-1"})"), "t-1");
    EXPECT_EQ(scan_trace_id(R"({"trace_id" : "a b","op":"x"})"), "a b");
    // Escapes are returned raw so they can be spliced verbatim.
    EXPECT_EQ(scan_trace_id(R"({"trace_id":"say \"hi\"\n"})"),
              R"(say \"hi\"\n)");
    EXPECT_EQ(scan_trace_id(R"({"trace_id":"é☃"})"),
              R"(é☃)");
}

TEST(ScanTraceId, RejectsMalformedOrMissing) {
    EXPECT_EQ(scan_trace_id(R"({"op":"x"})"), "");
    EXPECT_EQ(scan_trace_id(R"({"trace_id":42})"), "");
    EXPECT_EQ(scan_trace_id(R"({"trace_id":"unterminated)"), "");
    EXPECT_EQ(scan_trace_id("{\"trace_id\":\"ctrl\x01byte\"}"), "");
    EXPECT_EQ(scan_trace_id(R"({"trace_id":"bad \q escape"})"), "");
    EXPECT_EQ(scan_trace_id(R"({"trace_id":"bad \u12g4 hex"})"), "");
    // Beyond the bounded scan window the member is ignored.
    const std::string far = "{\"pad\":\"" + std::string(5000, 'x') +
                            "\",\"trace_id\":\"t-far\"}";
    EXPECT_EQ(scan_trace_id(far), "");
}

TEST(RejectionEnvelopes, OverloadedEchoesScannedTrace) {
    std::string out;
    append_overloaded(scan_trace_id(R"({"op":"x","trace_id":"t-o"})"), out);
    EXPECT_EQ(out.rfind(R"({"trace_id":"t-o","ok":false)", 0), 0u) << out;
    EXPECT_NE(out.find(R"("code":"overloaded")"), std::string::npos);

    // No trace in the line: the envelope is byte-identical to the
    // pre-trace format (the golden-compatibility contract).
    std::string bare;
    append_overloaded(scan_trace_id(R"({"op":"x"})"), bare);
    EXPECT_EQ(bare.rfind(R"({"ok":false)", 0), 0u) << bare;
    EXPECT_EQ(bare.find("trace_id"), std::string::npos);
}

TEST(RejectionEnvelopes, BatchTooLargeEchoesScannedTrace) {
    std::string out;
    append_batch_too_large(64, scan_trace_id(R"({"trace_id":"t-b"})"), out);
    EXPECT_EQ(out.rfind(R"({"trace_id":"t-b","ok":false)", 0), 0u) << out;
    EXPECT_NE(out.find("max_batch_lines 64"), std::string::npos);
}

TEST(RejectionEnvelopes, LineTooLargeStaysTraceFree) {
    // An over-long line's framing is suspect; nothing scanned out of
    // it is trustworthy, so the envelope never carries a trace.
    std::string out;
    append_line_too_large(128, out);
    EXPECT_EQ(out.find("trace_id"), std::string::npos);
    EXPECT_NE(out.find("max_line_bytes 128"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine limits: structural too_large rejections
// ---------------------------------------------------------------------------

engine_config limited_config() {
    engine_config config;
    config.parallelism = 1;
    config.limits.max_line_bytes = 96;
    config.limits.max_batch_lines = 3;
    config.limits.max_sweep_points = 8;
    config.limits.max_mc_dies = 100;
    return config;
}

TEST(EngineLimits, LongLineAnsweredTooLarge) {
    engine e{limited_config()};
    const std::string line =
        "{\"op\":\"scenario1\",\"note\":\"" + std::string(200, 'x') + "\"}";
    const std::string response = e.handle_line(line);
    EXPECT_EQ(error_code(response), "too_large");
    EXPECT_NE(response.find("max_line_bytes 96"), std::string::npos);
    EXPECT_EQ(e.admission().rejected(reject_reason::line_too_large), 1u);
}

TEST(EngineLimits, OversizedBatchRejectsEveryLine) {
    engine e{limited_config()};
    const std::vector<std::string> lines(5, "{\"op\":\"scenario1\"}");
    const std::vector<std::string> responses = e.handle_batch(lines);
    ASSERT_EQ(responses.size(), 5u);
    for (const std::string& response : responses) {
        EXPECT_EQ(error_code(response), "too_large");
        EXPECT_NE(response.find("max_batch_lines 3"), std::string::npos);
    }
    EXPECT_EQ(e.admission().rejected(reject_reason::batch_too_large), 5u);
}

TEST(EngineLimits, SweepAndMcBudgets) {
    engine e{limited_config()};
    const std::string sweep = e.handle_line(
        "{\"op\":\"sweep\",\"param\":\"lambda_um\",\"from\":0.1,\"to\":1.0,"
        "\"count\":9,\"target\":{\"op\":\"scenario1\"}}");
    EXPECT_EQ(error_code(sweep), "too_large");
    EXPECT_EQ(e.admission().rejected(reject_reason::sweep_too_large), 1u);

    const std::string mc =
        e.handle_line("{\"op\":\"mc_yield\",\"dies\":101,\"seed\":1}");
    EXPECT_EQ(error_code(mc), "too_large");
    EXPECT_EQ(e.admission().rejected(reject_reason::mc_too_large), 1u);

    // At the budget is fine.
    const std::string ok =
        e.handle_line("{\"op\":\"mc_yield\",\"dies\":100,\"seed\":1}");
    EXPECT_EQ(error_code(ok), "");
}

TEST(EngineLimits, PartitionExploreGridChargesCellsAgainstSweepBudget) {
    engine e{limited_config()};  // max_sweep_points = 8
    // 3 splits x 3 grid points = 9 cells: one past the budget.
    const std::string over = e.handle_line(
        "{\"op\":\"partition_explore\",\"splits\":\"1,2,4\",\"count\":3}");
    EXPECT_EQ(error_code(over), "too_large");
    EXPECT_NE(over.find("max_sweep_points 8"), std::string::npos);
    EXPECT_EQ(e.admission().rejected(reject_reason::explore_too_large), 1u);

    // 2 splits x 4 grid points = 8 cells: exactly at the budget.
    const std::string ok = e.handle_line(
        "{\"op\":\"partition_explore\",\"splits\":\"1,2\",\"count\":4}");
    EXPECT_EQ(error_code(ok), "");
    EXPECT_EQ(e.admission().rejected(reject_reason::explore_too_large), 1u);
}

TEST(EngineLimits, InflightBudgetAnswersOverloadedWithoutResidue) {
    engine_config config;
    config.parallelism = 1;
    config.limits.max_inflight_bytes = 1;
    engine tight{config};
    // The first admit always passes (alone), so issue two lines and use
    // the admission ledger to prove the reject + rollback shape instead
    // of racing real concurrency: handle_line admits, serves, releases —
    // serially each line is alone, so both succeed...
    EXPECT_EQ(error_code(tight.handle_line("{\"op\":\"scenario1\"}")), "");
    EXPECT_EQ(tight.admission().inflight_bytes(), 0u);
    // ...and the overloaded envelope itself is exercised at the
    // admission-controller layer (Admission.OverBudgetRejectsAndRollsBack)
    // plus end-to-end by tools/chaosclient.
}

TEST(EngineLimits, UnlimitedConfigBytesIdenticalToLimited) {
    // A request under every budget must serialize byte-identically with
    // and without limits armed (the golden-compatibility contract).
    engine_config plain;
    plain.parallelism = 1;
    engine unlimited{plain};
    engine limited{limited_config()};
    for (const char* line :
         {"{\"op\":\"scenario1\"}", "{\"op\":\"mc_yield\",\"dies\":50}",
          "{\"op\":\"gross_die\"}", "not json"}) {
        EXPECT_EQ(unlimited.handle_line(line), limited.handle_line(line))
            << line;
    }
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(Deadlines, ZeroDeadlineAnswersDeadlineExceeded) {
    engine_config config;
    config.parallelism = 1;
    engine e{config};
    const std::string response = e.handle_line(
        "{\"op\":\"mc_yield\",\"dies\":50,\"seed\":3,\"deadline_ms\":0,"
        "\"id\":\"z\"}");
    EXPECT_EQ(error_code(response), "deadline_exceeded");
    EXPECT_NE(response.find("\"id\":\"z\""), std::string::npos);
    EXPECT_EQ(e.deadline_exceeded_total(), 1u);
}

TEST(Deadlines, ZeroDeadlineIsByteDeterministicAcrossThreads) {
    const std::vector<std::string> lines{
        "{\"op\":\"mc_yield\",\"dies\":50,\"seed\":3,\"deadline_ms\":0}",
        "{\"op\":\"sweep\",\"param\":\"lambda_um\",\"from\":0.1,\"to\":1.0,"
        "\"count\":4,\"target\":{\"op\":\"scenario1\"},\"deadline_ms\":0}",
        "{\"op\":\"scenario1\",\"deadline_ms\":0}",
        "{\"op\":\"chiplet\",\"deadline_ms\":0}",
        "{\"op\":\"partition_explore\",\"splits\":\"1,2,4\",\"count\":5,"
        "\"deadline_ms\":0}",
    };
    std::vector<std::vector<std::string>> outputs;
    for (const unsigned threads : {1u, 4u, 0u}) {
        engine_config config;
        config.parallelism = threads;
        engine e{config};
        outputs.push_back(e.handle_batch(lines));
    }
    EXPECT_EQ(outputs[0], outputs[1]);
    EXPECT_EQ(outputs[0], outputs[2]);
    for (const std::string& response : outputs[0]) {
        EXPECT_EQ(error_code(response), "deadline_exceeded") << response;
    }
}

TEST(Deadlines, ExpiredResultIsNeverCached) {
    engine_config config;
    config.parallelism = 1;
    engine e{config};
    const std::string expired = e.handle_line(
        "{\"op\":\"mc_yield\",\"dies\":50,\"seed\":3,\"deadline_ms\":0}");
    EXPECT_EQ(error_code(expired), "deadline_exceeded");
    // The same request without a deadline must evaluate fresh — a
    // cached deadline error would poison every future query.
    const std::string fresh =
        e.handle_line("{\"op\":\"mc_yield\",\"dies\":50,\"seed\":3}");
    EXPECT_EQ(error_code(fresh), "");
    // And a warm cache must not mask an expired deadline either.
    const std::string still_expired = e.handle_line(
        "{\"op\":\"mc_yield\",\"dies\":50,\"seed\":3,\"deadline_ms\":0}");
    EXPECT_EQ(error_code(still_expired), "deadline_exceeded");
}

TEST(Deadlines, GenerousDeadlineDoesNotPerturbResults) {
    engine_config plain;
    plain.parallelism = 1;
    engine reference{plain};
    engine_config with_deadline = plain;
    with_deadline.limits.default_deadline_ms = 60000;
    engine deadlined{with_deadline};
    for (const char* line :
         {"{\"op\":\"scenario1\"}", "{\"op\":\"mc_yield\",\"dies\":200}",
          "{\"op\":\"table3\",\"row\":3}"}) {
        EXPECT_EQ(reference.handle_line(line), deadlined.handle_line(line))
            << line;
    }
    // deadline_ms is envelope-level: it must not split the cache key.
    const std::string warm = deadlined.handle_line(
        "{\"op\":\"scenario1\",\"deadline_ms\":60000}");
    EXPECT_EQ(warm, reference.handle_line("{\"op\":\"scenario1\"}"));
}

TEST(Deadlines, SweepTargetMayNotCarryDeadline) {
    engine_config config;
    config.parallelism = 1;
    engine e{config};
    const std::string response = e.handle_line(
        "{\"op\":\"sweep\",\"param\":\"lambda_um\",\"from\":0.1,\"to\":1.0,"
        "\"count\":3,\"target\":{\"op\":\"scenario1\",\"deadline_ms\":5}}");
    EXPECT_EQ(error_code(response), "bad_param");
}

// ---------------------------------------------------------------------------
// Fault injection through the engine
// ---------------------------------------------------------------------------

TEST(EngineFaults, AllocFailAtServeLineAnswersInternalError) {
    const faults_guard guard;
    engine_config config;
    config.parallelism = 1;
    engine e{config};
    faults::configure("alloc_fail@serve.line");
    // The fault fires before the line's parse is used, so the envelope
    // carries no id — but it is still exactly one well-formed reply.
    const std::string response =
        e.handle_line("{\"op\":\"scenario1\",\"id\":\"f\"}");
    EXPECT_EQ(error_code(response), "internal_error");
    EXPECT_GE(faults::injected("serve.line"), 1u);
    faults::reset();
    EXPECT_EQ(error_code(e.handle_line("{\"op\":\"scenario1\"}")), "");
}

TEST(EngineFaults, AllocFailAtServeEvalAnswersInternalError) {
    const faults_guard guard;
    engine_config config;
    config.parallelism = 1;
    engine e{config};
    faults::configure("alloc_fail@serve.eval");
    EXPECT_EQ(error_code(e.handle_line("{\"op\":\"scenario1\"}")),
              "internal_error");
    EXPECT_GE(faults::injected("serve.eval"), 1u);
}

TEST(EngineFaults, AllocFailAtServeEvalCoversChipletEndpoints) {
    const faults_guard guard;
    engine_config config;
    config.parallelism = 1;
    engine e{config};
    faults::configure("alloc_fail@serve.eval");
    EXPECT_EQ(error_code(e.handle_line("{\"op\":\"chiplet\"}")),
              "internal_error");
    EXPECT_EQ(error_code(e.handle_line(
                  "{\"op\":\"partition_explore\",\"splits\":\"1,2\","
                  "\"count\":4}")),
              "internal_error");
    EXPECT_GE(faults::injected("serve.eval"), 2u);
    faults::reset();
    // Neither internal_error may have been cached: both evaluate fresh.
    EXPECT_EQ(error_code(e.handle_line("{\"op\":\"chiplet\"}")), "");
    EXPECT_EQ(error_code(e.handle_line(
                  "{\"op\":\"partition_explore\",\"splits\":\"1,2\","
                  "\"count\":4}")),
              "");
}

TEST(EngineFaults, ArenaFaultDegradesToLegacyPathSameBytes) {
    const faults_guard guard;
    engine_config config;
    config.parallelism = 1;
    engine e{config};
    const std::string line = "{\"op\":\"scenario1\"}";
    const std::string reference = e.handle_line(line);  // warm the cache
    faults::configure("alloc_fail@serve.arena");
    const std::string degraded = e.handle_line(line);
    EXPECT_EQ(degraded, reference);  // decline, not a failure
    EXPECT_GE(e.hot_declines(), 1u);
}

TEST(EngineFaults, ArenaBudgetDegradesHotPath) {
    engine_config config;
    config.parallelism = 1;
    config.limits.max_arena_reserved_bytes = 1;  // nothing fits
    engine e{config};
    const std::string line = "{\"op\":\"scenario1\"}";
    const std::string first = e.handle_line(line);
    std::uint64_t before = e.hot_declines();
    const std::string warm = e.handle_line(line);  // would be a hot hit
    EXPECT_EQ(first, warm);
    // The lone line's arena still held the first parse: one release,
    // counted once, and the line parsed once into the fresh arena.
    EXPECT_EQ(e.hot_declines() - before, 1u);

    // A batch parses each shard into the shard's own arena, released
    // before the shard's first parse and counted once per release: 130
    // lines are 64 shards of two or three lines, not 130 releases.
    std::vector<std::string> lines;
    std::vector<std::string> lone;
    for (int i = 0; i < 130; ++i) {
        lines.push_back("{\"id\":" + std::to_string(i) +
                        ",\"op\":\"scenario1\",\"lambda_um\":0." +
                        std::to_string(3 + i % 5) + "}");
        lone.push_back(e.handle_line(lines.back()));
    }
    (void)e.handle_batch(lines);  // every shard's arena now holds a parse
    before = e.hot_declines();
    EXPECT_EQ(e.handle_batch(lines), lone);
    EXPECT_EQ(e.hot_declines() - before,
              silicon::exec::shard_count_for(lines.size()));
}

// ---------------------------------------------------------------------------
// Cache shedding
// ---------------------------------------------------------------------------

TEST(CacheShedding, ShedShardsDropsEntriesAndCountsEvictions) {
    silicon::serve::memo_cache cache{64, 4};
    for (int i = 0; i < 16; ++i) {
        cache.put("key" + std::to_string(i), "value");
    }
    const auto before = cache.snapshot();
    ASSERT_EQ(before.entries, 16u);
    const std::size_t dropped = cache.shed_shards(2);
    const auto after = cache.snapshot();
    EXPECT_EQ(after.entries, before.entries - dropped);
    EXPECT_EQ(after.evictions, before.evictions + dropped);
    // Shed shards stay usable.
    cache.put("fresh", "value");
    EXPECT_TRUE(cache.get("fresh"));
}

TEST(CacheShedding, CountClampedToShardCount) {
    silicon::serve::memo_cache cache{16, 2};
    cache.put("a", "1");
    cache.put("b", "2");
    EXPECT_EQ(cache.shed_shards(100), 2u);
    EXPECT_EQ(cache.snapshot().entries, 0u);
}

// ---------------------------------------------------------------------------
// Snapshot fault sites (serve.snapshot_write / serve.snapshot_read)
// ---------------------------------------------------------------------------

/// RAII cleanup for on-disk snapshot fixtures.
struct snapshot_file_guard {
    explicit snapshot_file_guard(const char* tag)
        : path{"chaos_snapshot_" + std::string{tag} + "_" +
               std::to_string(::getpid()) + ".bin"} {}
    ~snapshot_file_guard() {
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }
    std::string path;
};

TEST(SnapshotFaults, InjectedWriteFailureLeavesPreviousSnapshotIntact) {
    const faults_guard guard;
    const snapshot_file_guard file{"write_fail"};
    engine_config config;
    config.parallelism = 1;
    engine writer{config};
    (void)writer.handle_line(R"({"op":"table3","row":1})");
    ASSERT_TRUE(writer.snapshot_write(file.path).ok);

    // More entries arrive, then the next write fails cleanly: the
    // failure is counted and the previous on-disk image survives.
    (void)writer.handle_line(R"({"op":"table3","row":2})");
    faults::configure("alloc_fail@serve.snapshot_write:1");
    const auto failed = writer.snapshot_write(file.path);
    EXPECT_FALSE(failed.ok);
    EXPECT_NE(failed.error.find("injected"), std::string::npos);
    EXPECT_GE(faults::injected("serve.snapshot_write"), 1u);
    const auto info = writer.snapshot_info();
    EXPECT_EQ(info.writes, 1u);
    EXPECT_EQ(info.write_failures, 1u);

    faults::reset();
    engine reader{config};
    const auto restored = reader.snapshot_restore(file.path);
    ASSERT_EQ(restored.outcome,
              silicon::serve::snapshot::restore_outcome::restored);
    EXPECT_EQ(restored.entries, 1u)
        << "the failed write must not have clobbered the good image";
}

TEST(SnapshotFaults, InjectedReadFailureIsCountedColdStart) {
    const faults_guard guard;
    const snapshot_file_guard file{"read_fail"};
    engine_config config;
    config.parallelism = 1;
    {
        engine writer{config};
        (void)writer.handle_line(R"({"op":"table3","row":3})");
        ASSERT_TRUE(writer.snapshot_write(file.path).ok);
    }
    faults::configure("alloc_fail@serve.snapshot_read:1");
    engine reader{config};
    EXPECT_EQ(reader.snapshot_restore(file.path).outcome,
              silicon::serve::snapshot::restore_outcome::cold_corrupt);
    EXPECT_EQ(reader.snapshot_info().restore_failures, 1u);
    EXPECT_EQ(reader.cache_stats().entries, 0u);
    // Cold, not dead: the engine still answers.
    EXPECT_EQ(error_code(reader.handle_line(R"({"op":"table3","row":3})")),
              "");

    // Disarmed, the same file restores fine.
    faults::reset();
    engine retry{config};
    EXPECT_EQ(retry.snapshot_restore(file.path).outcome,
              silicon::serve::snapshot::restore_outcome::restored);
}

TEST(SnapshotFaults, OverloadShedMidSnapshotStaysRestorable) {
    // Regression for the shed_on_overload interplay: the writer
    // captures one shard at a time and derives counts/CRCs from the
    // captured bytes, so a shed landing mid-write (window widened by
    // slow_task) yields a stale-but-restorable image — never torn,
    // never double-counted.  A torn image would fail deserialization's
    // per-shard count/CRC cross-checks and surface as cold_corrupt.
    const faults_guard guard;
    const snapshot_file_guard file{"shed_race"};
    engine_config config;
    config.parallelism = 1;
    config.cache_shards = 4;
    config.limits.shed_on_overload = true;
    config.limits.max_inflight_bytes = 1;
    engine e{config};
    std::vector<std::string> warm;
    for (int row = 0; row < 6; ++row) {
        warm.push_back(R"({"op":"table3","row":)" + std::to_string(row) +
                       "}");
        (void)e.handle_line(warm.back());
    }
    ASSERT_GT(e.cache_stats().entries, 0u);

    faults::configure("slow_task@serve.snapshot_write:2");  // ~8ms window
    std::thread writer{[&] {
        const auto w = e.snapshot_write(file.path);
        EXPECT_TRUE(w.ok) << w.error;
    }};
    // A two-line batch overflows the 1-byte inflight budget: the
    // rejection calls on_overload, which sheds half the shards while
    // the writer is mid-capture; re-warm so later shards have entries.
    for (int round = 0; round < 50; ++round) {
        (void)e.handle_batch({warm[0], warm[1]});
        (void)e.handle_line(warm[round % warm.size()]);
    }
    writer.join();
    EXPECT_GE(faults::injected("serve.snapshot_write"), 4u)
        << "the per-shard delay must actually have fired";

    faults::reset();
    engine_config clean;
    clean.parallelism = 1;
    clean.cache_shards = 4;
    engine reader{clean};
    const auto restored = reader.snapshot_restore(file.path);
    EXPECT_EQ(restored.outcome,
              silicon::serve::snapshot::restore_outcome::restored)
        << restored.reason;
    EXPECT_EQ(reader.snapshot_info().restore_failures, 0u);
    // Whatever subset survived the sheds serves warm and correct.
    for (const std::string& line : warm) {
        EXPECT_EQ(error_code(reader.handle_line(line)), "");
    }
}

// ---------------------------------------------------------------------------
// Observability of the overload surface
// ---------------------------------------------------------------------------

TEST(OverloadObservability, StatsAndPrometheusExposeRejections) {
    engine e{limited_config()};
    (void)e.handle_line(
        "{\"op\":\"scenario1\",\"note\":\"" + std::string(200, 'x') + "\"}");
    (void)e.handle_line("{\"op\":\"mc_yield\",\"dies\":101,\"seed\":1}");

    const std::string stats = e.handle_line("{\"op\":\"stats\"}");
    EXPECT_NE(stats.find("\"overload\""), std::string::npos);
    EXPECT_NE(stats.find("\"line_too_large\":1"), std::string::npos);
    EXPECT_NE(stats.find("\"mc_too_large\":1"), std::string::npos);

    const std::string text = e.prometheus_text();
    EXPECT_NE(
        text.find(
            "silicon_serve_rejected_total{reason=\"line_too_large\"} 1"),
        std::string::npos);
    EXPECT_NE(text.find("silicon_serve_deadline_exceeded_total"),
              std::string::npos);
    EXPECT_NE(text.find("silicon_serve_inflight_bytes"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault switchboard on the epoll transport (serve/event_loop): the
// `silicond.read` / `silicond.write` sites moved from the blocking
// thread-per-connection loop onto the reactor, and these tests prove
// the faults still *fire* there (via the injected() counters) while the
// response stream stays byte-identical — the level-triggered retry
// contract from event_loop.hpp.
// ---------------------------------------------------------------------------

namespace loop_fixture {

int make_listener(std::uint16_t* port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0) << std::strerror(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd, 64), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    *port = ntohs(addr.sin_port);
    return fd;
}

struct harness {
    harness() {
        const int listener = make_listener(&port);
        loop = std::make_unique<silicon::serve::event_loop>(
            eng, listener, silicon::serve::event_loop_config{});
        runner = std::thread{[this] { loop->run(); }};
    }
    ~harness() {
        loop->stop();
        runner.join();
    }
    engine eng;
    std::uint16_t port = 0;
    std::unique_ptr<silicon::serve::event_loop> loop;
    std::thread runner;
};

int connect_client(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
}

void send_all(int fd, std::string_view data) {
    while (!data.empty()) {
        const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
        ASSERT_GT(n, 0) << std::strerror(errno);
        data.remove_prefix(static_cast<std::size_t>(n));
    }
}

std::vector<std::string> read_lines(int fd, std::size_t count) {
    std::vector<std::string> lines;
    std::string buf;
    char chunk[8192];
    while (lines.size() < count) {
        const std::size_t nl = buf.find('\n');
        if (nl != std::string::npos) {
            lines.push_back(buf.substr(0, nl));
            buf.erase(0, nl + 1);
            continue;
        }
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
            ADD_FAILURE() << "stream ended after " << lines.size() << " of "
                          << count << " replies";
            return lines;
        }
        buf.append(chunk, static_cast<std::size_t>(n));
    }
    return lines;
}

}  // namespace loop_fixture

TEST(EventLoopFaults, InjectedReadEintrFiresAndStreamSurvives) {
    const faults_guard guard;
    faults::configure("eintr@silicond.read:3");
    ASSERT_EQ(faults::injected("silicond.read"), 0u);

    loop_fixture::harness h;
    engine reference;
    const std::string line = "{\"op\":\"table3\"}";
    const std::string want = reference.handle_line(line);
    const int fd = loop_fixture::connect_client(h.port);
    // Every 3rd read pass on the reactor aborts with a synthetic
    // EINTR; level-triggered epoll must re-deliver and no line may be
    // lost or reordered.
    for (int round = 0; round < 32; ++round) {
        loop_fixture::send_all(fd, line + "\n");
        const std::vector<std::string> got =
            loop_fixture::read_lines(fd, 1);
        ASSERT_EQ(got.size(), 1u) << "round " << round;
        EXPECT_EQ(got[0], want) << "round " << round;
    }
    ::close(fd);
    EXPECT_GT(faults::injected("silicond.read"), 0u)
        << "eintr@silicond.read never fired on the epoll read path";
}

TEST(EventLoopFaults, InjectedShortWritesFireAndBytesStayIdentical) {
    const faults_guard guard;
    // Cap every transport write at 7 bytes: each reply needs dozens of
    // write passes through the queue's resumption arithmetic.
    faults::configure("short_write@silicond.write:7");
    ASSERT_EQ(faults::injected("silicond.write"), 0u);

    loop_fixture::harness h;
    engine reference;
    std::vector<std::string> lines;
    lines.emplace_back("{\"op\":\"table3\"}");
    lines.emplace_back("{\"op\":\"scenario1\"}");
    lines.emplace_back("not even json");
    const std::vector<std::string> want = reference.handle_batch(lines);

    const int fd = loop_fixture::connect_client(h.port);
    std::string wire;
    for (const std::string& l : lines) {
        wire += l;
        wire += '\n';
    }
    loop_fixture::send_all(fd, wire);
    const std::vector<std::string> got =
        loop_fixture::read_lines(fd, lines.size());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "line " << i;
    }
    ::close(fd);
    EXPECT_GT(faults::injected("silicond.write"), 0u)
        << "short_write@silicond.write never fired on the epoll write path";
}

TEST(EventLoopFaults, AbruptCloseDuringPendingWriteDoesNotKillLoop) {
    const faults_guard guard;
    // Short writes guarantee the reply is still queued when the client
    // vanishes, so the reactor takes EPOLLHUP/EPIPE with a non-empty
    // write queue — the hardest teardown ordering.
    faults::configure("short_write@silicond.write:1");

    loop_fixture::harness h;
    for (int round = 0; round < 8; ++round) {
        const int fd = loop_fixture::connect_client(h.port);
        loop_fixture::send_all(fd, "{\"op\":\"table3\"}\n");
        // RST instead of FIN: pending server writes hit ECONNRESET.
        linger hard{1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
        ::close(fd);
    }
    faults::reset();
    // The loop must still be alive and serving correctly.
    engine reference;
    const int fd = loop_fixture::connect_client(h.port);
    loop_fixture::send_all(fd, "{\"op\":\"table3\"}\n");
    const std::vector<std::string> got = loop_fixture::read_lines(fd, 1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], reference.handle_line("{\"op\":\"table3\"}"));
    ::close(fd);
}

}  // namespace
