// Self-tests of the silibench harness: generator determinism per seed,
// the quantile code on known samples, the /metrics scrape parser, the
// reply checker (it must catch a single flipped byte) and the validity
// gate.  Run with `python3 silibench/run.py --selftest`; exit code 0 = all
// passed.

#include "client.hpp"
#include "common.hpp"
#include "gate.hpp"
#include "server.hpp"
#include "workload.hpp"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace {

int failures = 0;

#define CHECK(cond)                                                         \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__,    \
                         #cond);                                            \
            ++failures;                                                     \
        }                                                                   \
    } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using namespace silibench;

void generator_is_deterministic() {
    const workload_knobs knobs{1000, 0.25};
    const workload_sizes sizes{300, 300};
    for (const workload_kind k : {workload_kind::warm_point, workload_kind::cold_point,
                                  workload_kind::grid_explore}) {
        const workload a = generate(k, 42, knobs, sizes);
        const workload b = generate(k, 42, knobs, sizes);
        const workload c = generate(k, 43, knobs, sizes);
        CHECK(a.lines == b.lines);
        CHECK(a.warmup == b.warmup && a.open == b.open && a.closed == b.closed);
        CHECK(a.lines != c.lines || a.open != c.open);
        CHECK(a.open.size() == sizes.open && a.closed.size() == sizes.closed);
        for (const std::string& l : a.lines) {
            CHECK(!l.empty() && l.back() == '\n' && l.find('\n') == l.size() - 1);
        }
    }
    // cold_point and grid_explore never repeat a line.
    const workload cold = generate(workload_kind::cold_point, 7, knobs, sizes);
    CHECK(cold.lines.size() == cold.warmup.size() + cold.open.size() + cold.closed.size());
    // A grid refinement doubles its parent's grid less one lane, over the
    // same bounds, and expects exactly the parent's lanes to be cached.
    const workload grid = generate(workload_kind::grid_explore, 7, knobs, {2000, 0});
    std::size_t refinements = 0;
    for (const line_info& li : grid.info) {
        if (li.parent >= 0) {
            const line_info& parent = grid.info[static_cast<std::size_t>(li.parent)];
            CHECK(li.sweep_lanes == 2 * parent.sweep_lanes - 1);
            CHECK(li.cached_lanes == parent.sweep_lanes);
            ++refinements;
        }
    }
    CHECK(refinements > 0);
}

void quantiles_on_known_samples() {
    const std::vector<double> s{1, 2, 3, 4};
    CHECK(near(quantile_sorted(s, 0.0), 1));
    CHECK(near(quantile_sorted(s, 1.0), 4));
    CHECK(near(quantile_sorted(s, 0.5), 2.5));
    CHECK(near(quantile_sorted(s, 0.25), 1.75));
    CHECK(near(median({3, 1, 2}), 2));
    CHECK(near(quantile({10}, 0.99), 10));
    CHECK(std::isnan(quantile({}, 0.5)));
    CHECK(near(quantile({std::nan(""), 3, 1, std::nan(""), 2}, 0.5), 2));
    std::vector<double> hundred;
    for (int i = 1; i <= 101; ++i) {
        hundred.push_back(102 - i);
    }
    CHECK(near(quantile(hundred, 0.99), 100));
}

void scrape_parser() {
    const std::string text =
        "# HELP silicond_flushes_total Gathered response flushes\r\n"
        "# TYPE silicond_flushes_total counter\r\n"
        "silicond_flushes_total 12\r\n"
        "silicon_serve_stage_seconds_sum{op=\"yield\",stage=\"parse\"} 0.5\n"
        "silicon_serve_stage_seconds_sum{op=\"sweep\",stage=\"parse\"} 1.5e-1\n"
        "silicon_serve_stage_seconds_sum{op=\"sweep\",stage=\"exec\"} 2\n"
        "silicon_serve_stage_seconds_sum_extra 100\n"
        "silicon_label_space{name=\"a b\"} 3\n"
        "malformed_line_without_value\n"
        "\n";
    const scrape s = parse_prometheus(text);
    CHECK(near(sum_series(s, "silicond_flushes_total"), 12));
    CHECK(near(sum_series(s, "silicon_serve_stage_seconds_sum"), 2.65));
    CHECK(near(sum_series(s, "silicon_serve_stage_seconds_sum", "stage=\"parse\""), 0.65));
    CHECK(near(sum_series(s, "silicon_label_space"), 3));
    CHECK(near(sum_series(s, "missing_metric"), 0));
    CHECK(s.count("malformed_line_without_value") == 0);

    scrape later = s;
    later["silicond_flushes_total"] = 20;
    scrape delta;
    add_delta(delta, later, s);
    add_delta(delta, later, s);
    CHECK(near(delta["silicond_flushes_total"], 16));
    CHECK(near(delta["silicon_label_space{name=\"a b\"}"], 0));
}

void checker_catches_a_flipped_byte() {
    const std::string good = R"({"ok":true,"result":{"count":154,"method":"maly_rows"}})";
    expected_replies ex;
    ex.hash = {reply_hash(good), reply_hash(good)};
    ex.size = {static_cast<std::uint32_t>(good.size()),
               static_cast<std::uint32_t>(good.size())};
    ex.bytes = {"", good};  // line 0 hash-checked, line 1 byte-compared
    for (std::uint32_t line : {0u, 1u}) {
        CHECK(check_reply(good, line, ex) == verdict::ok);
        for (std::size_t i = 0; i < good.size(); ++i) {
            std::string bad = good;
            bad[i] = static_cast<char>(bad[i] ^ 0x01);
            CHECK(check_reply(bad, line, ex) != verdict::ok);
        }
        CHECK(check_reply(good.substr(0, good.size() - 1), line, ex) == verdict::wrong);
        CHECK(check_reply(R"({"ok":false,"error":{"code":"overloaded"}})", line, ex) ==
              verdict::error);
    }
}

void gate_rejects_and_drops() {
    workload w = generate(workload_kind::cold_point, 5, workload_knobs{1000, 0}, {64, 64});
    const std::uint32_t bad = w.open[3];
    w.lines[bad] = "{\"op\":\"yield\",\"model\":\"no_such_model\"}\n";
    const std::vector<bool> keep(w.lines.size(), true);
    const gate_result g = run_gate(w, keep, 2);
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < g.ok.size(); ++i) {
        rejected += g.ok[i] ? 0 : 1;
        if (g.ok[i]) {
            CHECK(g.expected.bytes[i].rfind("{\"ok\":true", 0) == 0);
            CHECK(g.expected.hash[i] == reply_hash(g.expected.bytes[i]));
        }
    }
    CHECK(rejected == 1 && !g.ok[bad]);
    drop_rejected(w, g.ok);
    CHECK(w.rejected == 1 && w.open.size() == 63);
    for (const std::uint32_t i : w.open) {
        CHECK(i != bad);
    }
}

}  // namespace

int main() {
    generator_is_deterministic();
    quantiles_on_known_samples();
    scrape_parser();
    checker_catches_a_flipped_byte();
    gate_rejects_and_drops();
    if (failures != 0) {
        std::fprintf(stderr, "silibench selftest: %d check(s) failed\n", failures);
        return 1;
    }
    std::printf("silibench selftest: all checks passed\n");
    return 0;
}
