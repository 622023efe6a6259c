#include "serve/json.hpp"
#include "serve/json_pow10.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace json = silicon::serve::json;

namespace {

std::string round_trip(const std::string& text) {
    return json::dump(json::parse(text));
}

TEST(JsonParse, Scalars) {
    EXPECT_TRUE(json::parse("null").is_null());
    EXPECT_TRUE(json::parse("true").as_bool());
    EXPECT_FALSE(json::parse("false").as_bool());
    EXPECT_DOUBLE_EQ(json::parse("42").as_number(), 42.0);
    EXPECT_DOUBLE_EQ(json::parse("-0.5e2").as_number(), -50.0);
    EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, WhitespaceAroundDocument) {
    EXPECT_DOUBLE_EQ(json::parse(" \t\r\n 7 \n").as_number(), 7.0);
}

TEST(JsonParse, NestedContainers) {
    const json::value v = json::parse(R"({"a":[1,{"b":[true,null]}],"c":{}})");
    const json::object& o = v.as_object();
    ASSERT_NE(o.find("a"), nullptr);
    const json::array& a = o.find("a")->as_array();
    ASSERT_EQ(a.size(), 2u);
    EXPECT_DOUBLE_EQ(a[0].as_number(), 1.0);
    EXPECT_TRUE(a[1].as_object().find("b")->as_array()[1].is_null());
    EXPECT_TRUE(o.find("c")->as_object().empty());
}

TEST(JsonParse, StringEscapes) {
    EXPECT_EQ(json::parse(R"("\"\\\/\b\f\n\r\t")").as_string(),
              "\"\\/\b\f\n\r\t");
    EXPECT_EQ(json::parse(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
    // Surrogate pair: U+1D11E (musical G clef) -> 4-byte UTF-8.
    EXPECT_EQ(json::parse(R"("\ud834\udd1e")").as_string(),
              "\xf0\x9d\x84\x9e");
}

TEST(JsonParse, MalformedInputsThrow) {
    const char* bad[] = {
        "",          "{",          "[1,]",      "{\"a\":}",  "nul",
        "01",        "1.",         ".5",        "+1",        "\"\\q\"",
        "\"\\ud834\"",  // lone high surrogate
        "\"unterminated",
        "{\"a\":1,}",
        "{'a':1}",
        "[1] trailing",
        "{\"a\":1 \"b\":2}",
        "\"tab\tliteral\"",  // raw control character in string
    };
    for (const char* text : bad) {
        EXPECT_THROW((void)json::parse(text), json::parse_error) << text;
    }
}

TEST(JsonParse, DuplicateKeysRejected) {
    EXPECT_THROW((void)json::parse(R"({"a":1,"a":2})"), json::parse_error);
}

TEST(JsonParse, ErrorCarriesOffset) {
    try {
        (void)json::parse("[1, x]");
        FAIL() << "expected parse_error";
    } catch (const json::parse_error& e) {
        EXPECT_EQ(e.offset(), 4u);
    }
}

TEST(JsonParse, DepthGuard) {
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_THROW((void)json::parse(deep), json::parse_error);
    std::string ok(100, '[');
    ok += "1";
    ok += std::string(100, ']');
    EXPECT_NO_THROW((void)json::parse(ok));
}

TEST(JsonParse, HugeAndTinyNumbers) {
    // Out-of-range magnitudes follow IEEE strtod semantics.
    EXPECT_TRUE(std::isinf(json::parse("1e999").as_number()));
    EXPECT_DOUBLE_EQ(json::parse("1e-999").as_number(), 0.0);
}

TEST(JsonDump, RoundTripPreservesBytes) {
    const char* docs[] = {
        "null",
        "true",
        R"(["a",1,null,{"k":false}])",
        R"({"b":1,"a":2})",  // insertion order preserved by dump
        "0.1",
        "1e-300",
        "123456789012345683968",  // > 2^53, shortest-round-trip form
    };
    for (const char* text : docs) {
        EXPECT_EQ(round_trip(text), text) << text;
        // A dump re-parses to an equal document (full round trip).
        EXPECT_EQ(json::parse(round_trip(text)), json::parse(text));
    }
}

TEST(JsonDump, StringEscaping) {
    EXPECT_EQ(json::dump(json::value{"a\"b\\c\n\x01"}),
              R"("a\"b\\c\n\u0001")");
}

TEST(JsonDump, NonFiniteNumbersAreNull) {
    EXPECT_EQ(json::dump(json::value{std::nan("")}), "null");
    EXPECT_EQ(json::dump(json::value{
                  std::numeric_limits<double>::infinity()}),
              "null");
}

TEST(JsonDump, IntegersHaveNoExponent) {
    EXPECT_EQ(json::format_number(154.0), "154");
    EXPECT_EQ(json::format_number(-2.0), "-2");
    EXPECT_EQ(json::format_number(0.5), "0.5");
}

TEST(JsonCanonical, SortsKeysAtEveryLevel) {
    const json::value v = json::parse(R"({"b":{"d":1,"c":2},"a":[{"z":0,"y":1}]})");
    EXPECT_EQ(json::canonical(v), R"({"a":[{"y":1,"z":0}],"b":{"c":2,"d":1}})");
    // dump keeps insertion order; canonical must not mutate the value.
    EXPECT_EQ(json::dump(v), R"({"b":{"d":1,"c":2},"a":[{"z":0,"y":1}]})");
}

TEST(JsonCanonical, MemberOrderInsensitiveKey) {
    EXPECT_EQ(json::canonical(json::parse(R"({"x":1,"op":"s"})")),
              json::canonical(json::parse(R"({"op":"s","x":1})")));
}

TEST(JsonValue, EqualityIsOrderInsensitiveForObjects) {
    EXPECT_EQ(json::parse(R"({"a":1,"b":2})"), json::parse(R"({"b":2,"a":1})"));
    EXPECT_NE(json::parse(R"([1,2])"), json::parse(R"([2,1])"));
    EXPECT_NE(json::parse(R"({"a":1})"), json::parse(R"({"a":2})"));
}

TEST(JsonObject, SetReplacesInPlace) {
    json::object o;
    o.set("a", json::value{1.0});
    o.set("b", json::value{2.0});
    o.set("a", json::value{3.0});
    ASSERT_EQ(o.size(), 2u);
    EXPECT_DOUBLE_EQ(o.find("a")->as_number(), 3.0);
    EXPECT_EQ(o.members()[0].first, "a");  // position preserved
}

TEST(JsonFormatNumber, RoundTripsRandomDoublesBitExactly) {
    // Fuzz the shortest-round-trip formatter: 10k doubles drawn as raw
    // bit patterns (covering subnormals, huge magnitudes, -0.0, and both
    // non-finite classes), formatted and parsed back.  Finite values
    // must survive parse(format(x)) with the exact same bits; the wire
    // policy maps NaN and +/-inf to "null".
    std::mt19937_64 rng{0x51c1u};
    std::size_t finite = 0;
    std::size_t subnormal = 0;
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t bits = rng();
        if (i % 10 == 0) {
            bits &= ~(0x7ffull << 52);  // force a subnormal (or zero)
        }
        double x = 0.0;
        std::memcpy(&x, &bits, sizeof x);

        const std::string text = json::format_number(x);
        if (!std::isfinite(x)) {
            EXPECT_EQ(text, "null") << "bits=0x" << std::hex << bits;
            continue;
        }
        ++finite;
        if (x != 0.0 && std::fpclassify(x) == FP_SUBNORMAL) {
            ++subnormal;
        }
        const double back = json::parse(text).as_number();
        std::uint64_t back_bits = 0;
        std::memcpy(&back_bits, &back, sizeof back_bits);
        EXPECT_EQ(back_bits, bits)
            << "x=" << x << " formatted as \"" << text << "\"";
        // Idempotence: formatting the reparsed value changes nothing.
        EXPECT_EQ(json::format_number(back), text);
    }
    // The corpus genuinely exercised both classes.
    EXPECT_GT(finite, 4000u);
    EXPECT_GT(subnormal, 500u);
}

TEST(JsonFormatNumber, SignedZeroAndExtremesRoundTrip) {
    const double cases[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::min(),          // smallest normal
        std::numeric_limits<double>::denorm_min(),   // 5e-324
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::epsilon(),
        1.0 + std::numeric_limits<double>::epsilon(),
    };
    for (const double x : cases) {
        const std::string text = json::format_number(x);
        const double back = json::parse(text).as_number();
        std::uint64_t xb = 0;
        std::uint64_t bb = 0;
        std::memcpy(&xb, &x, sizeof xb);
        std::memcpy(&bb, &back, sizeof bb);
        EXPECT_EQ(bb, xb) << "x=" << x << " text=" << text;
    }
    // -0.0 keeps its sign on the wire.
    EXPECT_EQ(json::format_number(-0.0), "-0");
    EXPECT_TRUE(std::signbit(json::parse("-0").as_number()));
}

/// std::to_chars' shortest round-trip text: the bytes the number
/// writer must reproduce.
std::string to_chars_text(double x) {
    char buffer[32];
    const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, x);
    return std::string(buffer, end);
}

double from_bits(std::uint64_t bits) {
    double x = 0.0;
    std::memcpy(&x, &bits, sizeof x);
    return x;
}

/// Formats finite `x` through format_number_to and format_number_into
/// (after a prefix it must keep) and checks both against to_chars.
/// Returns the number of mismatches.
int number_mismatches(double x) {
    if (!std::isfinite(x)) {
        return 0;
    }
    char expected[32];
    const auto [expected_end, ec] =
        std::to_chars(expected, expected + sizeof expected, x);
    const std::string_view want{
        expected, static_cast<std::size_t>(expected_end - expected)};
    char buffer[json::number_buffer_chars];
    const char* const end = json::format_number_to(buffer, x);
    thread_local std::string out;
    out.assign("prefix");
    json::format_number_into(x, out);
    return (std::string_view{buffer, static_cast<std::size_t>(end - buffer)} ==
                    want
                ? 0
                : 1) +
           (std::string_view{out}.substr(6) == want &&
                    out.compare(0, 6, "prefix") == 0
                ? 0
                : 1);
}

/// Mismatches over `count` random bit patterns from `seed`.
int random_mismatches(std::uint64_t seed, long count) {
    std::mt19937_64 rng{seed};
    int bad = 0;
    for (long i = 0; i < count; ++i) {
        bad += number_mismatches(from_bits(rng()));
    }
    return bad;
}

/// Mismatches over `x` and its `ulps` neighbours on either side, and the
/// same for -x.
int neighbourhood_mismatches(double x, int ulps) {
    int bad = 0;
    for (const double centre : {x, -x}) {
        double below = centre;
        double above = centre;
        bad += number_mismatches(centre);
        for (int i = 0; i < ulps; ++i) {
            below = std::nextafter(below, -std::numeric_limits<double>::infinity());
            above = std::nextafter(above, std::numeric_limits<double>::infinity());
            bad += number_mismatches(below) + number_mismatches(above);
        }
    }
    return bad;
}

TEST(JsonNumber, MatchesToCharsOnEdgeValues) {
    using lim = std::numeric_limits<double>;
    std::vector<double> values = {
        0.0,
        -0.0,
        lim::denorm_min(),
        -lim::denorm_min(),
        lim::min() - lim::denorm_min(),  // largest subnormal
        lim::min(),
        -lim::min(),  // "-2.2250738585072014e-308": 24 bytes, the longest
        lim::max(),
        -lim::max(),
        lim::epsilon(),
    };
    // Integers up to 2^53, where every integer is exact, and past it.
    for (int i = -1000; i <= 1000; ++i) {
        values.push_back(i);
    }
    for (int e = 0; e <= 64; ++e) {
        const double p = std::ldexp(1.0, e);
        values.insert(values.end(), {p - 1, p, p + 1, -p});
    }
    values.push_back(9007199254740991.0);  // 2^53 - 1
    values.push_back(9007199254740993.0);  // rounds to 2^53
    // Around every power of ten, where shortest output switches between
    // fixed and scientific notation, with the neighbouring doubles.
    for (int e = -30; e <= 30; ++e) {
        for (const char* mantissa :
             {"1", "1.5", "9.999999999999999", "1.2345678901234567"}) {
            const double x = json::parse(std::string{mantissa} + "e" +
                                         std::to_string(e))
                                 .as_number();
            values.insert(values.end(),
                          {x, -x, std::nextafter(x, 0.0),
                           std::nextafter(x, lim::infinity())});
        }
    }
    for (const double x : values) {
        EXPECT_EQ(number_mismatches(x), 0) << to_chars_text(x);
    }
    EXPECT_EQ(json::format_number(-0.0), "-0");
    EXPECT_EQ(json::format_number(0.0), "0");
    EXPECT_EQ(json::format_number(std::ldexp(1.0, 60)), "1152921504606846976");
    EXPECT_EQ(json::format_number(lim::infinity()), "null");
    EXPECT_EQ(json::format_number(lim::quiet_NaN()), "null");
}

TEST(JsonNumber, MatchesToCharsAroundPowersAndBoundaries) {
    using lim = std::numeric_limits<double>;
    int bad = 0;
    // Every power of two (subnormal to the top binade) and of ten, +-3
    // ulps: binade bottoms, where the lower neighbour is half as far.
    for (int e = -1074; e <= 1023; ++e) {
        bad += neighbourhood_mismatches(std::ldexp(1.0, e), 3);
    }
    for (int e = -323; e <= 308; ++e) {
        bad += neighbourhood_mismatches(
            std::strtod(("1e" + std::to_string(e)).c_str(), nullptr), 3);
    }
    // The subnormal range's two ends and the normal boundary.
    for (std::uint64_t t = 1; t <= 100000; ++t) {
        bad += number_mismatches(from_bits(t));
    }
    bad += neighbourhood_mismatches(lim::min(), 1000);
    bad += neighbourhood_mismatches(lim::max(), 1000);
    // Integers from 2^53 to 2^64: fixed notation prints the exact value.
    for (std::uint64_t i = (std::uint64_t{1} << 53) - 1000;
         i <= (std::uint64_t{1} << 53) + 100000; ++i) {
        bad += number_mismatches(static_cast<double>(i));
    }
    std::mt19937_64 rng{0x2f53u};
    for (int i = 0; i < 1000000; ++i) {
        const int width = 53 + static_cast<int>(rng() % 12);
        bad += number_mismatches(
            static_cast<double>(rng() >> (64 - width) | std::uint64_t{1} << (width - 1)));
    }
    // Fixed/scientific switch points: 1, 2 and 17 significant digits at
    // every decimal exponent, so each layout and its tie are crossed.
    for (int e = -30; e <= 30; ++e) {
        for (const char* digits :
             {"1", "12", "123", "1234567", "12345678901234567"}) {
            const std::string text = std::string{"0."} + digits + "e" +
                                     std::to_string(e + 1);
            bad += neighbourhood_mismatches(
                std::strtod(text.c_str(), nullptr), 2);
        }
    }
    EXPECT_EQ(bad, 0);
}

TEST(JsonNumber, MatchesToCharsOnRandomBitPatterns) {
    EXPECT_EQ(random_mismatches(0x6d656d6fu, 10'000'000), 0);
}

// About 2x10^8 patterns; run on demand and by CI's release leg with
// --gtest_also_run_disabled_tests.
TEST(JsonNumber, DISABLED_MatchesToCharsOnLongRandomRun) {
    EXPECT_EQ(random_mismatches(0x6c6f6e67u, 200'000'000), 0);
}

TEST(JsonNumber, FourThreadsFormatConcurrently) {
    // The writer keeps no state: the same values formatted in a
    // different order on every thread give the same bytes.
    std::vector<double> shared;
    std::mt19937_64 rng{42};
    for (int i = 0; i < 4096; ++i) {
        shared.push_back(i % 2 == 0 ? from_bits(rng())
                                    : static_cast<double>(rng() % 1000) / 8);
    }
    std::vector<int> bad(4, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([t, &shared, &bad] {
            for (int pass = 0; pass < 4; ++pass) {
                for (std::size_t i = 0; i < shared.size(); ++i) {
                    const double x =
                        shared[(i * (2 * t + 1) + pass) % shared.size()];
                    bad[t] += number_mismatches(x);
                }
            }
        });
    }
    for (std::thread& th : threads) {
        th.join();
    }
    for (int t = 0; t < 4; ++t) {
        EXPECT_EQ(bad[t], 0) << "thread " << t;
    }
}

/// A non-negative integer of any size, 32-bit limbs, least significant
/// first: enough arithmetic to rebuild the power table.
struct big {
    std::vector<std::uint32_t> limbs;

    void times(std::uint32_t m) {
        std::uint64_t carry = 0;
        for (std::uint32_t& limb : limbs) {
            const std::uint64_t v = std::uint64_t{limb} * m + carry;
            limb = static_cast<std::uint32_t>(v);
            carry = v >> 32;
        }
        if (carry != 0) {
            limbs.push_back(static_cast<std::uint32_t>(carry));
        }
    }
    [[nodiscard]] int bits() const {
        return static_cast<int>(32 * (limbs.size() - 1)) +
               static_cast<int>(std::bit_width(limbs.back()));
    }
    [[nodiscard]] bool bit(int i) const {
        if (i < 0) {
            return false;
        }
        const auto limb = static_cast<std::size_t>(i / 32);
        return limb < limbs.size() && (limbs[limb] >> (i % 32) & 1) != 0;
    }
    static big power_of_ten(int e) {
        big b{{1}};
        for (int i = 0; i < e; ++i) {
            b.times(10);
        }
        return b;
    }
};

/// r >= d, both with `d.limbs.size()` limbs (r may carry one more).
bool at_least(const std::vector<std::uint32_t>& r, const big& d) {
    for (std::size_t i = r.size(); i-- > 0;) {
        const std::uint32_t di = i < d.limbs.size() ? d.limbs[i] : 0;
        if (r[i] != di) {
            return r[i] > di;
        }
    }
    return true;
}

TEST(JsonNumber, PowerTableRegeneratesExactly) {
    // g(e) = floor(10^e * 2^(125 - m)) + 1 with m = floor(log2 10^e),
    // rebuilt in exact integer arithmetic for each of the 617 entries.
    namespace detail = json::detail;
    ASSERT_EQ(detail::pow10_max - detail::pow10_min + 1, 617);
    for (int e = detail::pow10_min; e <= detail::pow10_max; ++e) {
        __extension__ typedef unsigned __int128 u128;
        u128 g = 0;
        if (e >= 0) {
            // 10^e's top 126 bits (m = bits - 1), padded when shorter.
            const big p = big::power_of_ten(e);
            const int m = p.bits() - 1;
            for (int i = 125; i >= 0; --i) {
                g = g << 1 | (p.bit(m - 125 + i) ? 1 : 0);
            }
        } else {
            // floor(2^(125 - m) / 10^-e) by long division, m = -bits.
            const big d = big::power_of_ten(-e);
            std::vector<std::uint32_t> r(d.limbs.size() + 1, 0);
            r[0] = 1;
            for (int step = 0; step < 125 + d.bits(); ++step) {
                std::uint32_t carry = 0;
                for (std::uint32_t& limb : r) {
                    const std::uint32_t top = limb >> 31;
                    limb = limb << 1 | carry;
                    carry = top;
                }
                g <<= 1;
                if (at_least(r, d)) {
                    std::int64_t borrow = 0;
                    for (std::size_t i = 0; i < r.size(); ++i) {
                        std::int64_t v = std::int64_t{r[i]} - borrow -
                                         (i < d.limbs.size() ? d.limbs[i] : 0);
                        borrow = v < 0 ? 1 : 0;
                        r[i] = static_cast<std::uint32_t>(v + (borrow << 32));
                    }
                    g |= 1;
                }
            }
        }
        g += 1;
        const auto& entry = detail::pow10_table[e - detail::pow10_min];
        EXPECT_EQ(entry[0], static_cast<std::uint64_t>(g >> 64)) << "1e" << e;
        EXPECT_EQ(entry[1], static_cast<std::uint64_t>(g)) << "1e" << e;
    }
}

TEST(JsonValue, TypeErrorsOnMismatch) {
    EXPECT_THROW((void)json::parse("1").as_string(), json::type_error);
    EXPECT_THROW((void)json::parse("\"s\"").as_number(), json::type_error);
    EXPECT_THROW((void)json::parse("[]").as_object(), json::type_error);
}

}  // namespace
