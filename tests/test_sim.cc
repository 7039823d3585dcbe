/**
 * @file
 * Unit tests for the simulation substrate: clock domains, fixed
 * divisors, deterministic RNG, the stats framework and JSON.
 */

#include <gtest/gtest.h>

#include "death_helpers.hh"
#include "src/sim/divisor.hh"
#include "src/sim/json.hh"
#include "src/sim/rng.hh"
#include "src/sim/stats.hh"
#include "src/sim/ticks.hh"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

using namespace distda;
using sim::Tick;

class ClockDomainFreq : public testing::TestWithParam<double>
{
};

TEST_P(ClockDomainFreq, RoundTripsCycles)
{
    const auto clock = sim::gigahertz(GetParam());
    for (sim::Cycles c : {1ul, 2ul, 10ul, 1000ul, 123457ul}) {
        const Tick t = clock.cyclesToTicks(c);
        EXPECT_EQ(clock.ticksToCycles(t), c);
        EXPECT_EQ(t % clock.period(), 0u);
    }
}

TEST_P(ClockDomainFreq, ClockEdgeIsAligned)
{
    const auto clock = sim::gigahertz(GetParam());
    for (Tick t : {0ul, 1ul, 499ul, 500ul, 12345ul}) {
        const Tick edge = clock.clockEdge(t);
        EXPECT_GE(edge, t);
        EXPECT_EQ(edge % clock.period(), 0u);
        EXPECT_LT(edge - t, clock.period());
    }
}

INSTANTIATE_TEST_SUITE_P(Freqs, ClockDomainFreq,
                         testing::Values(1.0, 2.0, 3.0, 0.5));

TEST(Divisor, MatchesHardwareDivideOnEveryPath)
{
    // Powers of two take the shift/mask path, the rest the hardware
    // divide; both must agree with / and % everywhere, including
    // negative values and the edges of the 64-bit ranges.
    constexpr std::int64_t imax = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t imin = std::numeric_limits<std::int64_t>::min();
    std::vector<std::int64_t> values = {imin, imin + 1, imax - 1, imax,
                                        -1, 0, 1};
    for (std::int64_t v = -200; v <= 200; v += 7)
        values.push_back(v);
    for (std::int64_t v : {std::int64_t{1} << 62, (std::int64_t{1} << 62) + 5,
                           imax - 12, imax - 64, imax - 2047})
        values.push_back(v);

    for (std::uint64_t d :
         {1u, 2u, 3u, 5u, 6u, 8u, 12u, 64u, 2048u, 16384u}) {
        const sim::Divisor div(d);
        EXPECT_EQ(div.value(), d);
        const auto sd = static_cast<std::int64_t>(d);
        for (std::int64_t v : values) {
            const auto u = static_cast<std::uint64_t>(v);
            EXPECT_EQ(div.div(u), u / d) << u << " / " << d;
            EXPECT_EQ(div.mod(u), u % d) << u << " % " << d;
            const std::int64_t q = v / sd; // truncates toward zero
            const std::int64_t floor = v % sd != 0 && v < 0 ? q - 1 : q;
            EXPECT_EQ(div.floorDiv(v), floor) << v << " floor/ " << d;
            EXPECT_EQ(div.divides(v), v % sd == 0) << v << " % " << d;
        }
    }
}

TEST(Divisor, RejectsZero)
{
    EXPECT_PANIC((void)sim::Divisor(0), "divisor 0");
}

TEST(Rng, Deterministic)
{
    sim::Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    sim::Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BoundedStaysBounded)
{
    sim::Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(97), 97u);
}

TEST(Rng, DoubleInUnitInterval)
{
    sim::Rng rng(9);
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_LT(lo, 0.05);
    EXPECT_GT(hi, 0.95);
}

TEST(Stats, ScalarAccumulates)
{
    stats::Group g("test");
    auto &s = g.add("counter");
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(g.get("counter").value(), 3.5);
}

TEST(Stats, MissingStatPanics)
{
    stats::Group g("test");
    EXPECT_DEATH((void)g.get("nope"), "not found");
}

TEST(Stats, DistributionMoments)
{
    stats::Distribution d(0.0, 10.0, 5);
    for (double v : {1.0, 3.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_DOUBLE_EQ(d.count(), 5.0);
    EXPECT_DOUBLE_EQ(d.sum(), 25.0);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    // Population stdev of {1,3,5,7,9} is sqrt(8).
    EXPECT_NEAR(d.stdev(), std::sqrt(8.0), 1e-12);
    ASSERT_EQ(d.numBuckets(), 5u);
    for (std::size_t i = 0; i < d.numBuckets(); ++i)
        EXPECT_DOUBLE_EQ(d.bucketCount(i), 1.0);
    EXPECT_DOUBLE_EQ(d.underflow(), 0.0);
    EXPECT_DOUBLE_EQ(d.overflow(), 0.0);
}

TEST(Stats, DistributionOutOfRangeAndWeights)
{
    stats::Distribution d(0.0, 4.0, 4);
    d.sample(-1.0);      // below lo
    d.sample(4.0);       // hi is exclusive
    d.sample(100.0);
    d.sample(1.5, 3.0);  // weighted
    EXPECT_DOUBLE_EQ(d.underflow(), 1.0);
    EXPECT_DOUBLE_EQ(d.overflow(), 2.0);
    EXPECT_DOUBLE_EQ(d.count(), 6.0); // 1 + 2 + weight 3
    EXPECT_DOUBLE_EQ(d.bucketCount(1), 3.0);
    EXPECT_DOUBLE_EQ(d.min(), -1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
}

TEST(Stats, DuplicateNamesPanic)
{
    stats::Group g("dup");
    g.add("x");
    EXPECT_PANIC(g.add("x"), "duplicate stat");
    g.addDistribution("d");
    EXPECT_PANIC(g.addDistribution("d"), "duplicate stat");
    EXPECT_PANIC(g.addDistribution("x"), "duplicate stat");
    stats::Group c1("child");
    stats::Group c2("child");
    g.addChild(&c1);
    EXPECT_PANIC(g.addChild(&c2), "duplicate child");
}

namespace
{

/** @p g as the JSON text a run report embeds. */
std::string
groupJson(const stats::Group &g)
{
    sim::JsonWriter w;
    g.jsonDump(w);
    return w.str();
}

} // namespace

TEST(Stats, JsonDumpRoundTrips)
{
    stats::Group g("run");
    stats::Group noc("noc");
    stats::Group link("link");
    g.add("ticks") = 42.0;
    stats::Distribution &d = g.addDistribution("lat", 0.0, 8.0, 2);
    d.sample(1.0);
    d.sample(5.0);
    noc.add("bytes") = 7.0;
    link.add("flits") = 3.0;
    noc.addChild(&link);
    g.addChild(&noc);
    const std::string text = groupJson(g);
    EXPECT_NE(text.find("\"ticks\":42"), std::string::npos);
    EXPECT_NE(text.find("\"type\":\"distribution\""),
              std::string::npos);
    EXPECT_NE(text.find("\"count\":2"), std::string::npos);
    EXPECT_NE(text.find("\"mean\":3"), std::string::npos);

    // Children nest under their own names, grandchildren included.
    const sim::JsonValue doc = sim::parseJson(text, "stats");
    EXPECT_DOUBLE_EQ(doc.at("ticks").num, 42.0);
    EXPECT_DOUBLE_EQ(doc.at("noc").at("bytes").num, 7.0);
    EXPECT_DOUBLE_EQ(doc.at("noc").at("link").at("flits").num, 3.0);
    EXPECT_EQ(doc.find("bytes"), nullptr);
    EXPECT_EQ(doc.at("noc").find("flits"), nullptr);
}

TEST(P2Quantile, ExactForSmallSamples)
{
    stats::P2Quantile q(0.5);
    EXPECT_DOUBLE_EQ(q.value(), 0.0); // empty
    q.add(5.0);
    EXPECT_DOUBLE_EQ(q.value(), 5.0);
    q.add(1.0);
    q.add(3.0);
    EXPECT_DOUBLE_EQ(q.value(), 3.0); // median of {1,3,5}
    q.add(4.0);
    q.add(2.0);
    EXPECT_DOUBLE_EQ(q.value(), 3.0); // median of {1..5}
    EXPECT_EQ(q.samples(), 5u);
}

TEST(P2Quantile, TracksLargeStreams)
{
    // Deterministic pseudo-shuffle of 1..10007 (7919 is coprime with
    // 10007): exact quantiles are known, P2 must land within a few
    // percent.
    stats::P2Quantile p50(0.5);
    stats::P2Quantile p95(0.95);
    stats::P2Quantile p99(0.99);
    const int n = 10007;
    for (int i = 0; i < n; ++i) {
        const double v =
            static_cast<double>((static_cast<long long>(i) * 7919) %
                                n) +
            1.0;
        p50.add(v);
        p95.add(v);
        p99.add(v);
    }
    EXPECT_NEAR(p50.value(), 0.50 * n, 0.03 * n);
    EXPECT_NEAR(p95.value(), 0.95 * n, 0.03 * n);
    EXPECT_NEAR(p99.value(), 0.99 * n, 0.03 * n);
}

TEST(Stats, DistributionQuantilesAreOrderedAndDumped)
{
    stats::Distribution d(0.0, 1000.0, 10);
    for (int i = 1; i <= 1000; ++i)
        d.sample(i);
    // The ordering clamp is a hard invariant oracles rely on.
    EXPECT_LE(d.p50(), d.p95());
    EXPECT_LE(d.p95(), d.p99());
    EXPECT_NEAR(d.p50(), 500.0, 50.0);
    EXPECT_NEAR(d.p99(), 990.0, 30.0);

    stats::Group g("t");
    g.addDistribution("lat", 0.0, 1000.0, 10) = d;
    const std::string text = groupJson(g);
    EXPECT_NE(text.find("\"p50\":"), std::string::npos);
    EXPECT_NE(text.find("\"p95\":"), std::string::npos);
    EXPECT_NE(text.find("\"p99\":"), std::string::npos);
}

TEST(Json, ParserRoundTripsWriterOutput)
{
    sim::JsonWriter w;
    w.beginObject();
    w.key("name").value("run \"x\"\n");
    w.key("count").value(std::int64_t{42});
    w.key("ratio").value(0.125);
    w.key("ok").value(true);
    w.key("items").beginArray();
    w.value(std::uint64_t{1});
    w.beginObject();
    w.key("nested").value(-2.5);
    w.endObject();
    w.endArray();
    w.endObject();

    const sim::JsonValue doc = sim::parseJson(w.str(), "test");
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("name").str, "run \"x\"\n");
    EXPECT_DOUBLE_EQ(doc.at("count").num, 42.0);
    EXPECT_DOUBLE_EQ(doc.at("ratio").num, 0.125);
    EXPECT_TRUE(doc.at("ok").b);
    ASSERT_TRUE(doc.at("items").isArray());
    ASSERT_EQ(doc.at("items").arr.size(), 2u);
    EXPECT_DOUBLE_EQ(doc.at("items").arr[1].at("nested").num, -2.5);
    // Member order is preserved for diff alignment.
    EXPECT_EQ(doc.obj.front().first, "name");
    EXPECT_EQ(doc.obj.back().first, "items");
}

TEST(Json, ParserAcceptsEscapesAndRejectsGarbage)
{
    sim::JsonValue v;
    std::string err;
    ASSERT_TRUE(
        sim::tryParseJson(R"({"s":"aA\t\\"})", v, err));
    EXPECT_EQ(v.at("s").str, "aA\t\\");

    const char *bad[] = {
        "",          "{",         "[1,]",       "{\"a\":}",
        "{\"a\" 1}", "tru",       "1 2",        "\"unterminated",
        "{\"a\":1,}" /* trailing comma */,
    };
    for (const char *text : bad) {
        EXPECT_FALSE(sim::tryParseJson(text, v, err))
            << "accepted: " << text;
        EXPECT_FALSE(err.empty());
    }
}

TEST(Json, FindAndAtBehave)
{
    const sim::JsonValue doc =
        sim::parseJson(R"({"a":1,"b":null})", "test");
    EXPECT_NE(doc.find("a"), nullptr);
    EXPECT_EQ(doc.find("missing"), nullptr);
    EXPECT_TRUE(doc.at("b").isNull());
    EXPECT_PANIC((void)doc.at("missing"), "missing");
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    sim::JsonValue v;
    std::string err;

    // One escape from each UTF-8 length class (RFC 8259 section 7).
    ASSERT_TRUE(sim::tryParseJson(R"("\u0041")", v, err)) << err;
    EXPECT_EQ(v.str, "A");
    ASSERT_TRUE(sim::tryParseJson(R"("\u00E9")", v, err)) << err;
    EXPECT_EQ(v.str, "\xc3\xa9"); // e-acute
    ASSERT_TRUE(sim::tryParseJson(R"("\u20AC")", v, err)) << err;
    EXPECT_EQ(v.str, "\xe2\x82\xac"); // euro sign
    ASSERT_TRUE(sim::tryParseJson(R"("\u0000")", v, err)) << err;
    EXPECT_EQ(v.str, std::string(1, '\0'));

    // A surrogate pair combines into one 4-byte code point
    // (U+1D11E, musical G clef).
    ASSERT_TRUE(sim::tryParseJson(R"("\uD834\uDD1E")", v, err)) << err;
    EXPECT_EQ(v.str, "\xf0\x9d\x84\x9e");
    // Lowercase hex digits and surrounding text both work
    // (U+1F600, grinning face).
    ASSERT_TRUE(sim::tryParseJson(R"("a\ud83d\ude00z")", v, err)) << err;
    EXPECT_EQ(v.str, "a\xf0\x9f\x98\x80z");
}

TEST(Json, LoneAndMalformedSurrogatesAreRejectedWithPosition)
{
    sim::JsonValue v;
    std::string err;
    const struct
    {
        const char *text;
        const char *fragment;
    } bad[] = {
        {R"("\uD834")", "unpaired high surrogate"},
        {R"("\uD834x")", "unpaired high surrogate"},
        {R"("\uD834\n")", "unpaired high surrogate"},
        {R"("\uD834\uD834")", "unpaired high surrogate"},
        {R"("\uD834A")", "unpaired high surrogate"},
        {R"("\uDD1E")", "lone low surrogate"},
        {R"("\uD8")", "\\u escape"},
        {R"("\uZZZZ")", "\\u escape"},
    };
    for (const auto &c : bad) {
        EXPECT_FALSE(sim::tryParseJson(c.text, v, err))
            << "accepted: " << c.text;
        EXPECT_NE(err.find(c.fragment), std::string::npos)
            << c.text << " -> " << err;
        EXPECT_NE(err.find("offset"), std::string::npos)
            << c.text << " -> " << err;
    }
}

TEST(Json, WriterEscapesControlCharactersRoundTrip)
{
    // Every C0 control character must be escaped on output and decode
    // back to itself; \b, \f, \n, \r, \t use their short forms.
    std::string raw;
    for (char c = 1; c < 0x20; ++c)
        raw.push_back(c);
    raw.push_back('\0');

    const std::string escaped = sim::jsonEscape(raw);
    EXPECT_NE(escaped.find("\\b"), std::string::npos);
    EXPECT_NE(escaped.find("\\f"), std::string::npos);
    EXPECT_NE(escaped.find("\\n"), std::string::npos);
    EXPECT_NE(escaped.find("\\u0000"), std::string::npos);
    for (char c : escaped)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);

    sim::JsonValue v;
    std::string err;
    ASSERT_TRUE(sim::tryParseJson("\"" + escaped + "\"", v, err))
        << err;
    EXPECT_EQ(v.str, raw);
}

TEST(Json, RawValueAndDumpSpliceVerbatim)
{
    // rawValue splices an already-serialized document; dumpJsonValue
    // re-serializes a parsed one. Together they round-trip a report
    // subtree byte-exactly through an envelope.
    sim::JsonWriter inner;
    inner.beginObject();
    inner.key("metric").value(0.5);
    inner.key("note").value("caf\xc3\xa9");
    inner.endObject();
    const std::string report = inner.str();

    sim::JsonWriter envelope;
    envelope.beginObject();
    envelope.key("ok").value(true);
    envelope.key("missing").nullValue();
    envelope.key("report").rawValue(report);
    envelope.endObject();

    sim::JsonValue doc;
    std::string err;
    ASSERT_TRUE(sim::tryParseJson(envelope.str(), doc, err)) << err;
    EXPECT_TRUE(doc.at("missing").isNull());
    ASSERT_TRUE(doc.at("report").isObject());
    EXPECT_DOUBLE_EQ(doc.at("report").at("metric").num, 0.5);

    sim::JsonWriter dumped;
    sim::dumpJsonValue(doc.at("report"), dumped);
    EXPECT_EQ(dumped.str(), report);
}
