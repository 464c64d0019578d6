/**
 * @file
 * Unit tests for the common infrastructure: address helpers, RNG
 * determinism, statistics (counters, distributions, CDF/quantiles) and
 * the text-table formatter.
 */

#include <gtest/gtest.h>

#include <sstream>

#include <set>

#include "common/flat_set.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

using namespace hintm;

TEST(AddrSet, InsertContainsAndDuplicates)
{
    AddrSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.contains(42));
    EXPECT_TRUE(s.insert(42));
    EXPECT_FALSE(s.insert(42)); // duplicate
    EXPECT_TRUE(s.contains(42));
    EXPECT_FALSE(s.contains(43));
    EXPECT_EQ(s.size(), 1u);
}

TEST(AddrSet, GrowsPastInitialCapacityWithoutLosingKeys)
{
    AddrSet s(16);
    const std::size_t cap0 = s.capacity();
    // Colliding-ish keys: sequential block numbers, then sparse ones.
    for (Addr a = 0; a < 1000; ++a)
        EXPECT_TRUE(s.insert(a * 64));
    EXPECT_EQ(s.size(), 1000u);
    EXPECT_GT(s.capacity(), cap0);
    for (Addr a = 0; a < 1000; ++a)
        EXPECT_TRUE(s.contains(a * 64));
    EXPECT_FALSE(s.contains(1000 * 64));
}

TEST(AddrSet, ClearKeepsCapacity)
{
    AddrSet s;
    for (Addr a = 1; a <= 500; ++a)
        s.insert(a);
    const std::size_t cap = s.capacity();
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.capacity(), cap); // no realloc churn across TXs
    EXPECT_FALSE(s.contains(1));
    EXPECT_TRUE(s.insert(1));
}

TEST(AddrSet, ForEachVisitsEveryKeyOnce)
{
    AddrSet s;
    std::set<Addr> expect;
    for (Addr a = 0; a < 100; ++a) {
        s.insert(a * 4096);
        expect.insert(a * 4096);
    }
    std::set<Addr> seen;
    s.forEach([&](Addr a) { EXPECT_TRUE(seen.insert(a).second); });
    EXPECT_EQ(seen, expect);
}

TEST(AddrSet, ZeroIsAValidKey)
{
    AddrSet s;
    EXPECT_FALSE(s.contains(0));
    EXPECT_TRUE(s.insert(0));
    EXPECT_TRUE(s.contains(0));
    EXPECT_FALSE(s.insert(0));
}

TEST(Types, BlockAndPageMath)
{
    EXPECT_EQ(blockAlign(0), 0u);
    EXPECT_EQ(blockAlign(63), 0u);
    EXPECT_EQ(blockAlign(64), 64u);
    EXPECT_EQ(blockAlign(130), 128u);
    EXPECT_EQ(blockNumber(128), 2u);
    EXPECT_EQ(pageAlign(4095), 0u);
    EXPECT_EQ(pageAlign(4096), 4096u);
    EXPECT_EQ(pageNumber(8191), 1u);
    EXPECT_EQ(pageOffset(4100), 4u);
}

TEST(Types, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(64), 6u);
    EXPECT_EQ(log2i(4096), 12u);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    Rng a2(42), c2(43);
    EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, BoundsRespected)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(17), 17u);
        const auto v = r.range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        const double d = r.uniform();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng r(123);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits, 2500, 200);
}

TEST(Stats, DistributionMoments)
{
    stats::Distribution d(1, 64);
    for (std::uint64_t v : {1, 2, 3, 4, 5})
        d.sample(v);
    EXPECT_EQ(d.count(), 5u);
    EXPECT_EQ(d.sum(), 15u);
    EXPECT_EQ(d.min(), 1u);
    EXPECT_EQ(d.max(), 5u);
    EXPECT_DOUBLE_EQ(d.mean(), 3.0);
}

TEST(Stats, DistributionCdf)
{
    stats::Distribution d(1, 128);
    for (std::uint64_t v = 0; v < 100; ++v)
        d.sample(v);
    EXPECT_NEAR(d.cdfAt(49), 0.5, 0.01);
    EXPECT_DOUBLE_EQ(d.cdfAt(99), 1.0);
    EXPECT_NEAR(double(d.quantile(0.5)), 50.0, 2.0);
    EXPECT_EQ(d.quantile(1.0), 99u);
}

TEST(Stats, DistributionOverflowBucket)
{
    stats::Distribution d(1, 4);
    d.sample(100);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.max(), 100u);
    EXPECT_DOUBLE_EQ(d.cdfAt(3), 0.0);
}

TEST(Stats, DistributionBucketWidth)
{
    stats::Distribution d(10, 10);
    d.sample(5);
    d.sample(15);
    d.sample(95);
    EXPECT_NEAR(d.cdfAt(9), 1.0 / 3, 1e-9);
    EXPECT_NEAR(d.cdfAt(19), 2.0 / 3, 1e-9);
}

TEST(Table, PctRendersSignedFractions)
{
    EXPECT_EQ(TextTable::pct(0.42), "42.0%");
    // A negative reduction (mechanism made things worse) must show its
    // sign instead of being clamped or mangled.
    EXPECT_EQ(TextTable::pct(-0.5), "-50.0%");
    EXPECT_EQ(TextTable::pct(-1.0, 0), "-100%");
}

TEST(Table, AlignsColumns)
{
    TextTable t;
    t.header({"a", "bb"});
    t.row({"xxx", "y"});
    std::ostringstream os;
    os << t;
    const std::string s = os.str();
    EXPECT_NE(s.find("xxx"), std::string::npos);
    EXPECT_NE(s.find("---"), std::string::npos);
    EXPECT_EQ(TextTable::num(1.234, 2), "1.23");
    EXPECT_EQ(TextTable::pct(0.5, 1), "50.0%");
}
