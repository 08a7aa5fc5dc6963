/**
 * @file
 * Unit tests for the stats package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

using namespace drf;

TEST(Counter, IncrementAndReset)
{
    Counter c("x");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Distribution, Moments)
{
    Distribution d("lat");
    for (double v : {1.0, 2.0, 3.0, 4.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 4.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 4.0);
}

TEST(Distribution, EmptyIsZero)
{
    Distribution d("lat");
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.5), 0.0);
}

TEST(StatGroup, CreateFetchAndDump)
{
    StatGroup group("comp");
    group.counter("hits").inc(3);
    group.counter("misses").inc();
    EXPECT_EQ(group.value("hits"), 3u);
    EXPECT_EQ(group.value("nonexistent"), 0u);

    std::ostringstream os;
    group.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("comp.hits 3"), std::string::npos);
    EXPECT_NE(out.find("comp.misses 1"), std::string::npos);
}

TEST(StatGroup, ResetZeroesAll)
{
    StatGroup group("comp");
    group.counter("a").inc(7);
    group.reset();
    EXPECT_EQ(group.value("a"), 0u);
}
