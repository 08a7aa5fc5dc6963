/**
 * @file
 * Unit tests for the trace logger and the stats package.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "sim/event_queue.hh"
#include "sim/logger.hh"
#include "sim/stats.hh"

using namespace drf;

namespace
{

class LoggerTest : public ::testing::Test
{
  protected:
    void SetUp() override { Logger::get().disableAll(); }

    void TearDown() override { SetUp(); }
};

} // namespace

TEST_F(LoggerTest, FlagsToggle)
{
    Logger &log = Logger::get();
    EXPECT_FALSE(log.enabled("Tester"));
    log.enable("Tester");
    EXPECT_TRUE(log.enabled("Tester"));
    log.disable("Tester");
    EXPECT_FALSE(log.enabled("Tester"));
}

TEST_F(LoggerTest, AllFlagEnablesEverything)
{
    Logger &log = Logger::get();
    log.enable("all");
    EXPECT_TRUE(log.enabled("anything"));
    log.disable("all");
    EXPECT_FALSE(log.enabled("anything"));
}

TEST_F(LoggerTest, TogglingAfterTheLockFreePathWasTaken)
{
    // With nothing enabled, enabled() answers without the lock; every
    // later enable/disable/disableAll must still be seen.
    Logger &log = Logger::get();
    EXPECT_FALSE(log.enabled("Tester"));
    log.enable("Tester");
    EXPECT_TRUE(log.enabled("Tester"));
    EXPECT_FALSE(log.enabled("Other"));
    log.enable("Other");
    log.disable("Tester");
    EXPECT_FALSE(log.enabled("Tester"));
    EXPECT_TRUE(log.enabled("Other"));
    log.disable("Other");
    EXPECT_FALSE(log.enabled("Other"));
    log.enable("all");
    EXPECT_TRUE(log.enabled("Tester"));
    log.disableAll();
    EXPECT_FALSE(log.enabled("Tester"));
    EXPECT_FALSE(log.enabled("anything"));
    log.enable("Tester");
    EXPECT_TRUE(log.enabled("Tester"));
}

TEST_F(LoggerTest, EnableIsSeenByAnotherThread)
{
    Logger &log = Logger::get();
    bool before = true;
    std::thread([&] { before = log.enabled("Tester"); }).join();
    EXPECT_FALSE(before);
    log.enable("Tester");
    bool after = false;
    std::thread([&] { after = log.enabled("Tester"); }).join();
    EXPECT_TRUE(after);
    log.disableAll();
    std::thread([&] { after = log.enabled("Tester"); }).join();
    EXPECT_FALSE(after);
}

TEST_F(LoggerTest, DlogMacroFormats)
{
    // Printed with the flag enabled; nothing at all while it is not.
    EventQueue eq;
    eq.schedule(5, [&eq] {
        DLOG(eq, "Flag", "comp", "value=" << 17);
    });
    eq.schedule(6, [&eq] {
        DLOG(eq, "Other", "comp", "hidden=" << 18);
    });
    Logger::get().enable("Flag");
    ::testing::internal::CaptureStdout();
    eq.run();
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(out, "5: comp [Flag] value=17\n");
}

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
