/**
 * @file
 * Unit tests for the trace logger and the stats package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/event_queue.hh"
#include "sim/logger.hh"
#include "sim/stats.hh"

using namespace drf;

namespace
{

class LoggerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Logger::get().disableAll();
    }

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

TEST_F(LoggerTest, DlogMacroFormats)
{
    Logger::get().enable("Flag");
    EventQueue eq;
    eq.schedule(5, [&eq] {
        DLOG(eq, "Flag", "comp", "value=" << 17);
    });
    testing::internal::CaptureStdout();
    eq.run();
    std::string out = testing::internal::GetCapturedStdout();
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
