/**
 * @file
 * Integration tests for the DRF GPU tester: it must pass on a correct
 * protocol under many seeds and configurations, detect every injected
 * bug class, and be fully deterministic under a seed.
 */

#include <gtest/gtest.h>

#include "sim/logger.hh"
#include "tester/configs.hh"
#include "tester/gpu_tester.hh"

using namespace drf;

namespace
{

GpuTesterConfig
smallTesterConfig(std::uint64_t seed, unsigned episodes = 6,
                  unsigned actions = 30)
{
    GpuTesterConfig cfg = makeGpuTesterConfig(actions, episodes,
                                              /*atomic_locs=*/10, seed);
    cfg.lanes = 8;
    cfg.episodeGen.lanes = 8;
    cfg.wfsPerCu = 2;
    cfg.variables.numNormalVars = 512;
    cfg.variables.addrRangeBytes = 1 << 14; // dense: false sharing
    return cfg;
}

TesterResult
runOnce(CacheSizeClass cache_class, std::uint64_t seed,
        FaultKind fault = FaultKind::None, unsigned trigger_pct = 100,
        unsigned episodes = 6)
{
    ApuSystemConfig sys_cfg = makeGpuSystemConfig(cache_class, 4);
    sys_cfg.fault = fault;
    sys_cfg.faultTriggerPct = trigger_pct;
    ApuSystem sys(sys_cfg);
    GpuTester tester(sys, smallTesterConfig(seed, episodes));
    return tester.run();
}

} // namespace

class GpuTesterSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GpuTesterSeeds, PassesOnCorrectProtocolSmallCaches)
{
    TesterResult r = runOnce(CacheSizeClass::Small, GetParam());
    EXPECT_TRUE(r.passed) << r.report;
    EXPECT_GT(r.loadsChecked, 0u);
    EXPECT_GT(r.atomicsChecked, 0u);
}

TEST_P(GpuTesterSeeds, PassesOnCorrectProtocolLargeCaches)
{
    TesterResult r = runOnce(CacheSizeClass::Large, GetParam());
    EXPECT_TRUE(r.passed) << r.report;
}

TEST_P(GpuTesterSeeds, PassesOnCorrectProtocolMixedCaches)
{
    TesterResult r = runOnce(CacheSizeClass::Mixed, GetParam());
    EXPECT_TRUE(r.passed) << r.report;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpuTesterSeeds,
                         ::testing::Values(1, 7, 23, 99, 1234));

TEST(GpuTester, RetiresExpectedEpisodeCount)
{
    TesterResult r = runOnce(CacheSizeClass::Small, 5);
    ASSERT_TRUE(r.passed) << r.report;
    // 4 CUs x 2 WFs x 6 episodes.
    EXPECT_EQ(r.episodes, 4u * 2u * 6u);
}

TEST(GpuTester, DeterministicUnderSeed)
{
    TesterResult a = runOnce(CacheSizeClass::Small, 77);
    TesterResult b = runOnce(CacheSizeClass::Small, 77);
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.loadsChecked, b.loadsChecked);
}

TEST(GpuTester, DifferentSeedsExploreDifferently)
{
    TesterResult a = runOnce(CacheSizeClass::Small, 1);
    TesterResult b = runOnce(CacheSizeClass::Small, 2);
    EXPECT_NE(a.loadsChecked, b.loadsChecked);
}

class GpuTesterBugs : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GpuTesterBugs, DetectsLostWriteThrough)
{
    TesterResult r = runOnce(CacheSizeClass::Small, GetParam(),
                             FaultKind::LostWriteThrough, 100,
                             /*episodes=*/20);
    ASSERT_FALSE(r.passed);
    EXPECT_NE(r.report.find("inconsistency"), std::string::npos)
        << r.report;
    EXPECT_NE(r.report.find("Last Writer"), std::string::npos);
    EXPECT_NE(r.report.find("Last Reader"), std::string::npos);
}

TEST_P(GpuTesterBugs, DetectsNonAtomicRmw)
{
    TesterResult r = runOnce(CacheSizeClass::Small, GetParam(),
                             FaultKind::NonAtomicRmw, 100,
                             /*episodes=*/20);
    ASSERT_FALSE(r.passed);
    EXPECT_NE(r.report.find("atomic"), std::string::npos) << r.report;
}

TEST_P(GpuTesterBugs, DetectsDroppedAcquireInvalidate)
{
    TesterResult r = runOnce(CacheSizeClass::Large, GetParam(),
                             FaultKind::DropAcquireInvalidate, 100,
                             /*episodes=*/25);
    // Stale data must eventually surface as a value mismatch. Large
    // caches keep stale lines alive, making detection reliable.
    ASSERT_FALSE(r.passed);
    EXPECT_NE(r.report.find("mismatch"), std::string::npos) << r.report;
}

TEST_P(GpuTesterBugs, DetectsDroppedAckAsDeadlock)
{
    TesterResult r = runOnce(CacheSizeClass::Small, GetParam(),
                             FaultKind::DropWriteAck, 100,
                             /*episodes=*/10);
    ASSERT_FALSE(r.passed);
    EXPECT_NE(r.report.find("deadlock"), std::string::npos) << r.report;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpuTesterBugs,
                         ::testing::Values(11, 42, 314));

TEST(GpuTester, RareBugStillCaughtWithLowTriggerRate)
{
    // A bug firing on only 10% of eligible events is still found given
    // enough episodes.
    TesterResult r = runOnce(CacheSizeClass::Small, 5,
                             FaultKind::LostWriteThrough, 10,
                             /*episodes=*/40);
    EXPECT_FALSE(r.passed);
}

TEST(GpuTester, CoverageAccumulates)
{
    ApuSystemConfig sys_cfg =
        makeGpuSystemConfig(CacheSizeClass::Small, 4);
    ApuSystem sys(sys_cfg);
    GpuTester tester(sys, smallTesterConfig(3));
    TesterResult r = tester.run();
    ASSERT_TRUE(r.passed) << r.report;

    CoverageGrid l1 = sys.l1CoverageUnion();
    EXPECT_GT(l1.coveragePct("gpu_tester"), 60.0);
    EXPECT_GT(sys.l2().coverage().coveragePct("gpu_tester"), 50.0);
    // The directory sees only GPU traffic.
    EXPECT_EQ(sys.directory()
                  .coverage()
                  .count(Directory::EvCpuGets, Directory::StU),
              0u);
}

TEST(GpuTester, FailureReportIncludesHistory)
{
    TesterResult r = runOnce(CacheSizeClass::Small, 8,
                             FaultKind::LostWriteThrough, 100,
                             /*episodes=*/20);
    ASSERT_FALSE(r.passed);
    // Table V fields present in the report.
    EXPECT_NE(r.report.find("thread="), std::string::npos);
    EXPECT_NE(r.report.find("episode="), std::string::npos);
    EXPECT_NE(r.report.find("cycle="), std::string::npos);
    EXPECT_NE(r.report.find("value="), std::string::npos);
}

TEST(GpuTester, SingleCuSingleWfWorks)
{
    ApuSystemConfig sys_cfg =
        makeGpuSystemConfig(CacheSizeClass::Small, 1);
    ApuSystem sys(sys_cfg);
    GpuTesterConfig cfg = smallTesterConfig(9);
    cfg.wfsPerCu = 1;
    GpuTester tester(sys, cfg);
    TesterResult r = tester.run();
    EXPECT_TRUE(r.passed) << r.report;
    EXPECT_EQ(r.episodes, 6u);
}

TEST(GpuTester, ManyAtomicLocationsWork)
{
    ApuSystemConfig sys_cfg =
        makeGpuSystemConfig(CacheSizeClass::Mixed, 4);
    ApuSystem sys(sys_cfg);
    GpuTesterConfig cfg = smallTesterConfig(10);
    cfg.variables.numSyncVars = 100;
    GpuTester tester(sys, cfg);
    TesterResult r = tester.run();
    EXPECT_TRUE(r.passed) << r.report;
}
