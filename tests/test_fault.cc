/**
 * @file
 * Fault-injection coverage: every FaultKind is detected by the testing
 * methodology and classified as the expected failure class.
 *
 * Four of the five faults fall to the random GPU tester directly; the
 * kinds and seeds here are chosen so each fault manifests within the
 * golden preset's episode budget. DropGpuProbe is the exception — it
 * needs interleaved CPU and GPU traffic on one line, which the random
 * GPU tester never generates — so it is exercised by the directed
 * protocol scenario (src/tester/scenarios.hh), with FaultKind::None as
 * the control arm.
 */

#include <gtest/gtest.h>

#include "fleet/coordinator.hh"
#include "golden_digest.hh"
#include "guidance/adaptive_campaign.hh"
#include "proto/fault.hh"
#include "tester/scenarios.hh"
#include "tester/tester_failure.hh"

using namespace drf;
using namespace drf::testing;

namespace
{

/** Run the golden GPU preset with @p fault armed, return the result. */
TesterResult
runWithFault(FaultKind fault, std::uint64_t seed,
             CacheSizeClass cache_class = CacheSizeClass::Small)
{
    ApuSystemConfig sys_cfg = makeGpuSystemConfig(cache_class, 4);
    sys_cfg.fault = fault;
    ApuSystem sys(sys_cfg);
    GpuTester tester(sys, goldenGpuConfig(seed));
    return tester.run();
}

/** A small guided campaign's source config with @p fault armed. */
SourceConfig
guidedFaultConfig(FaultKind fault, CacheSizeClass cache_class)
{
    ConfigGenome base;
    base.cacheClass = cache_class;
    base.actionsPerEpisode = 30;
    base.episodesPerWf = 6;
    base.atomicLocs = 10;
    base.colocDensity = 2.0;
    base.numCus = 4;
    ConfigGenome alt = base;
    alt.episodesPerWf = 12;

    SourceConfig cfg;
    cfg.arms = {base, alt};
    cfg.scale.lanes = 8;
    cfg.scale.wfsPerCu = 2;
    cfg.scale.numNormalVars = 512;
    cfg.scale.fault = fault;
    cfg.masterSeed = 1;
    cfg.batchSize = 2;
    cfg.maxShards = 16;
    return cfg;
}

/**
 * Run a guided adaptive campaign with @p fault armed campaign-wide and
 * return its first failure's class (None if no shard failed).
 */
FailureClass
guidedCampaignFailureClass(FaultKind fault, CacheSizeClass cache_class)
{
    GuidedSource source(guidedFaultConfig(fault, cache_class));

    AdaptiveCampaignResult res = runAdaptiveCampaign(source);
    if (res.passed)
        return FailureClass::None;
    // The failing shard's full preset must be recoverable by seed so
    // the fuzz tool can re-record it as a trace.
    EXPECT_TRUE(res.failurePreset.has_value());
    if (res.failurePreset) {
        EXPECT_EQ(res.failurePreset->tester.seed,
                  res.firstFailure->seed);
        EXPECT_EQ(res.failurePreset->system.fault, fault);
    }
    return res.firstFailureClass;
}

} // namespace

TEST(Fault, ParseFaultKindRoundTripsEveryKind)
{
    for (std::uint32_t i = 0; i < faultKindCount; ++i) {
        FaultKind kind = static_cast<FaultKind>(i);
        std::optional<FaultKind> parsed =
            parseFaultKind(faultKindName(kind));
        ASSERT_TRUE(parsed.has_value()) << faultKindName(kind);
        EXPECT_EQ(*parsed, kind);
    }
}

TEST(Fault, ParseFaultKindRejectsUnknownNames)
{
    EXPECT_FALSE(parseFaultKind("").has_value());
    EXPECT_FALSE(parseFaultKind("LostWritethrough").has_value());
    EXPECT_FALSE(parseFaultKind("lostwritethrough").has_value());
    EXPECT_FALSE(parseFaultKind("None ").has_value());
    EXPECT_FALSE(parseFaultKind("7").has_value());
}

TEST(Fault, InjectorClampsTriggerPctTo100)
{
    // Random::pct treats any percentage > 100 as always-fire, so an
    // unclamped typo (1000) would silently behave like 100. The clamp
    // pins that: the injector never reports an out-of-range rate.
    FaultInjector typo(FaultKind::LostWriteThrough, 1000, 1);
    EXPECT_EQ(typo.triggerPct(), 100u);

    FaultInjector normal(FaultKind::LostWriteThrough, 35, 1);
    EXPECT_EQ(normal.triggerPct(), 35u);

    FaultInjector zero(FaultKind::LostWriteThrough, 0, 1);
    EXPECT_EQ(zero.triggerPct(), 0u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(zero.fire(FaultKind::LostWriteThrough));
    EXPECT_EQ(zero.firings(), 0u);
}

TEST(Fault, NoFaultPasses)
{
    TesterResult r = runWithFault(FaultKind::None, 9);
    EXPECT_TRUE(r.passed);
    EXPECT_EQ(r.failureClass, FailureClass::None);
}

// A silently dropped write-through surfaces as a stale load: the
// checker's value mismatch, with the Table V last-writer dump.
TEST(Fault, LostWriteThroughIsValueMismatch)
{
    TesterResult r = runWithFault(FaultKind::LostWriteThrough, 11);
    EXPECT_FALSE(r.passed);
    EXPECT_EQ(r.failureClass, FailureClass::ValueMismatch);
    EXPECT_NE(r.report.find("Last Writer"), std::string::npos);
}

// A non-atomic read-modify-write loses an update on the sync variable:
// two episodes observe the same atomic return value.
TEST(Fault, NonAtomicRmwIsAtomicViolation)
{
    TesterResult r = runWithFault(FaultKind::NonAtomicRmw, 42);
    EXPECT_FALSE(r.passed);
    EXPECT_EQ(r.failureClass, FailureClass::AtomicViolation);
}

// A swallowed acquire flash-invalidate leaves stale lines in the L1.
// Needs the large cache class: small L1s evict lines fast enough that
// natural replacement masks the missing invalidate.
TEST(Fault, DropAcquireInvalidateIsValueMismatch)
{
    TesterResult r = runWithFault(FaultKind::DropAcquireInvalidate, 5,
                                  CacheSizeClass::Large);
    EXPECT_FALSE(r.passed);
    EXPECT_EQ(r.failureClass, FailureClass::ValueMismatch);
}

// A dropped write acknowledgement strands the L1's outstanding
// write-through count, so a release can never drain: the watchdog
// reports the stuck request.
TEST(Fault, DropWriteAckIsDeadlock)
{
    TesterResult r = runWithFault(FaultKind::DropWriteAck, 7);
    EXPECT_FALSE(r.passed);
    EXPECT_EQ(r.failureClass, FailureClass::Deadlock);
}

// A guided campaign must not trade away fault-finding power for
// coverage efficiency: with each random-tester-detectable fault armed
// campaign-wide, the coverage-guided scheduler still surfaces the
// failure with the expected class, and remembers the failing shard's
// full preset for trace re-recording.
TEST(Fault, GuidedCampaignDetectsLostWriteThrough)
{
    EXPECT_EQ(guidedCampaignFailureClass(FaultKind::LostWriteThrough,
                                         CacheSizeClass::Small),
              FailureClass::ValueMismatch);
}

TEST(Fault, GuidedFirstFailureCarriesItsClass)
{
    // The reproduction handle names the failure class it reproduces,
    // whether the campaign ran in-process or through the coordinator.
    auto check = [](const AdaptiveCampaignResult &res) {
        ASSERT_TRUE(res.firstFailure.has_value());
        EXPECT_EQ(res.firstFailureClass, FailureClass::ValueMismatch);
        EXPECT_EQ(res.firstFailure->failureClass, res.firstFailureClass);
    };
    const SourceConfig cfg = guidedFaultConfig(FaultKind::LostWriteThrough,
                                               CacheSizeClass::Small);

    GuidedSource in_process(cfg);
    check(runAdaptiveCampaign(in_process));

    GuidedSource fleet_source(cfg);
    fleet::CoordinatorConfig coord_cfg;
    coord_cfg.expectedWorkers = 0;
    fleet::FleetCoordinator coordinator(fleet_source, coord_cfg);
    ASSERT_TRUE(coordinator.listen());
    check(coordinator.run().adaptive);
}

TEST(Fault, GuidedCampaignDetectsNonAtomicRmw)
{
    EXPECT_EQ(guidedCampaignFailureClass(FaultKind::NonAtomicRmw,
                                         CacheSizeClass::Small),
              FailureClass::AtomicViolation);
}

TEST(Fault, GuidedCampaignDetectsDropAcquireInvalidate)
{
    EXPECT_EQ(
        guidedCampaignFailureClass(FaultKind::DropAcquireInvalidate,
                                   CacheSizeClass::Large),
        FailureClass::ValueMismatch);
}

TEST(Fault, GuidedCampaignDetectsDropWriteAck)
{
    EXPECT_EQ(guidedCampaignFailureClass(FaultKind::DropWriteAck,
                                         CacheSizeClass::Small),
              FailureClass::Deadlock);
}

// The directed scenario: GPU caches a line, the CPU takes exclusive
// ownership (the probe toward the GPU L2 is dropped), and the GPU's
// post-acquire reload observes the stale L2 copy.
TEST(Fault, DropGpuProbeScenarioObservesStaleData)
{
    ProbeScenarioResult bugged =
        runDropGpuProbeScenario(FaultKind::DropGpuProbe);
    ASSERT_TRUE(bugged.completed);
    EXPECT_TRUE(bugged.staleObserved)
        << "reload returned 0x" << std::hex << bugged.gpuReloadValue;
}

// Control arm: with a correct protocol the same sequence invalidates
// the L2 copy and the reload returns the CPU's value.
TEST(Fault, DropGpuProbeScenarioControlArmIsClean)
{
    ProbeScenarioResult clean =
        runDropGpuProbeScenario(FaultKind::None);
    ASSERT_TRUE(clean.completed);
    EXPECT_FALSE(clean.staleObserved);
    EXPECT_EQ(clean.gpuReloadValue, clean.cpuStoreValue);
}
