/**
 * @file
 * Tests for the table-driven protocol family and scoped
 * synchronization: rows defining their spec cells, the missing-row
 * ProtocolError path, the LRCC variant's determinism,
 * scope-mode semantics (Scoped always passes, Racy raises
 * ScopeViolation), DRFTRC01 v3 protocol/scope round-trips, the
 * protocol/scope genome axes, and the widened search space's coverage
 * over the saturated unscoped-VIPER baseline.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "golden_digest.hh"
#include "guidance/adaptive_campaign.hh"
#include "proto/cpu_cache.hh"
#include "proto/directory.hh"
#include "proto/gpu_l1.hh"
#include "proto/gpu_l2.hh"
#include "proto/transition_table.hh"
#include "trace/repro.hh"
#include "trace/trace_file.hh"

using namespace drf;
using drf::testing::Digest;
using drf::testing::digestGrid;
using drf::testing::digestResult;
using drf::testing::goldenGpuConfig;
using drf::testing::gpuDigestOf;

TEST(TransitionTableFamily, ProtocolVariantsShareEventsNotShape)
{
    const TransitionSpec &viper = GpuL1Cache::spec();
    const TransitionSpec &lrcc = GpuL1Cache::specFor(ProtocolKind::Lrcc);
    EXPECT_EQ(viper.name(), "GPU-L1");
    EXPECT_EQ(lrcc.name(), "GPU-L1-LRCC");
    // The ownership variant widens the state space (O, M) and adds the
    // write-back event; its reachable set strictly contains work the
    // VIPER table can never express.
    EXPECT_GT(lrcc.numStates(), viper.numStates());
    EXPECT_GT(lrcc.numEvents(), viper.numEvents());
    EXPECT_GT(lrcc.reachableCount(""), viper.reachableCount(""));
}

namespace
{

/** Minimal controller for exercising TransitionTable in isolation. */
struct ToyController
{
    enum Event { EvPing = 0, EvPong = 1 };
    enum State { StIdle = 0, StBusy = 1 };
    struct TransCtx
    {
        int pings = 0;
    };

    const std::string &name() const { return _name; }
    Tick curTick() const { return 42; }

    void
    transition(Event ev, State st)
    {
        observed.emplace_back(ev, st);
    }

    void actPing(TransCtx &ctx) { ++ctx.pings; }

    std::string _name = "toy";
    std::vector<std::pair<int, int>> observed;
};

TransitionTable<ToyController>
toyTable()
{
    return TransitionTable<ToyController>("TOY", {"Idle", "Busy"},
                                          {"Ping", "Pong"});
}

} // namespace

TEST(TransitionTableFamily, FireRunsActionsAndRecordsTransition)
{
    TransitionTable<ToyController> table = toyTable();
    table.on(ToyController::EvPing, ToyController::StIdle,
             {&ToyController::actPing}, ToyController::StBusy);
    EXPECT_TRUE(table.spec().defined(ToyController::EvPing,
                                     ToyController::StIdle));
    EXPECT_EQ(table.spec().definedCount(), 1u);

    ToyController toy;
    ToyController::TransCtx ctx;
    table.fire(toy, ToyController::EvPing, ToyController::StIdle, ctx);
    EXPECT_EQ(ctx.pings, 1);
    ASSERT_EQ(toy.observed.size(), 1u);
    EXPECT_EQ(toy.observed[0].first, ToyController::EvPing);
    EXPECT_EQ(toy.observed[0].second, ToyController::StIdle);
    EXPECT_EQ(table.nextState(ToyController::EvPing,
                              ToyController::StIdle),
              ToyController::StBusy);
}

TEST(TransitionTableFamily, MissingRowThrowsProtocolErrorNamingTheRow)
{
    // The table declares no row for (Pong, Busy), so the cell is
    // undefined: dispatch must fail loudly, naming spec, event, and
    // state.
    TransitionTable<ToyController> table = toyTable();
    table.on(ToyController::EvPing, ToyController::StIdle,
             {&ToyController::actPing});

    ToyController toy;
    ToyController::TransCtx ctx;
    try {
        table.fireWith(toy, ToyController::EvPong, ToyController::StBusy,
                       ctx, [] { return std::string("pkt#7"); });
        FAIL() << "missing row did not throw";
    } catch (const ProtocolError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("Pong"), std::string::npos) << what;
        EXPECT_NE(what.find("Busy"), std::string::npos) << what;
        EXPECT_NE(what.find("TOY"), std::string::npos) << what;
        EXPECT_NE(what.find("pkt#7"), std::string::npos) << what;
        EXPECT_EQ(err.who(), "toy");
    }
    // The failed dispatch must not have recorded a transition.
    EXPECT_TRUE(toy.observed.empty());
}

namespace
{

std::uint64_t
protocolRunDigest(ProtocolKind protocol, std::uint64_t seed,
                  ScopeMode mode = ScopeMode::None)
{
    ApuSystemConfig sys_cfg =
        makeGpuSystemConfig(CacheSizeClass::Small, 4);
    sys_cfg.l1.protocol = protocol;
    ApuSystem sys(sys_cfg);
    GpuTesterConfig cfg = goldenGpuConfig(seed);
    cfg.scopeMode = mode;
    GpuTester tester(sys, cfg);
    TesterResult r = tester.run();
    EXPECT_TRUE(r.passed) << protocolKindName(protocol) << "/"
                          << scopeModeName(mode) << " seed " << seed
                          << ": " << r.report;
    return gpuDigestOf(sys, r);
}

} // namespace

TEST(LrccProtocol, SameSeedSameDigestDifferentProtocolDifferentDigest)
{
    std::uint64_t lrcc_a = protocolRunDigest(ProtocolKind::Lrcc, 9);
    std::uint64_t lrcc_b = protocolRunDigest(ProtocolKind::Lrcc, 9);
    std::uint64_t viper = protocolRunDigest(ProtocolKind::Viper, 9);
    EXPECT_EQ(lrcc_a, lrcc_b);
    EXPECT_NE(lrcc_a, viper);
}

TEST(LrccProtocol, ReachesOwnershipStates)
{
    ApuSystemConfig sys_cfg =
        makeGpuSystemConfig(CacheSizeClass::Small, 4);
    sys_cfg.l1.protocol = ProtocolKind::Lrcc;
    ApuSystem sys(sys_cfg);
    GpuTester tester(sys, goldenGpuConfig(5));
    TesterResult r = tester.run();
    ASSERT_TRUE(r.passed) << r.report;

    const CoverageGrid grid = sys.l1CoverageUnion();
    ASSERT_EQ(grid.spec().name(), "GPU-L1-LRCC");
    // The write-back demotion (M -> O) and dirty-hit rows are the
    // protocol's ownership core; a run that never exercises them is not
    // testing LRCC at all.
    EXPECT_GT(grid.count(GpuL1Cache::EvWB, GpuL1Cache::StM), 0u);
    EXPECT_GT(grid.count(GpuL1Cache::EvStoreThrough, GpuL1Cache::StM),
              0u);
    EXPECT_GT(grid.activeCount("gpu_tester"), 0u);
}

TEST(ScopedSynchronization, ScopedModePassesUnderBothProtocols)
{
    for (ProtocolKind protocol :
         {ProtocolKind::Viper, ProtocolKind::Lrcc}) {
        for (std::uint64_t seed : {1ull, 2ull, 3ull})
            protocolRunDigest(protocol, seed, ScopeMode::Scoped);
    }
}

TEST(ScopedSynchronization, RacyModeRaisesScopeViolation)
{
    // Racy mode keeps the CTA/GPU scope draws but drops the generation
    // discipline: a correct protocol then exhibits its weak CTA-scope
    // semantics across CTAs, which the checker must classify as
    // ScopeViolation (not ValueMismatch). Large caches, as with fault
    // injection: small L1s evict stale lines fast enough to mask them.
    for (ProtocolKind protocol :
         {ProtocolKind::Viper, ProtocolKind::Lrcc}) {
        bool found = false;
        for (std::uint64_t seed = 1; seed <= 20 && !found; ++seed) {
            ApuSystemConfig sys_cfg =
                makeGpuSystemConfig(CacheSizeClass::Large, 4);
            sys_cfg.l1.protocol = protocol;
            ApuSystem sys(sys_cfg);
            GpuTesterConfig cfg = goldenGpuConfig(seed);
            cfg.scopeMode = ScopeMode::Racy;
            GpuTester tester(sys, cfg);
            TesterResult r = tester.run();
            if (!r.passed) {
                EXPECT_EQ(r.failureClass, FailureClass::ScopeViolation)
                    << protocolKindName(protocol) << " seed " << seed
                    << " failed as "
                    << failureClassName(r.failureClass) << ": "
                    << r.report;
                found = true;
            }
        }
        EXPECT_TRUE(found)
            << protocolKindName(protocol)
            << ": no racy seed in 1..20 produced a scope violation";
    }
}

TEST(ScopedSynchronization, FailureClassRoundTripsByName)
{
    EXPECT_EQ(parseFailureClass(
                  failureClassName(FailureClass::ScopeViolation)),
              FailureClass::ScopeViolation);
}

TEST(TraceRoundTrip, ProtocolAndScopeSurviveSaveLoad)
{
    ApuSystemConfig sys_cfg =
        makeGpuSystemConfig(CacheSizeClass::Small, 4);
    sys_cfg.l1.protocol = ProtocolKind::Lrcc;
    GpuTesterConfig tester_cfg = goldenGpuConfig(13);
    tester_cfg.scopeMode = ScopeMode::Scoped;
    tester_cfg.episodeGen.ctaScopePct = 37;
    ReproTrace trace = recordGpuRun(sys_cfg, tester_cfg);
    ASSERT_TRUE(trace.result.passed) << trace.result.report;

    std::stringstream ss;
    ASSERT_TRUE(saveTrace(ss, trace));
    ReproTrace loaded;
    ASSERT_EQ(TraceLoadStatus::Ok, loadTraceStatus(ss, loaded));

    EXPECT_EQ(loaded.system.l1.protocol, ProtocolKind::Lrcc);
    EXPECT_EQ(loaded.tester.scopeMode, ScopeMode::Scoped);
    EXPECT_EQ(loaded.tester.episodeGen.ctaScopePct, 37u);

    // Per-episode scope bytes: same sequence, and scoped generation
    // must actually have drawn both scopes somewhere in the schedule.
    ASSERT_EQ(loaded.schedule.size(), trace.schedule.size());
    bool saw_cta = false, saw_gpu = false;
    for (std::size_t i = 0; i < trace.schedule.size(); ++i) {
        EXPECT_EQ(loaded.schedule.episodes[i].scope,
                  trace.schedule.episodes[i].scope);
        saw_cta |= trace.schedule.episodes[i].scope == Scope::Cta;
        saw_gpu |= trace.schedule.episodes[i].scope == Scope::Gpu;
    }
    EXPECT_TRUE(saw_cta);
    EXPECT_TRUE(saw_gpu);

    // And the loaded trace replays to the recorded outcome.
    TesterResult replayed = replayGpuRun(loaded);
    Digest recorded_d, replayed_d;
    digestResult(recorded_d, trace.result);
    digestResult(replayed_d, replayed);
    EXPECT_EQ(replayed_d.value(), recorded_d.value());
}

TEST(ProtocolGenome, NameAndPresetThreadProtocolAndScope)
{
    ConfigGenome g;
    g.cacheClass = CacheSizeClass::Small;
    g.actionsPerEpisode = 30;
    g.episodesPerWf = 6;
    g.atomicLocs = 10;
    g.colocDensity = 2.0;
    g.numCus = 4;

    // Default genes stay out of the name (existing shard/journal names
    // must not change).
    EXPECT_EQ(genomeName(g), "small/a30/e6/s10/d2/cu4");

    g.protocol = ProtocolKind::Lrcc;
    g.scopeMode = ScopeMode::Scoped;
    EXPECT_EQ(genomeName(g), "small/a30/e6/s10/d2/cu4/p-lrcc/sc-scoped");

    GenomeScale scale;
    scale.lanes = 8;
    scale.wfsPerCu = 2;
    scale.numNormalVars = 512;
    GpuTestPreset preset = genomeToPreset(g, scale, 77);
    EXPECT_EQ(preset.system.l1.protocol, ProtocolKind::Lrcc);
    EXPECT_EQ(preset.tester.scopeMode, ScopeMode::Scoped);
    EXPECT_EQ(genomeFromPreset(preset), g);
}

TEST(ProtocolGenome, DefaultBoundsNeverMutateProtocolOrScope)
{
    // The widened axes are opt-in: under default bounds the mutation
    // sequence must be the same function of the master seed it was
    // before the axes existed, so existing campaigns stay reproducible.
    ConfigGenome g;
    g.protocol = ProtocolKind::Lrcc;
    g.scopeMode = ScopeMode::Scoped;
    Random rng(1234);
    for (int i = 0; i < 200; ++i) {
        g = mutateGenome(g, rng);
        EXPECT_EQ(g.protocol, ProtocolKind::Lrcc);
        EXPECT_EQ(g.scopeMode, ScopeMode::Scoped);
    }
}

TEST(ProtocolGenome, ArmedBoundsEventuallyFlipBothAxes)
{
    GenomeBounds bounds;
    bounds.searchProtocols = true;
    bounds.searchScopes = true;

    ConfigGenome g;
    Random rng(99);
    bool saw_lrcc = false, saw_scoped = false, saw_racy = false;
    for (int i = 0; i < 500; ++i) {
        g = mutateGenome(g, rng, bounds);
        saw_lrcc |= g.protocol == ProtocolKind::Lrcc;
        saw_scoped |= g.scopeMode == ScopeMode::Scoped;
        // Racy is excluded from the search space by design.
        saw_racy |= g.scopeMode == ScopeMode::Racy;
    }
    EXPECT_TRUE(saw_lrcc);
    EXPECT_TRUE(saw_scoped);
    EXPECT_FALSE(saw_racy);
}

TEST(ProtocolGenome, WidenedSpaceExceedsSaturatedViperBaseline)
{
    // A tiny guided campaign per protocol; small enough to saturate the
    // VIPER space. The widened space's union — accumulated across both
    // specs — must strictly exceed the saturated unscoped-VIPER
    // baseline, because the LRCC grid holds cells the VIPER table
    // cannot express.
    auto campaign = [](ProtocolKind protocol, ScopeMode mode) {
        ConfigGenome g;
        g.cacheClass = CacheSizeClass::Small;
        g.actionsPerEpisode = 20;
        g.episodesPerWf = 4;
        g.atomicLocs = 6;
        g.colocDensity = 2.0;
        g.numCus = 2;
        g.protocol = protocol;
        g.scopeMode = mode;
        SourceConfig cfg;
        cfg.arms = {g};
        cfg.scale.lanes = 4;
        cfg.scale.wfsPerCu = 1;
        cfg.scale.numNormalVars = 128;
        cfg.masterSeed = 1;
        cfg.batchSize = 2;
        cfg.maxShards = 4;
        GuidedSource source(cfg);
        AdaptiveCampaignResult res = runAdaptiveCampaign(source);
        EXPECT_TRUE(res.passed);
        return res;
    };

    AdaptiveCampaignResult baseline =
        campaign(ProtocolKind::Viper, ScopeMode::None);
    AdaptiveCampaignResult widened =
        campaign(ProtocolKind::Lrcc, ScopeMode::Scoped);
    ASSERT_TRUE(baseline.l1Union.has_value());
    ASSERT_TRUE(widened.l1Union.has_value());

    CoverageAccumulator unions;
    unions.add(*baseline.l1Union);
    unions.add(*widened.l1Union);
    // Two distinct specs in the union: the widened space added a grid.
    ASSERT_EQ(unions.grids().size(), 2u);
    std::size_t baseline_active =
        baseline.l1Union->activeCount("gpu_tester");
    EXPECT_GT(unions.activeCount("gpu_tester"), baseline_active);
}
