/**
 * @file
 * Tests for the multi-seed campaign runner: aggregate determinism
 * across thread counts, early stop on failure and on coverage
 * saturation, shard isolation, and the JSON summary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "campaign/campaign.hh"
#include "campaign/campaign_json.hh"
#include "tester/configs.hh"
#include "tester/tester_failure.hh"

using namespace drf;

namespace
{

/** A deliberately small, fast GPU preset for campaign shards. */
GpuTestPreset
tinyPreset(std::uint64_t seed, FaultKind fault = FaultKind::None)
{
    GpuTestPreset preset;
    preset.name = "tiny";
    preset.cacheClass = CacheSizeClass::Small;
    preset.system = makeGpuSystemConfig(CacheSizeClass::Small, 2);
    preset.system.fault = fault;
    preset.tester = makeGpuTesterConfig(/*actions_per_episode=*/20,
                                        /*episodes_per_wf=*/3,
                                        /*atomic_locs=*/10, seed);
    preset.tester.lanes = 4;
    preset.tester.episodeGen.lanes = 4;
    preset.tester.variables.numNormalVars = 256;
    preset.tester.variables.addrRangeBytes = 1 << 13;
    return preset;
}

/** A synthetic shard that doesn't need a simulator. */
ShardSpec
syntheticShard(const std::string &name, std::uint64_t seed,
               std::uint64_t events, bool pass)
{
    ShardSpec spec;
    spec.name = name;
    spec.seed = seed;
    spec.run = [name, seed, events, pass]() {
        ShardOutcome out;
        out.name = name;
        out.result.passed = pass;
        out.result.ticks = 100;
        out.result.events = events;
        out.result.episodes = 2;
        if (!pass)
            out.result.report = "synthetic failure seed " +
                                std::to_string(seed);
        return out;
    };
    return spec;
}

} // namespace

TEST(Campaign, EmptyCampaignPasses)
{
    CampaignResult res = runCampaign({}, {});
    EXPECT_TRUE(res.passed);
    EXPECT_EQ(res.shardsPlanned, 0u);
    EXPECT_EQ(res.shardsRun, 0u);
}

TEST(Campaign, AggregatesAreThreadCountInvariant)
{
    // The same 6-seed campaign must produce identical sums and union
    // coverage whether it runs serially or on 4 workers.
    auto run_with_jobs = [](unsigned jobs) {
        CampaignConfig cfg;
        cfg.jobs = jobs;
        return runCampaign(gpuSeedSweep(tinyPreset(1), 1, 6), cfg);
    };
    CampaignResult serial = run_with_jobs(1);
    CampaignResult parallel = run_with_jobs(4);

    EXPECT_TRUE(serial.passed);
    EXPECT_TRUE(parallel.passed);
    EXPECT_EQ(serial.shardsRun, 6u);
    EXPECT_EQ(parallel.shardsRun, 6u);
    EXPECT_EQ(serial.totalTicks, parallel.totalTicks);
    EXPECT_EQ(serial.totalEvents, parallel.totalEvents);
    EXPECT_EQ(serial.totalEpisodes, parallel.totalEpisodes);
    EXPECT_EQ(serial.totalLoadsChecked, parallel.totalLoadsChecked);
    EXPECT_EQ(serial.totalStoresRetired, parallel.totalStoresRetired);
    EXPECT_EQ(serial.totalAtomicsChecked, parallel.totalAtomicsChecked);

    ASSERT_TRUE(serial.l1Union && parallel.l1Union);
    ASSERT_TRUE(serial.l2Union && parallel.l2Union);
    EXPECT_DOUBLE_EQ(serial.l1Union->coveragePct("gpu_tester"),
                     parallel.l1Union->coveragePct("gpu_tester"));
    EXPECT_DOUBLE_EQ(serial.l2Union->coveragePct("gpu_tester"),
                     parallel.l2Union->coveragePct("gpu_tester"));
    EXPECT_GT(serial.l1Union->coveragePct("gpu_tester"), 0.0);
}

TEST(Campaign, KeepOutcomesReturnsShardsInIndexOrder)
{
    CampaignConfig cfg;
    cfg.jobs = 3;
    cfg.keepOutcomes = true;
    CampaignResult res =
        runCampaign(gpuSeedSweep(tinyPreset(1), 10, 5), cfg);
    ASSERT_EQ(res.outcomes.size(), 5u);
    for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
        EXPECT_EQ(res.outcomes[i].index, i);
        EXPECT_EQ(res.outcomes[i].seed, 10u + i);
        EXPECT_EQ(res.outcomes[i].name,
                  "tiny/seed" + std::to_string(10 + i));
        EXPECT_TRUE(res.outcomes[i].result.passed);
    }
}

TEST(Campaign, FirstFailurePreservedWithSeed)
{
    std::vector<ShardSpec> shards;
    shards.push_back(syntheticShard("good-a", 1, 10, true));
    shards.push_back(syntheticShard("bad", 77, 10, false));
    shards.push_back(syntheticShard("good-b", 3, 10, true));

    CampaignConfig cfg;
    cfg.jobs = 1;
    CampaignResult res = runCampaign(std::move(shards), cfg);
    EXPECT_FALSE(res.passed);
    ASSERT_TRUE(res.firstFailure.has_value());
    EXPECT_EQ(res.firstFailure->name, "bad");
    EXPECT_EQ(res.firstFailure->seed, 77u);
    EXPECT_EQ(res.firstFailure->index, 1u);
    EXPECT_NE(res.firstFailure->report.find("seed 77"),
              std::string::npos);
    // Serial + stopOnFailure: the shard after the failure is skipped.
    EXPECT_EQ(res.shardsRun, 2u);
    EXPECT_EQ(res.shardsSkipped, 1u);
}

TEST(Campaign, StopOnFailureDisabledRunsEverything)
{
    std::vector<ShardSpec> shards;
    shards.push_back(syntheticShard("bad-1", 7, 10, false));
    shards.push_back(syntheticShard("bad-2", 8, 10, false));
    shards.push_back(syntheticShard("good", 9, 10, true));

    CampaignConfig cfg;
    cfg.jobs = 1;
    cfg.stopOnFailure = false;
    CampaignResult res = runCampaign(std::move(shards), cfg);
    EXPECT_FALSE(res.passed);
    EXPECT_EQ(res.shardsRun, 3u);
    EXPECT_EQ(res.shardsSkipped, 0u);
    ASSERT_TRUE(res.firstFailure.has_value());
    EXPECT_EQ(res.firstFailure->index, 0u);
    EXPECT_EQ(res.firstFailure->seed, 7u);
}

TEST(Campaign, ThrowingShardBecomesStructuredFailureNotCrash)
{
    // A shard that lets an exception escape must not take down the
    // process (or sibling shards) — it becomes a failed outcome.
    std::vector<ShardSpec> shards;
    shards.push_back(syntheticShard("ok", 1, 10, true));
    ShardSpec thrower;
    thrower.name = "thrower";
    thrower.seed = 13;
    thrower.run = []() -> ShardOutcome {
        throw TesterFailure("deliberate test explosion");
    };
    shards.push_back(std::move(thrower));

    CampaignConfig cfg;
    cfg.jobs = 2;
    cfg.stopOnFailure = false;
    CampaignResult res = runCampaign(std::move(shards), cfg);
    EXPECT_FALSE(res.passed);
    EXPECT_EQ(res.shardsRun, 2u);
    ASSERT_TRUE(res.firstFailure.has_value());
    EXPECT_EQ(res.firstFailure->name, "thrower");
    EXPECT_EQ(res.firstFailure->seed, 13u);
    EXPECT_NE(res.firstFailure->report.find("deliberate"),
              std::string::npos);
}

TEST(Campaign, InjectedFaultIsCaughtAndReported)
{
    // End-to-end shard isolation: a campaign over a faulty system
    // fails with a real tester report instead of aborting.
    std::vector<ShardSpec> shards;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        GpuTestPreset preset =
            tinyPreset(seed, FaultKind::LostWriteThrough);
        preset.name = "faulty/seed" + std::to_string(seed);
        shards.push_back(gpuShard(preset));
    }
    CampaignConfig cfg;
    cfg.jobs = 2;
    CampaignResult res = runCampaign(std::move(shards), cfg);
    EXPECT_FALSE(res.passed);
    ASSERT_TRUE(res.firstFailure.has_value());
    EXPECT_FALSE(res.firstFailure->report.empty());
    EXPECT_GE(res.firstFailure->seed, 1u);
    EXPECT_LE(res.firstFailure->seed, 3u);
}

TEST(Campaign, SaturationEarlyStopSkipsRemainingShards)
{
    // Synthetic shards carry no coverage grids, so use real ones but
    // with a threshold so low the very first shard satisfies it.
    CampaignConfig cfg;
    cfg.jobs = 1;
    cfg.saturationPct = 0.0001;
    CampaignResult res =
        runCampaign(gpuSeedSweep(tinyPreset(1), 1, 8), cfg);
    EXPECT_TRUE(res.passed);
    ASSERT_TRUE(res.shardsToSaturation.has_value());
    EXPECT_EQ(*res.shardsToSaturation, 1u);
    EXPECT_EQ(res.shardsRun, 1u);
    EXPECT_EQ(res.shardsSkipped, 7u);
    EXPECT_EQ(res.shardsRun + res.shardsSkipped, res.shardsPlanned);
}

TEST(Campaign, SaturationCurveIsMonotonic)
{
    CampaignConfig cfg;
    cfg.jobs = 2;
    CampaignResult res =
        runCampaign(gpuSeedSweep(tinyPreset(1), 1, 4), cfg);
    ASSERT_EQ(res.saturationCurve.size(), 4u);
    for (std::size_t i = 1; i < res.saturationCurve.size(); ++i) {
        const CoveragePoint &prev = res.saturationCurve[i - 1];
        const CoveragePoint &cur = res.saturationCurve[i];
        EXPECT_EQ(cur.shardsCompleted, prev.shardsCompleted + 1);
        EXPECT_GE(cur.l1Pct, prev.l1Pct);
        EXPECT_GE(cur.l2Pct, prev.l2Pct);
        EXPECT_GE(cur.cumulativeEvents, prev.cumulativeEvents);
    }
}

TEST(Campaign, JsonSummaryContainsKeyFields)
{
    CampaignConfig cfg;
    cfg.jobs = 2;
    CampaignResult res =
        runCampaign(gpuSeedSweep(tinyPreset(1), 1, 3), cfg);
    std::string json = campaignToJson(res, "gpu_tester");

    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    for (const char *key :
         {"\"passed\":true", "\"shards_planned\":3", "\"shards_run\":3",
          "\"shards_resumed\":0", "\"host_crashes\":0",
          "\"host_timeouts\":0", "\"resource_exhausted\":0",
          "\"retries\":0", "\"interrupted\":false",
          "\"total_events\":", "\"events_per_sec\":",
          "\"l1_union_pct\":", "\"saturation_curve\":[",
          "\"shard_name\":", "\"shard_seed\":", "\"shard_episodes\":",
          "\"shard_actions\":", "\"cumulative_episodes\":",
          "\"cumulative_actions\":", "\"new_cells\":",
          "\"first_failure\":null"}) {
        EXPECT_NE(json.find(key), std::string::npos)
            << "missing " << key << " in " << json;
    }
}

TEST(Campaign, JsonFirstFailureCarriesFailureClass)
{
    std::vector<ShardSpec> shards;
    ShardSpec bad = syntheticShard("bad", 5, 10, false);
    bad.run = [inner = bad.run]() {
        ShardOutcome out = inner();
        out.result.failureClass = FailureClass::ValueMismatch;
        return out;
    };
    shards.push_back(std::move(bad));

    CampaignConfig cfg;
    cfg.jobs = 1;
    CampaignResult res = runCampaign(std::move(shards), cfg);
    std::string json = campaignToJson(res, "gpu_tester");
    EXPECT_NE(json.find("\"failure_class\":\"ValueMismatch\""),
              std::string::npos)
        << json;
}

TEST(Campaign, CurveEpisodeAndActionCountsAreConsistent)
{
    CampaignConfig cfg;
    cfg.jobs = 1;
    CampaignResult res =
        runCampaign(gpuSeedSweep(tinyPreset(1), 1, 4), cfg);
    ASSERT_EQ(res.saturationCurve.size(), 4u);

    std::uint64_t episodes = 0;
    std::uint64_t actions = 0;
    for (const CoveragePoint &p : res.saturationCurve) {
        EXPECT_GT(p.shardEpisodes, 0u);
        EXPECT_GT(p.shardActions, 0u);
        EXPECT_FALSE(p.shardName.empty());
        episodes += p.shardEpisodes;
        actions += p.shardActions;
        EXPECT_EQ(p.cumulativeEpisodes, episodes);
        EXPECT_EQ(p.cumulativeActions, actions);
    }
    EXPECT_EQ(episodes, res.totalEpisodes);
    EXPECT_EQ(actions, res.totalLoadsChecked + res.totalStoresRetired +
                           res.totalAtomicsChecked);

    // The first shard's cells are all new; the union never shrinks, so
    // new_cells sums to the final union active count.
    std::size_t new_cells = 0;
    for (const CoveragePoint &p : res.saturationCurve)
        new_cells += p.newL1Cells + p.newL2Cells + p.newDirCells;
    ASSERT_TRUE(res.l1Union && res.l2Union && res.dirUnion);
    EXPECT_EQ(new_cells, res.l1Union->activeCount("") +
                             res.l2Union->activeCount("") +
                             res.dirUnion->activeCount(""));
}

TEST(Campaign, JsonEscapesControlCharacters)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\"\\u0001\"");
}
