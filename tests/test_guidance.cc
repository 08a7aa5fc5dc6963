/**
 * @file
 * Tests for the coverage-guided campaign engine: the deterministic
 * UCB1 bandit, genome <-> preset mapping and bounded mutation, the
 * three shard-source strategies, and the adaptive campaign loop's
 * determinism contract (same master seed => identical decision
 * sequence and union digest at any worker count) and scheduling
 * contract (every source is pulled ahead while workers would idle, a
 * source's empty answer keeps the batch barrier, stops cut at the same
 * batch boundary either way).
 * The AggregateGoldens tests pin the aggregate bytes themselves.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "golden_digest.hh"
#include "guidance/adaptive_campaign.hh"
#include "predict/explore.hh"

using namespace drf;

namespace
{

/** A deliberately tiny genome so guided campaigns run in milliseconds. */
ConfigGenome
tinyGenome(unsigned actions = 10, unsigned episodes_per_wf = 2)
{
    ConfigGenome g;
    g.cacheClass = CacheSizeClass::Small;
    g.actionsPerEpisode = actions;
    g.episodesPerWf = episodes_per_wf;
    g.atomicLocs = 4;
    g.colocDensity = 2.0;
    g.numCus = 2;
    return g;
}

GenomeScale
tinyScale(FaultKind fault = FaultKind::None)
{
    GenomeScale scale;
    scale.lanes = 4;
    scale.wfsPerCu = 1;
    scale.numNormalVars = 128;
    scale.fault = fault;
    return scale;
}

SourceConfig
tinySourceConfig(std::uint64_t master_seed, std::size_t max_shards)
{
    SourceConfig cfg;
    cfg.arms = {tinyGenome(10, 2), tinyGenome(15, 2), tinyGenome(10, 3)};
    cfg.scale = tinyScale();
    cfg.masterSeed = master_seed;
    cfg.batchSize = 2;
    cfg.maxShards = max_shards;
    return cfg;
}

} // namespace

TEST(Strategy, NameParseRoundTrip)
{
    for (Strategy s : {Strategy::Random, Strategy::Sweep,
                       Strategy::Guided, Strategy::Explore}) {
        auto parsed = parseStrategy(strategyName(s));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, s);
    }
    EXPECT_FALSE(parseStrategy("annealed").has_value());
    EXPECT_FALSE(parseStrategy("").has_value());
}

TEST(Ucb1Bandit, PlaysUnplayedArmsFirstInIndexOrder)
{
    Ucb1Bandit bandit;
    for (int i = 0; i < 3; ++i)
        bandit.addArm();
    EXPECT_EQ(bandit.select(), 0u);
    bandit.update(0, 5.0);
    EXPECT_EQ(bandit.select(), 1u);
    bandit.update(1, 1.0);
    EXPECT_EQ(bandit.select(), 2u);
    bandit.update(2, 1.0);
    EXPECT_EQ(bandit.totalPlays(), 3u);
}

TEST(Ucb1Bandit, SyntheticRewardStreamConvergesToBestArm)
{
    // Arm 1 pays 10, the others pay 1: after the initial sweep the
    // bandit must spend most plays on arm 1.
    Ucb1Bandit bandit(/*exploration=*/0.5);
    for (int i = 0; i < 3; ++i)
        bandit.addArm();
    std::vector<std::uint64_t> plays(3, 0);
    for (int round = 0; round < 100; ++round) {
        std::size_t arm = bandit.select();
        ++plays[arm];
        bandit.update(arm, arm == 1 ? 10.0 : 1.0);
    }
    EXPECT_GT(plays[1], plays[0]);
    EXPECT_GT(plays[1], plays[2]);
    EXPECT_GT(plays[1], 50u);
    // UCB1 still explores: no arm starves entirely.
    EXPECT_GE(plays[0], 1u);
    EXPECT_GE(plays[2], 1u);
}

TEST(Ucb1Bandit, DeterministicTieBreakTowardLowestIndex)
{
    Ucb1Bandit bandit;
    bandit.addArm();
    bandit.addArm();
    bandit.update(0, 2.0);
    bandit.update(1, 2.0);
    // Identical means and play counts: the lower index must win.
    EXPECT_EQ(bandit.select(), 0u);
    EXPECT_DOUBLE_EQ(bandit.ucbScore(0), bandit.ucbScore(1));
}

TEST(Ucb1Bandit, MeanTracksRewards)
{
    Ucb1Bandit bandit;
    bandit.addArm();
    EXPECT_DOUBLE_EQ(bandit.mean(0), 0.0);
    bandit.update(0, 4.0);
    bandit.update(0, 8.0);
    EXPECT_DOUBLE_EQ(bandit.mean(0), 6.0);
    EXPECT_EQ(bandit.plays(0), 2u);
}

TEST(Genome, AddrRangeForDensityInvertsApproximately)
{
    // range = vars * line / density, rounded up to whole lines.
    EXPECT_EQ(addrRangeForDensity(512, 2.0, 64, 4), 16384u);
    EXPECT_EQ(addrRangeForDensity(512, 0.5, 64, 4), 65536u);
    // Heavy density is clamped to the 2x slot headroom floor.
    std::uint64_t range = addrRangeForDensity(512, 1000.0, 64, 4);
    EXPECT_GE(range, 2ull * 512 * 4);
    EXPECT_EQ(range % 64, 0u);
}

TEST(Genome, PresetRoundTripPreservesSearchedAxes)
{
    ConfigGenome g = tinyGenome(15, 3);
    GpuTestPreset preset = genomeToPreset(g, tinyScale(), /*seed=*/42);
    EXPECT_EQ(preset.tester.seed, 42u);
    EXPECT_EQ(preset.tester.lanes, 4u);
    EXPECT_EQ(preset.tester.variables.numNormalVars, 128u);
    EXPECT_NE(preset.name.find("seed42"), std::string::npos);

    ConfigGenome back = genomeFromPreset(preset);
    EXPECT_EQ(back.cacheClass, g.cacheClass);
    EXPECT_EQ(back.actionsPerEpisode, g.actionsPerEpisode);
    EXPECT_EQ(back.episodesPerWf, g.episodesPerWf);
    EXPECT_EQ(back.atomicLocs, g.atomicLocs);
    EXPECT_EQ(back.numCus, g.numCus);
    // Density survives up to the line-rounding of the address range.
    EXPECT_NEAR(back.colocDensity, g.colocDensity, 0.1);
}

TEST(Genome, TableIIIArmsMatchTheSweep)
{
    std::vector<ConfigGenome> arms = tableIIIArms();
    ASSERT_EQ(arms.size(), 24u);
    // All 24 are distinct genomes.
    for (std::size_t i = 0; i < arms.size(); ++i) {
        for (std::size_t j = i + 1; j < arms.size(); ++j)
            EXPECT_NE(arms[i], arms[j]) << i << " vs " << j;
    }
}

TEST(Genome, MutationStaysInBoundsAndIsSeedDeterministic)
{
    GenomeBounds bounds;
    ConfigGenome g = tinyGenome();

    Random rng_a(7), rng_b(7);
    ConfigGenome cur_a = g, cur_b = g;
    for (int i = 0; i < 200; ++i) {
        cur_a = mutateGenome(cur_a, rng_a, bounds);
        cur_b = mutateGenome(cur_b, rng_b, bounds);
        EXPECT_EQ(cur_a, cur_b) << "mutation diverged at step " << i;

        EXPECT_GE(cur_a.actionsPerEpisode, bounds.minActions);
        EXPECT_LE(cur_a.actionsPerEpisode, bounds.maxActions);
        EXPECT_GE(cur_a.episodesPerWf, bounds.minEpisodesPerWf);
        EXPECT_LE(cur_a.episodesPerWf, bounds.maxEpisodesPerWf);
        EXPECT_GE(cur_a.atomicLocs, bounds.minAtomicLocs);
        EXPECT_LE(cur_a.atomicLocs, bounds.maxAtomicLocs);
        EXPECT_GE(cur_a.colocDensity, bounds.minColocDensity);
        EXPECT_LE(cur_a.colocDensity, bounds.maxColocDensity);
        EXPECT_GE(cur_a.numCus, bounds.minCus);
        EXPECT_LE(cur_a.numCus, bounds.maxCus);
    }
}

TEST(Genome, MutationChangesExactlyOneGene)
{
    Random rng(3);
    ConfigGenome g = tinyGenome();
    for (int i = 0; i < 50; ++i) {
        ConfigGenome m = mutateGenome(g, rng);
        int changed = 0;
        changed += m.cacheClass != g.cacheClass;
        changed += m.actionsPerEpisode != g.actionsPerEpisode;
        changed += m.episodesPerWf != g.episodesPerWf;
        changed += m.atomicLocs != g.atomicLocs;
        changed += m.colocDensity != g.colocDensity;
        changed += m.numCus != g.numCus;
        EXPECT_EQ(changed, 1);
    }
}

TEST(Sources, SweepIssuesArmsInOrderUpToMaxShards)
{
    SourceConfig cfg = tinySourceConfig(1, 7);
    SweepSource source(cfg);
    EXPECT_EQ(source.strategy(), Strategy::Sweep);

    std::vector<std::string> names;
    for (;;) {
        std::vector<ShardSpec> batch = source.nextBatch();
        if (batch.empty())
            break;
        for (ShardSpec &s : batch)
            names.push_back(s.name);
    }
    ASSERT_EQ(names.size(), 7u);
    // Arms cycle in order; every shard has a distinct seed suffix.
    EXPECT_NE(names[0].find("a10/e2"), std::string::npos);
    EXPECT_NE(names[1].find("a15/e2"), std::string::npos);
    EXPECT_NE(names[2].find("a10/e3"), std::string::npos);
    EXPECT_NE(names[3].find("a10/e2"), std::string::npos);
    std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
}

TEST(Sources, RandomScheduleIsSeedDeterministic)
{
    auto schedule = [](std::uint64_t master_seed) {
        RandomSource source(tinySourceConfig(master_seed, 10));
        std::vector<std::string> names;
        for (;;) {
            std::vector<ShardSpec> batch = source.nextBatch();
            if (batch.empty())
                break;
            for (ShardSpec &s : batch)
                names.push_back(s.name);
        }
        return names;
    };
    EXPECT_EQ(schedule(5), schedule(5));
    EXPECT_NE(schedule(5), schedule(6));
}

TEST(Sources, PresetForSeedRecoversIssuedShard)
{
    SourceConfig cfg = tinySourceConfig(100, 4);
    SweepSource source(cfg);
    std::vector<ShardSpec> batch = source.nextBatch();
    ASSERT_FALSE(batch.empty());

    auto preset = source.presetForSeed(batch[0].seed);
    ASSERT_TRUE(preset.has_value());
    EXPECT_EQ(preset->name, batch[0].name);
    EXPECT_EQ(preset->tester.seed, batch[0].seed);
    EXPECT_FALSE(source.presetForSeed(999999).has_value());
}

TEST(Guided, DeterministicAcrossWorkerCounts)
{
    // The acceptance criterion: a guided campaign re-run with the same
    // master seed reproduces the identical shard schedule (decision
    // log) and union-coverage digest, serial or parallel.
    auto run = [](unsigned jobs) {
        GuidedSource source(tinySourceConfig(11, 12));
        AdaptiveCampaignConfig cfg;
        cfg.jobs = jobs;
        return runAdaptiveCampaign(source, cfg);
    };
    AdaptiveCampaignResult serial = run(1);
    AdaptiveCampaignResult parallel = run(4);

    EXPECT_TRUE(serial.passed);
    EXPECT_TRUE(parallel.passed);
    EXPECT_EQ(serial.shardsRun, 12u);
    EXPECT_EQ(parallel.shardsRun, 12u);
    EXPECT_NE(serial.unionDigest, 0u);
    EXPECT_EQ(serial.unionDigest, parallel.unionDigest);
    EXPECT_EQ(serial.totalEpisodes, parallel.totalEpisodes);

    ASSERT_EQ(serial.decisions.size(), parallel.decisions.size());
    for (std::size_t i = 0; i < serial.decisions.size(); ++i) {
        const GuidanceDecision &a = serial.decisions[i];
        const GuidanceDecision &b = parallel.decisions[i];
        EXPECT_EQ(a.arm, b.arm) << "round " << i;
        EXPECT_EQ(a.probe, b.probe) << "round " << i;
        EXPECT_EQ(a.mutant, b.mutant) << "round " << i;
        EXPECT_EQ(a.seeds, b.seeds) << "round " << i;
        EXPECT_TRUE(a.genome == b.genome) << "round " << i;
        EXPECT_EQ(a.episodes, b.episodes) << "round " << i;
        EXPECT_EQ(a.newCells, b.newCells) << "round " << i;
        EXPECT_DOUBLE_EQ(a.rewardPerKiloEpisode, b.rewardPerKiloEpisode)
            << "round " << i;
    }
}

TEST(Guided, DifferentMasterSeedsDiverge)
{
    auto episodes_sequence = [](std::uint64_t master_seed) {
        GuidedSource source(tinySourceConfig(master_seed, 12));
        AdaptiveCampaignResult res = runAdaptiveCampaign(source);
        std::vector<std::uint64_t> seeds;
        for (const GuidanceDecision &d : res.decisions)
            for (std::uint64_t s : d.seeds)
                seeds.push_back(s);
        return seeds;
    };
    // Different master seeds issue different shard seeds by design
    // (the seed counter starts at the master seed).
    EXPECT_NE(episodes_sequence(1), episodes_sequence(2));
}

TEST(Guided, ProbesEveryArmBeforeExploiting)
{
    GuidedSource source(tinySourceConfig(1, 12));
    AdaptiveCampaignResult res = runAdaptiveCampaign(source);
    ASSERT_GE(res.decisions.size(), 3u);
    std::set<std::size_t> probed;
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(res.decisions[i].probe);
        probed.insert(res.decisions[i].arm);
    }
    EXPECT_EQ(probed.size(), 3u); // all three arms scored first
    for (std::size_t i = 3; i < res.decisions.size(); ++i) {
        if (!res.decisions[i].mutant) {
            EXPECT_FALSE(res.decisions[i].probe) << "round " << i;
        }
    }
}

TEST(Guided, StopsAtCoverageTarget)
{
    // First learn the achievable coverage, then re-run demanding only
    // a fraction of it: the source must stop before its shard cap.
    GuidedSource full(tinySourceConfig(1, 12));
    AdaptiveCampaignResult full_res = runAdaptiveCampaign(full);
    ASSERT_TRUE(full_res.l1Union && full_res.l2Union);

    GuidedOptions opts;
    opts.targetL1Active = full_res.l1Union->activeCount("") / 2;
    opts.targetL2Active = full_res.l2Union->activeCount("") / 2;
    GuidedSource early(tinySourceConfig(1, 100), opts);
    AdaptiveCampaignResult early_res = runAdaptiveCampaign(early);
    EXPECT_LT(early_res.shardsRun, 100u);
    ASSERT_TRUE(early_res.l1Union && early_res.l2Union);
    EXPECT_GE(early_res.l1Union->activeCount(""), opts.targetL1Active);
    EXPECT_GE(early_res.l2Union->activeCount(""), opts.targetL2Active);
}

TEST(Guided, EpisodeBudgetBoundsTheCampaign)
{
    GuidedOptions opts;
    opts.episodeBudget = 20;
    GuidedSource source(tinySourceConfig(1, 1000), opts);
    AdaptiveCampaignResult res = runAdaptiveCampaign(source);
    // Stops at the first between-rounds check past the budget: total
    // episodes can overshoot by at most one round (one batch).
    EXPECT_LT(res.shardsRun, 1000u);
    EXPECT_GE(res.totalEpisodes, 20u);
}

TEST(Guided, AnswersNotYetWhileItsBatchIsUnreported)
{
    GuidedSource source(tinySourceConfig(3, 8));
    std::vector<ShardSpec> batch = source.nextBatch();
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_TRUE(source.nextBatch().empty());
    EXPECT_EQ(source.decisions().size(), 1u) << "drew a decision early";
    EXPECT_EQ(source.shardsIssued(), 2u);

    ShardFeedback fb;
    fb.episodes = 10;
    for (ShardSpec &spec : batch) {
        ShardOutcome out;
        out.seed = spec.seed;
        source.report(out, fb);
    }
    EXPECT_EQ(source.nextBatch().size(), 2u);
    EXPECT_EQ(source.decisions().size(), 2u);
}

TEST(Guided, DecisionsJsonIsWellFormedArray)
{
    GuidedSource source(tinySourceConfig(1, 6));
    AdaptiveCampaignResult res = runAdaptiveCampaign(source);
    std::string json = guidanceDecisionsJson(res.decisions);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    for (const char *key : {"\"round\":", "\"arm\":", "\"probe\":",
                            "\"genome\":", "\"seeds\":[",
                            "\"reward_per_kiloepisode\":"}) {
        EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
    }

    std::string campaign_json = adaptiveCampaignToJson(res, "gpu_tester");
    for (const char *key :
         {"\"strategy\":\"guided\"", "\"union_digest\":\"0x",
          "\"guidance\":[", "\"curve\":[", "\"total_episodes\":"}) {
        EXPECT_NE(campaign_json.find(key), std::string::npos)
            << "missing " << key;
    }
}

// Non-predict strategies still carry the predicted_races triage block —
// always present, all zero, null pair — so downstream consumers can key
// on it unconditionally.
TEST(Guided, CampaignJsonHasZeroPredictedRacesBlock)
{
    GuidedSource source(tinySourceConfig(1, 6));
    AdaptiveCampaignResult res = runAdaptiveCampaign(source);
    EXPECT_FALSE(res.predictTriage.has_value());

    const std::string zero_block =
        "\"predicted_races\":{\"candidates\":0,\"confirmed\":0,"
        "\"demoted\":0,\"interleavings\":0,\"first_pair\":null}";
    for (const std::string &json :
         {adaptiveCampaignToJson(res, "gpu_tester"),
          adaptiveAggregatesJson(res, "gpu_tester")}) {
        EXPECT_NE(json.find(zero_block), std::string::npos)
            << "missing zero triage block in: " << json.substr(0, 400);
    }
}

namespace
{

/**
 * A one-shot gate between shards. waitOpen()'s timeout is only a hang
 * guard: tests assert on whether the gate was opened, never on time.
 */
class Gate
{
  public:
    void
    open()
    {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _open = true;
        }
        _cv.notify_all();
    }

    bool
    waitOpen(std::chrono::milliseconds guard)
    {
        std::unique_lock<std::mutex> lock(_mutex);
        return _cv.wait_for(lock, guard, [this] { return _open; });
    }

  private:
    std::mutex _mutex;
    std::condition_variable _cv;
    bool _open = false;
};

/** A synthetic shard: runs @p body (no simulation) and passes. */
ShardSpec
scriptedShard(std::size_t i, std::function<void()> body = [] {})
{
    ShardSpec spec;
    spec.name = "s" + std::to_string(i);
    spec.seed = 100 + i;
    spec.run = [name = spec.name, body] {
        body();
        ShardOutcome out;
        out.name = name;
        out.result.passed = true;
        out.result.episodes = 1;
        out.result.events = 10;
        return out;
    };
    return spec;
}

/**
 * Replays fixed batches under any strategy label. With
 * @p waits_for_reports it answers "not yet" (an empty batch) while any
 * issued shard is unreported, as a feedback-driven source does.
 */
class ScriptedSource : public ShardSource
{
  public:
    ScriptedSource(Strategy strategy,
                   std::vector<std::vector<ShardSpec>> batches,
                   bool waits_for_reports = false)
        : _strategy(strategy), _batches(std::move(batches)),
          _waitsForReports(waits_for_reports)
    {
    }

    Strategy strategy() const override { return _strategy; }

    std::vector<ShardSpec>
    nextBatch() override
    {
        if (_next == _batches.size() ||
            (_waitsForReports && _reported != _issued))
            return {};
        _issued += _batches[_next].size();
        return std::move(_batches[_next++]);
    }

    void
    report(const ShardOutcome &, const ShardFeedback &) override
    {
        ++_reported;
    }

  private:
    Strategy _strategy;
    std::vector<std::vector<ShardSpec>> _batches;
    bool _waitsForReports;
    std::size_t _next = 0;
    std::size_t _issued = 0;
    std::size_t _reported = 0;
};

/**
 * Decorates a source, forwarding only the ShardSource interface (as
 * perfbench's tracing decorator does), and records what the loop asked
 * of it: reported indices, non-empty pulls made while issued shards
 * were still unreported, and calls from any thread but the
 * constructing one.
 */
class RecordingSource : public ShardSource
{
  public:
    explicit RecordingSource(ShardSource &inner) : _inner(inner) {}

    Strategy strategy() const override { return _inner.strategy(); }

    std::vector<ShardSpec>
    nextBatch() override
    {
        noteThread();
        std::vector<ShardSpec> batch = _inner.nextBatch();
        if (!batch.empty() && issued != reported.size())
            ++earlyPulls;
        issued += batch.size();
        return batch;
    }

    void
    report(const ShardOutcome &outcome,
           const ShardFeedback &feedback) override
    {
        noteThread();
        reported.push_back(outcome.index);
        _inner.report(outcome, feedback);
    }

    std::optional<GpuTestPreset>
    presetForSeed(std::uint64_t seed) const override
    {
        noteThread();
        return _inner.presetForSeed(seed);
    }

    std::vector<std::size_t> reported;
    std::size_t issued = 0;
    std::size_t earlyPulls = 0;
    mutable bool offThread = false;

  private:
    void
    noteThread() const
    {
        if (std::this_thread::get_id() != _drivingThread)
            offThread = true;
    }

    ShardSource &_inner;
    const std::thread::id _drivingThread = std::this_thread::get_id();
};

/** 0, 1, ..., n-1. */
std::vector<std::size_t>
iota(std::size_t n)
{
    std::vector<std::size_t> v(n);
    std::iota(v.begin(), v.end(), std::size_t{0});
    return v;
}

} // namespace

TEST(AdaptiveCampaign, SweepStreamsPastAStraggler)
{
    // Batch 0's only shard can finish only once batch 1's shard has
    // run: the loop must pull batch 1 while batch 0 is still running.
    Gate gate;
    bool released = false;
    ScriptedSource script(
        Strategy::Sweep,
        {{scriptedShard(0,
                        [&] {
                            released =
                                gate.waitOpen(std::chrono::seconds(60));
                        })},
         {scriptedShard(1, [&] { gate.open(); })}});
    RecordingSource source(script);
    AdaptiveCampaignConfig cfg;
    cfg.jobs = 2;
    AdaptiveCampaignResult res = runAdaptiveCampaign(source, cfg);

    EXPECT_TRUE(released) << "batch 1 never ran beside batch 0";
    EXPECT_GE(source.earlyPulls, 1u);
    EXPECT_TRUE(res.passed);
    EXPECT_EQ(res.rounds, 2u);
    EXPECT_EQ(source.reported, iota(2));
    EXPECT_FALSE(source.offThread);
}

TEST(AdaptiveCampaign, GuidedKeepsTheBatchBarrier)
{
    // The same shape from a source that answers "not yet" until batch
    // 0 was reported, as guided does: the barrier comes from that
    // answer, not the label. Batch 1 cannot be pulled before batch 0
    // drains, so the gate stays shut and batch 0's shard runs out its
    // (short) guard.
    Gate gate;
    bool released = true;
    ScriptedSource script(
        Strategy::Guided,
        {{scriptedShard(0,
                        [&] {
                            released = gate.waitOpen(
                                std::chrono::milliseconds(200));
                        })},
         {scriptedShard(1, [&] { gate.open(); })}},
        /*waits_for_reports=*/true);
    RecordingSource source(script);
    AdaptiveCampaignConfig cfg;
    cfg.jobs = 2;
    AdaptiveCampaignResult res = runAdaptiveCampaign(source, cfg);

    EXPECT_FALSE(released);
    EXPECT_EQ(source.earlyPulls, 0u);
    EXPECT_EQ(res.rounds, 2u);
    EXPECT_EQ(source.reported, iota(2));
    EXPECT_FALSE(source.offThread);
}

TEST(BatchWindow, EmptyAnswerWhileUndrainedIsNotExhaustion)
{
    ScriptedSource script(Strategy::Explore,
                          {{scriptedShard(0), scriptedShard(1)},
                           {scriptedShard(2)}},
                          /*waits_for_reports=*/true);
    BatchWindow window(script);

    ASSERT_TRUE(window.mayPull(0, 4));
    EXPECT_EQ(window.pull().size(), 2u);
    // Batch 0 is undrained: the empty answer means "not yet".
    ASSERT_TRUE(window.mayPull(2, 4));
    EXPECT_TRUE(window.pull().empty());
    EXPECT_FALSE(window.empty());
    EXPECT_FALSE(window.mayPull(0, 4)) << "asked again before a drain";
    EXPECT_FALSE(window.capped());

    // Drain batch 0: the source may be asked again, and now answers.
    ShardOutcome out;
    script.report(out, ShardFeedback{});
    script.report(out, ShardFeedback{});
    window.popFront();
    ASSERT_TRUE(window.mayPull(0, 4));
    EXPECT_EQ(window.pull().size(), 1u);
    EXPECT_EQ(window.front().first, 2u);
    EXPECT_EQ(window.end(), 3u);

    // An empty answer with nothing undrained is exhaustion.
    script.report(out, ShardFeedback{});
    window.popFront();
    ASSERT_TRUE(window.mayPull(0, 4));
    EXPECT_TRUE(window.pull().empty());
    EXPECT_TRUE(window.empty());
    EXPECT_FALSE(window.mayPull(0, 4));
    EXPECT_FALSE(window.capped());
}

TEST(AdaptiveCampaign, FeedbackFreeAggregatesAreJobsInvariant)
{
    auto run = [](Strategy strategy, unsigned jobs) {
        SourceConfig scfg = tinySourceConfig(3, 8);
        std::unique_ptr<ShardSource> inner;
        if (strategy == Strategy::Sweep)
            inner = std::make_unique<SweepSource>(scfg);
        else
            inner = std::make_unique<RandomSource>(scfg);
        RecordingSource source(*inner);
        AdaptiveCampaignConfig cfg;
        cfg.jobs = jobs;
        AdaptiveCampaignResult res = runAdaptiveCampaign(source, cfg);
        EXPECT_TRUE(res.passed);
        EXPECT_EQ(source.reported, iota(8));
        EXPECT_FALSE(source.offThread);
        return adaptiveAggregatesJson(res, "gpu_tester");
    };
    for (Strategy s : {Strategy::Sweep, Strategy::Random}) {
        const std::string serial = run(s, 1);
        EXPECT_EQ(serial, run(s, 4)) << strategyName(s);
        EXPECT_NE(serial.find("\"shards_run\":8"), std::string::npos);
    }
}

TEST(AdaptiveCampaign, FailureStopsAtTheFailingBatchAtAnyJobs)
{
    // Four batches of two; s3 (the end of batch 1) throws. At jobs=4,
    // s3 also waits until batch 2's s5 has run, so the loop has
    // outcomes past the stopping batch in hand when it stops. s1 fails
    // transiently once: the shard barrier retries it, and it passes.
    auto run = [](unsigned jobs) {
        auto gate = std::make_shared<Gate>();
        const bool wait_for_batch2 = jobs > 1;
        std::vector<std::vector<ShardSpec>> batches(4);
        for (std::size_t i = 0; i < 8; ++i) {
            std::function<void()> body = [] {};
            if (i == 1) {
                body = [] {
                    if (currentShardAttempt() == 1)
                        throw ResourceExhaustedError("transient");
                };
            } else if (i == 3) {
                body = [gate, wait_for_batch2] {
                    if (wait_for_batch2) {
                        EXPECT_TRUE(
                            gate->waitOpen(std::chrono::seconds(60)));
                    }
                    throw std::runtime_error("boom");
                };
            } else if (i == 5) {
                body = [gate] { gate->open(); };
            }
            batches[i / 2].push_back(scriptedShard(i, body));
        }
        ScriptedSource script(Strategy::Sweep, std::move(batches));
        RecordingSource source(script);
        AdaptiveCampaignConfig cfg;
        cfg.jobs = jobs;
        AdaptiveCampaignResult res = runAdaptiveCampaign(source, cfg);

        EXPECT_FALSE(res.passed);
        EXPECT_EQ(res.rounds, 2u);
        EXPECT_EQ(res.shardsRun, 4u);
        EXPECT_EQ(res.retriesPerformed, 1u);
        EXPECT_EQ(res.resourceExhausted, 0u);
        EXPECT_EQ(source.reported, iota(4));
        EXPECT_FALSE(source.offThread);
        EXPECT_TRUE(res.firstFailure.has_value());
        if (res.firstFailure) {
            EXPECT_EQ(res.firstFailure->name, "s3");
            EXPECT_NE(res.firstFailure->report.find("boom"),
                      std::string::npos);
        }
        // An escaped exception is a HostCrash, as in the fleet.
        EXPECT_EQ(res.firstFailureClass, FailureClass::HostCrash);
        return adaptiveAggregatesJson(res, "gpu_tester");
    };
    EXPECT_EQ(run(1), run(4));
}

TEST(AdaptiveCampaign, SerialFailureMergesItsWholeBatch)
{
    // s4 fails mid-batch: the campaign stops at that batch's boundary,
    // so s5 still runs and is reported, as on a fleet, and nothing of
    // the batch after it is pulled.
    bool s5_ran = false;
    std::vector<std::vector<ShardSpec>> batches(3);
    for (std::size_t i = 0; i < 9; ++i) {
        std::function<void()> body = [] {};
        if (i == 4)
            body = [] { throw std::runtime_error("boom"); };
        else if (i == 5)
            body = [&s5_ran] { s5_ran = true; };
        batches[i / 3].push_back(scriptedShard(i, body));
    }
    ScriptedSource script(Strategy::Sweep, std::move(batches));
    RecordingSource source(script);
    AdaptiveCampaignConfig cfg;
    cfg.jobs = 1;
    AdaptiveCampaignResult res = runAdaptiveCampaign(source, cfg);

    EXPECT_TRUE(s5_ran);
    EXPECT_EQ(res.rounds, 2u);
    EXPECT_EQ(res.shardsRun, 6u);
    EXPECT_EQ(source.reported, iota(6));
}

TEST(AdaptiveCampaign, SaturationStopsAtTheSameBatchAtAnyJobs)
{
    // Learn the union coverage after two batches, then demand exactly
    // that: the campaign must stop at the same boundary at any jobs.
    SweepSource probe(tinySourceConfig(7, 12));
    AdaptiveCampaignResult full = runAdaptiveCampaign(probe);
    ASSERT_EQ(full.saturationCurve.size(), 12u);
    const double target = std::min(full.saturationCurve[3].l1Pct,
                                   full.saturationCurve[3].l2Pct);
    ASSERT_GT(target, 0.0);

    auto run = [target](unsigned jobs) {
        SweepSource inner(tinySourceConfig(7, 12));
        RecordingSource source(inner);
        AdaptiveCampaignConfig cfg;
        cfg.jobs = jobs;
        cfg.saturationPct = target;
        AdaptiveCampaignResult res = runAdaptiveCampaign(source, cfg);

        EXPECT_TRUE(res.passed);
        EXPECT_LE(res.rounds, 2u);
        EXPECT_EQ(res.shardsRun, 2 * res.rounds);
        EXPECT_EQ(source.reported, iota(res.shardsRun));
        EXPECT_FALSE(source.offThread);
        return adaptiveAggregatesJson(res, "gpu_tester");
    };
    EXPECT_EQ(run(1), run(4));
}

TEST(AdaptiveCampaign, BusySecondsIsAVolatileField)
{
    SweepSource source(tinySourceConfig(1, 4));
    AdaptiveCampaignConfig cfg;
    cfg.jobs = 2;
    AdaptiveCampaignResult res = runAdaptiveCampaign(source, cfg);
    EXPECT_GT(res.shardSecondsSum, 0.0);
    EXPECT_LE(res.shardSecondsSum, res.jobs * res.wallSeconds);
    EXPECT_NE(adaptiveCampaignToJson(res, "gpu_tester").find(
                  "\"busy_seconds\":"),
              std::string::npos);
    EXPECT_EQ(adaptiveAggregatesJson(res, "gpu_tester").find(
                  "\"busy_seconds\":"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Aggregate goldens: the campaign aggregates every strategy writes,
// pinned byte for byte (DRF_PRINT_GOLDENS=1 prints the actual values).
// ---------------------------------------------------------------------

namespace
{

/**
 * Digest of adaptiveAggregatesJson for @p make's source at @p jobs. The
 * campaign runs its whole budget (no stop on failure), so a failing
 * shard pins its first_failure block without making the shards run
 * depend on completion order.
 */
std::uint64_t
aggregatesDigest(const std::function<std::unique_ptr<ShardSource>()> &make,
                 unsigned jobs)
{
    std::unique_ptr<ShardSource> source = make();
    AdaptiveCampaignConfig cfg;
    cfg.jobs = jobs;
    cfg.stopOnFailure = false;
    AdaptiveCampaignResult res = runAdaptiveCampaign(*source, cfg);
    return drf::testing::Digest()
        .str(adaptiveAggregatesJson(res, "gpu_tester"))
        .value();
}

/** Pin one strategy's aggregates at jobs 1 and 4 to @p expected. */
void
checkAggregates(const std::string &name,
                const std::function<std::unique_ptr<ShardSource>()> &make,
                std::uint64_t expected)
{
    for (unsigned jobs : {1u, 4u}) {
        const std::string label = name + "/jobs" + std::to_string(jobs);
        drf::testing::checkGolden(label.c_str(),
                                  aggregatesDigest(make, jobs), expected);
    }
}

} // namespace

TEST(AggregateGoldens, Sweep)
{
    checkAggregates("Sweep", [] {
        return std::make_unique<SweepSource>(tinySourceConfig(5, 8));
    }, 0x1d72c5e63e3b986bull);
}

TEST(AggregateGoldens, Random)
{
    checkAggregates("Random", [] {
        return std::make_unique<RandomSource>(tinySourceConfig(5, 8));
    }, 0x850409913a20c92bull);
}

TEST(AggregateGoldens, Guided)
{
    checkAggregates("Guided", [] {
        return std::make_unique<GuidedSource>(tinySourceConfig(5, 8));
    }, 0xd84205b65106645full);
}

TEST(AggregateGoldens, Explore)
{
    checkAggregates("Explore", [] {
        ExploreOptions opts;
        opts.budget = 6;
        opts.batchSize = 2;
        opts.maxFlipsPerTrace = 4;
        // Two wavefronts per CU give the base schedule acquire orders
        // to flip.
        ConfigGenome genome = tinyGenome(8, 6);
        genome.cacheClass = CacheSizeClass::Large;
        GenomeScale scale = tinyScale();
        scale.lanes = 8;
        scale.wfsPerCu = 2;
        return std::make_unique<ExploreSource>(
            genomeToPreset(genome, scale, 5), opts);
    }, 0x41d4090b5eab9a22ull);
}

TEST(AggregateGoldens, RunCampaignNewCellsAndTotals)
{
    CampaignConfig cfg;
    cfg.jobs = 1;
    CampaignResult res = runCampaign(
        gpuSeedSweep(genomeToPreset(tinyGenome(), tinyScale(), 1), 1, 6),
        cfg);
    ASSERT_TRUE(res.passed);
    ASSERT_EQ(res.saturationCurve.size(), 6u);

    drf::testing::Digest d;
    for (const CoveragePoint &p : res.saturationCurve)
        d.u64(p.newL1Cells + p.newL2Cells + p.newDirCells);
    d.u64(res.shardsRun);
    d.u64(res.totalTicks);
    d.u64(res.totalEvents);
    d.u64(res.totalEpisodes);
    d.u64(res.totalLoadsChecked);
    d.u64(res.totalStoresRetired);
    d.u64(res.totalAtomicsChecked);
    drf::testing::checkGolden("RunCampaign/jobs1", d.value(),
                              0xbde84f0f73cbf5b1ull);
}
