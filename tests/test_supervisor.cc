/**
 * @file
 * Tests for the resilient campaign supervisor: exception barrier,
 * transient retry, hang reaping, event budgets, journal round trips,
 * checkpoint/resume bit-identity, graceful SIGTERM shutdown, and repro
 * capture. Fork-isolation coverage (real SIGSEGV, SIGKILL reaping)
 * lives in the ForkIsolation suite so sanitizer CI jobs can filter it
 * separately from the in-process Supervisor suite.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/host_fault.hh"
#include "campaign/journal.hh"
#include "campaign/supervisor.hh"
#include "guidance/adaptive_campaign.hh"
#include "tester/configs.hh"
#include "tester/tester_failure.hh"
#include "trace/repro.hh"
#include "trace/trace_file.hh"

using namespace drf;

namespace
{

/** A deliberately small, fast GPU preset for supervised shards. */
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

/** A synthetic passing shard that doesn't need a simulator. */
ShardSpec
syntheticShard(const std::string &name, std::uint64_t seed)
{
    ShardSpec spec;
    spec.name = name;
    spec.seed = seed;
    spec.run = [name]() {
        ShardOutcome out;
        out.name = name;
        out.result.passed = true;
        out.result.ticks = 100;
        out.result.events = 10;
        out.result.episodes = 2;
        return out;
    };
    return spec;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "drf_supervisor_" + name;
}

SupervisorConfig
baseConfig(unsigned jobs = 1)
{
    SupervisorConfig cfg;
    cfg.campaign.jobs = jobs;
    cfg.campaign.stopOnFailure = false;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Watchdog boundary semantics (satellite regression): outstanding for
// exactly `threshold` ticks is legal; one tick longer trips it.
// ---------------------------------------------------------------------

TEST(WatchdogBoundary, ExactThresholdTicksIsStillLegal)
{
    constexpr std::uint64_t issued = 1000;
    constexpr std::uint64_t threshold = 50000;
    EXPECT_FALSE(watchdogExpired(issued, issued, threshold));
    EXPECT_FALSE(watchdogExpired(issued + threshold, issued, threshold));
}

TEST(WatchdogBoundary, OneTickPastThresholdTrips)
{
    constexpr std::uint64_t issued = 1000;
    constexpr std::uint64_t threshold = 50000;
    EXPECT_TRUE(
        watchdogExpired(issued + threshold + 1, issued, threshold));
}

// ---------------------------------------------------------------------
// In-process supervision.
// ---------------------------------------------------------------------

TEST(Supervisor, PlainCampaignMatchesRunCampaign)
{
    std::vector<ShardSpec> shards = gpuSeedSweep(tinyPreset(1), 1, 4);
    CampaignResult plain = runCampaign(
        gpuSeedSweep(tinyPreset(1), 1, 4), baseConfig(2).campaign);
    CampaignResult supervised =
        runSupervisedCampaign(std::move(shards), baseConfig(2));

    EXPECT_TRUE(supervised.passed);
    EXPECT_EQ(supervised.shardsRun, 4u);
    EXPECT_EQ(supervised.totalTicks, plain.totalTicks);
    EXPECT_EQ(supervised.totalEvents, plain.totalEvents);
    EXPECT_EQ(supervised.totalEpisodes, plain.totalEpisodes);
    ASSERT_TRUE(supervised.l1Union && plain.l1Union);
    EXPECT_EQ(supervised.l1Union->activeDigest(),
              plain.l1Union->activeDigest());
}

TEST(Supervisor, UncaughtThrowBecomesHostCrashAndCampaignContinues)
{
    std::vector<ShardSpec> shards;
    shards.push_back(syntheticShard("ok-a", 1));
    ShardSpec thrower = syntheticShard("thrower", 13);
    thrower.run = []() -> ShardOutcome {
        throw std::runtime_error("deliberate explosion");
    };
    shards.push_back(std::move(thrower));
    shards.push_back(syntheticShard("ok-b", 3));

    CampaignResult res =
        runSupervisedCampaign(std::move(shards), baseConfig(1));
    EXPECT_FALSE(res.passed);
    EXPECT_EQ(res.shardsRun, 3u);
    EXPECT_EQ(res.hostCrashes, 1u);
    ASSERT_TRUE(res.firstFailure.has_value());
    EXPECT_EQ(res.firstFailure->name, "thrower");
    EXPECT_EQ(res.firstFailure->seed, 13u);
    EXPECT_EQ(res.firstFailure->failureClass, FailureClass::HostCrash);
    EXPECT_NE(res.firstFailure->report.find("deliberate"),
              std::string::npos);
}

TEST(Supervisor, TransientShardSucceedsAfterRetries)
{
    std::vector<ShardSpec> shards;
    shards.push_back(syntheticShard("flaky", 7));
    HostFaultInjector faults;
    faults.arm(0, HostFaultKind::Transient, /*fail_attempts=*/2);
    faults.armShards(shards);

    SupervisorConfig cfg = baseConfig(1);
    cfg.maxRetries = 2;
    cfg.retryBackoffMs = 1;
    CampaignResult res =
        runSupervisedCampaign(std::move(shards), cfg);
    EXPECT_TRUE(res.passed);
    EXPECT_EQ(res.shardsRun, 1u);
    EXPECT_EQ(res.resourceExhausted, 0u);
    EXPECT_EQ(res.retriesPerformed, 2u);
}

TEST(Supervisor, TransientShardExhaustsRetries)
{
    std::vector<ShardSpec> shards;
    shards.push_back(syntheticShard("doomed", 7));
    HostFaultInjector faults;
    faults.arm(0, HostFaultKind::Transient, /*fail_attempts=*/10);
    faults.armShards(shards);

    SupervisorConfig cfg = baseConfig(1);
    cfg.maxRetries = 1;
    cfg.retryBackoffMs = 1;
    CampaignResult res =
        runSupervisedCampaign(std::move(shards), cfg);
    EXPECT_FALSE(res.passed);
    EXPECT_EQ(res.resourceExhausted, 1u);
    EXPECT_EQ(res.retriesPerformed, 1u);
    ASSERT_TRUE(res.firstFailure.has_value());
    EXPECT_EQ(res.firstFailure->failureClass,
              FailureClass::ResourceExhausted);
}

TEST(Supervisor, HangingShardIsReapedAsHostTimeout)
{
    // The hang must be stoppable so the abandoned worker thread exits
    // once the test completes instead of leaking a sleeper forever.
    auto release = std::make_shared<std::atomic<bool>>(false);
    std::vector<ShardSpec> shards;
    shards.push_back(syntheticShard("ok", 1));
    ShardSpec hung = syntheticShard("hung", 99);
    hung.run = [release]() {
        while (!release->load())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return ShardOutcome{};
    };
    shards.push_back(std::move(hung));

    SupervisorConfig cfg = baseConfig(1);
    cfg.shardTimeoutSeconds = 0.3;
    CampaignResult res =
        runSupervisedCampaign(std::move(shards), cfg);
    release->store(true);

    EXPECT_FALSE(res.passed);
    EXPECT_EQ(res.shardsRun, 2u);
    EXPECT_EQ(res.hostTimeouts, 1u);
    ASSERT_TRUE(res.firstFailure.has_value());
    EXPECT_EQ(res.firstFailure->name, "hung");
    EXPECT_EQ(res.firstFailure->seed, 99u);
    EXPECT_EQ(res.firstFailure->failureClass,
              FailureClass::HostTimeout);
}

TEST(Supervisor, EventBudgetExhaustionIsHostTimeout)
{
    // A budget far below what the tiny preset needs: the shard
    // self-reports HostTimeout deterministically, no wall clock
    // involved.
    std::vector<ShardSpec> shards;
    shards.push_back(gpuShard(tinyPreset(1)));

    SupervisorConfig cfg = baseConfig(1);
    cfg.shardEventBudget = 50;
    CampaignResult res =
        runSupervisedCampaign(std::move(shards), cfg);
    EXPECT_FALSE(res.passed);
    EXPECT_EQ(res.hostTimeouts, 1u);
    ASSERT_TRUE(res.firstFailure.has_value());
    EXPECT_EQ(res.firstFailure->failureClass,
              FailureClass::HostTimeout);
    EXPECT_NE(res.firstFailure->report.find("event budget"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Journal serialization.
// ---------------------------------------------------------------------

TEST(Supervisor, JournalLineRoundTripsARealShardOutcome)
{
    ShardSpec spec = gpuShard(tinyPreset(5));
    ShardOutcome out = spec.run();
    out.index = 3;
    out.seed = spec.seed;
    out.attempts = 2;

    ShardOutcome parsed;
    ASSERT_TRUE(parseShardOutcome(shardOutcomeToJson(out), parsed));
    EXPECT_EQ(parsed.index, out.index);
    EXPECT_EQ(parsed.name, out.name);
    EXPECT_EQ(parsed.seed, out.seed);
    EXPECT_EQ(parsed.attempts, out.attempts);
    EXPECT_EQ(parsed.result.passed, out.result.passed);
    EXPECT_EQ(parsed.result.failureClass, out.result.failureClass);
    EXPECT_EQ(parsed.result.ticks, out.result.ticks);
    EXPECT_EQ(parsed.result.events, out.result.events);
    EXPECT_EQ(parsed.result.episodes, out.result.episodes);
    EXPECT_EQ(parsed.result.loadsChecked, out.result.loadsChecked);
    EXPECT_EQ(parsed.result.storesRetired, out.result.storesRetired);
    EXPECT_EQ(parsed.result.atomicsChecked, out.result.atomicsChecked);

    ASSERT_TRUE(parsed.l1 && parsed.l2 && parsed.dir);
    // Exact counts, not just the active set: resumed aggregates must be
    // bit-identical, so every cell's hit count has to survive the trip.
    EXPECT_EQ(parsed.l1->totalHits(), out.l1->totalHits());
    EXPECT_EQ(parsed.l2->totalHits(), out.l2->totalHits());
    EXPECT_EQ(parsed.dir->totalHits(), out.dir->totalHits());
    EXPECT_EQ(parsed.l1->activeDigest(), out.l1->activeDigest());
    EXPECT_EQ(parsed.l2->activeDigest(), out.l2->activeDigest());
    EXPECT_EQ(parsed.dir->activeDigest(), out.dir->activeDigest());
}

TEST(Supervisor, JournalParserRejectsGarbage)
{
    ShardOutcome out;
    EXPECT_FALSE(parseShardOutcome("", out));
    EXPECT_FALSE(parseShardOutcome("not json", out));
    EXPECT_FALSE(parseShardOutcome("{\"kind\":\"header\"}", out));
    EXPECT_FALSE(parseShardOutcome(
        "{\"kind\":\"shard\",\"index\":0}", out)); // missing fields
    // A valid line with an unknown failure class must not arm a bogus
    // enum value.
    ShardOutcome good;
    good.name = "x";
    std::string line = shardOutcomeToJson(good);
    std::size_t pos = line.find("\"None\"");
    ASSERT_NE(pos, std::string::npos);
    line.replace(pos, 6, "\"Nope\"");
    EXPECT_FALSE(parseShardOutcome(line, out));
}

TEST(Supervisor, JournalLoadTakesLastRecordAndToleratesTruncation)
{
    std::string path = tempPath("journal_tolerance.jsonl");
    std::remove(path.c_str());

    ShardOutcome first;
    first.name = "shard";
    first.seed = 9;
    first.index = 0;
    first.result.passed = false;
    first.result.failureClass = FailureClass::ResourceExhausted;
    ShardOutcome second = ShardOutcome{};
    second.name = "shard";
    second.seed = 9;
    second.index = 0;
    second.result.passed = true;

    {
        std::ofstream out(path);
        out << "{\"v\":1,\"kind\":\"header\",\"shards_planned\":1}\n";
        out << shardOutcomeToJson(first) << "\n";
        out << shardOutcomeToJson(second) << "\n";
        // A write interrupted by SIGKILL: half a record, no newline.
        out << shardOutcomeToJson(first).substr(0, 40);
    }

    std::vector<ShardOutcome> records;
    ASSERT_TRUE(loadJournal(path, records));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(records[0].result.passed); // the last full record wins
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Checkpoint / resume.
// ---------------------------------------------------------------------

namespace
{

/** Field-by-field aggregate comparison, excluding wall-clock and
 *  completion-order artifacts. */
void
expectAggregatesIdentical(const CampaignResult &a,
                          const CampaignResult &b)
{
    EXPECT_EQ(a.totalTicks, b.totalTicks);
    EXPECT_EQ(a.totalEvents, b.totalEvents);
    EXPECT_EQ(a.totalEpisodes, b.totalEpisodes);
    EXPECT_EQ(a.totalLoadsChecked, b.totalLoadsChecked);
    EXPECT_EQ(a.totalStoresRetired, b.totalStoresRetired);
    EXPECT_EQ(a.totalAtomicsChecked, b.totalAtomicsChecked);
    ASSERT_EQ(a.l1Union.has_value(), b.l1Union.has_value());
    ASSERT_EQ(a.l2Union.has_value(), b.l2Union.has_value());
    ASSERT_EQ(a.dirUnion.has_value(), b.dirUnion.has_value());
    if (a.l1Union) {
        EXPECT_EQ(a.l1Union->activeDigest(), b.l1Union->activeDigest());
        EXPECT_EQ(a.l1Union->totalHits(), b.l1Union->totalHits());
    }
    if (a.l2Union) {
        EXPECT_EQ(a.l2Union->activeDigest(), b.l2Union->activeDigest());
        EXPECT_EQ(a.l2Union->totalHits(), b.l2Union->totalHits());
    }
    if (a.dirUnion) {
        EXPECT_EQ(a.dirUnion->activeDigest(),
                  b.dirUnion->activeDigest());
        EXPECT_EQ(a.dirUnion->totalHits(), b.dirUnion->totalHits());
    }
}

void
resumeBitIdentityAtJobs(unsigned jobs)
{
    const std::size_t seeds = 5;
    std::string path = tempPath("resume_j" + std::to_string(jobs) +
                                ".jsonl");
    std::remove(path.c_str());

    // Uninterrupted baseline: no journal involved.
    CampaignResult baseline = runSupervisedCampaign(
        gpuSeedSweep(tinyPreset(1), 1, seeds), baseConfig(jobs));
    ASSERT_TRUE(baseline.passed);

    // Run 1: shard 2 never gets past its injected transient failures,
    // so it ends at host level (ResourceExhausted) — journaled, but
    // eligible for re-execution on resume.
    std::vector<ShardSpec> faulted =
        gpuSeedSweep(tinyPreset(1), 1, seeds);
    HostFaultInjector faults;
    faults.arm(2, HostFaultKind::Transient, /*fail_attempts=*/100);
    faults.armShards(faulted);
    SupervisorConfig cfg1 = baseConfig(jobs);
    cfg1.journalPath = path;
    cfg1.maxRetries = 1;
    cfg1.retryBackoffMs = 1;
    CampaignResult interrupted =
        runSupervisedCampaign(std::move(faulted), cfg1);
    EXPECT_FALSE(interrupted.passed);
    EXPECT_EQ(interrupted.resourceExhausted, 1u);

    // Run 2: resume with healthy shards. Completed shards come from the
    // journal; the host-failed shard re-runs.
    SupervisorConfig cfg2 = baseConfig(jobs);
    cfg2.journalPath = path;
    cfg2.resume = true;
    CampaignResult resumed = runSupervisedCampaign(
        gpuSeedSweep(tinyPreset(1), 1, seeds), cfg2);

    EXPECT_TRUE(resumed.passed);
    EXPECT_EQ(resumed.shardsRun, seeds);
    EXPECT_EQ(resumed.shardsResumed, seeds - 1);
    expectAggregatesIdentical(resumed, baseline);
    std::remove(path.c_str());
}

} // namespace

TEST(Supervisor, ResumeReproducesAggregatesBitIdenticallySerial)
{
    resumeBitIdentityAtJobs(1);
}

TEST(Supervisor, ResumeReproducesAggregatesBitIdenticallyParallel)
{
    resumeBitIdentityAtJobs(4);
}

TEST(Supervisor, ResumedShardsReportNoRetries)
{
    std::string path = tempPath("resumed_retries.jsonl");
    std::remove(path.c_str());

    // Shard 0 succeeds on its third attempt and is journaled with them.
    std::vector<ShardSpec> flaky;
    flaky.push_back(syntheticShard("flaky", 7));
    flaky.push_back(syntheticShard("steady", 8));
    HostFaultInjector faults;
    faults.arm(0, HostFaultKind::Transient, /*fail_attempts=*/2);
    faults.armShards(flaky);
    SupervisorConfig cfg = baseConfig(1);
    cfg.journalPath = path;
    cfg.maxRetries = 2;
    cfg.retryBackoffMs = 1;
    CampaignResult first = runSupervisedCampaign(std::move(flaky), cfg);
    ASSERT_TRUE(first.passed);
    EXPECT_EQ(first.retriesPerformed, 2u);

    // The resumed session adopts both shards and runs neither.
    std::vector<ShardSpec> again;
    again.push_back(syntheticShard("flaky", 7));
    again.push_back(syntheticShard("steady", 8));
    cfg.resume = true;
    CampaignResult resumed = runSupervisedCampaign(std::move(again), cfg);
    EXPECT_TRUE(resumed.passed);
    EXPECT_EQ(resumed.shardsResumed, 2u);
    EXPECT_EQ(resumed.retriesPerformed, 0u)
        << "a resumed session made no retries";
    std::remove(path.c_str());
}

TEST(Supervisor, JournalRecordsAreInIndexOrder)
{
    const std::size_t total = 6;
    std::string path = tempPath("index_order.jsonl");
    std::remove(path.c_str());

    // Shard 0 is the slowest: it finishes only after shard 3 has run.
    auto opened = std::make_shared<std::promise<void>>();
    std::shared_future<void> gate = opened->get_future().share();
    std::vector<ShardSpec> shards;
    for (std::size_t i = 0; i < total; ++i)
        shards.push_back(
            syntheticShard("s" + std::to_string(i), 100 + i));
    shards[0].run = [gate, inner = shards[0].run] {
        gate.wait_for(std::chrono::seconds(60));
        return inner();
    };
    shards[3].run = [opened, inner = shards[3].run] {
        ShardOutcome out = inner();
        opened->set_value();
        return out;
    };

    SupervisorConfig cfg = baseConfig(4);
    cfg.journalPath = path;
    CampaignResult res = runSupervisedCampaign(std::move(shards), cfg);
    ASSERT_TRUE(res.passed);

    std::ifstream in(path);
    std::vector<std::size_t> indices;
    std::string line;
    std::string inner;
    while (std::getline(in, line)) {
        ShardOutcome out;
        if (unsealJournalRecord(line, inner) == JournalSeal::Ok &&
            parseShardOutcome(inner, out))
            indices.push_back(out.index);
    }
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < total; ++i)
        expected.push_back(i);
    EXPECT_EQ(indices, expected);
    std::remove(path.c_str());
}

TEST(Supervisor, SigtermMidCampaignJournalsAndResumes)
{
    const std::size_t total = 5;
    std::string path = tempPath("sigterm.jsonl");
    std::remove(path.c_str());

    std::vector<ShardSpec> shards;
    for (std::size_t i = 0; i < total; ++i)
        shards.push_back(
            syntheticShard("s" + std::to_string(i), 100 + i));
    // Shard 1 delivers SIGTERM mid-campaign, then lingers long enough
    // for the campaign loop (20 ms poll) to stop pulling shards.
    ShardSpec &sig = shards[1];
    sig.run = [inner = sig.run]() {
        std::raise(SIGTERM);
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        return inner();
    };

    SupervisorConfig cfg1 = baseConfig(1);
    cfg1.journalPath = path;
    cfg1.handleSignals = true;
    CampaignResult hit = runSupervisedCampaign(std::move(shards), cfg1);
    EXPECT_TRUE(hit.interrupted);
    EXPECT_GE(hit.shardsSkipped, 1u);
    EXPECT_EQ(hit.shardsRun + hit.shardsSkipped, total);

    // Resume completes the skipped shards without re-running the
    // journaled ones.
    std::vector<ShardSpec> again;
    for (std::size_t i = 0; i < total; ++i)
        again.push_back(
            syntheticShard("s" + std::to_string(i), 100 + i));
    SupervisorConfig cfg2 = baseConfig(1);
    cfg2.journalPath = path;
    cfg2.resume = true;
    CampaignResult resumed =
        runSupervisedCampaign(std::move(again), cfg2);
    EXPECT_TRUE(resumed.passed);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.shardsRun, total);
    EXPECT_EQ(resumed.shardsResumed, hit.shardsRun);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Repro capture.
// ---------------------------------------------------------------------

TEST(Supervisor, ProtocolFailureGetsReproTraceRecorded)
{
    std::string dir = tempPath("repros_proto");
    std::vector<ShardSpec> shards;
    GpuTestPreset preset = tinyPreset(11, FaultKind::LostWriteThrough);
    preset.name = "faulty/seed11";
    shards.push_back(gpuShard(preset));

    SupervisorConfig cfg = baseConfig(1);
    cfg.reproDir = dir;
    CampaignResult res =
        runSupervisedCampaign(std::move(shards), cfg);
    ASSERT_FALSE(res.passed);
    ASSERT_TRUE(res.firstFailure.has_value());
    EXPECT_FALSE(
        isHostFailureClass(res.firstFailure->failureClass));

    ReproTrace trace;
    ASSERT_EQ(TraceLoadStatus::Ok,
              loadTraceFileStatus(dir + "/faulty_seed11.trace", trace));
    EXPECT_FALSE(trace.result.passed);
    EXPECT_EQ(trace.result.failureClass,
              res.firstFailure->failureClass);
    EXPECT_EQ(trace.tester.seed, 11u);
    std::remove((dir + "/faulty_seed11.trace").c_str());
}

TEST(Supervisor, InProcessHostFailureGetsStubNotRerun)
{
    std::string dir = tempPath("repros_host");
    std::vector<ShardSpec> shards;
    shards.push_back(gpuShard(tinyPreset(3)));
    // Crash wrapper keeps the preset provenance but dies in-process, so
    // re-recording is unsafe — the supervisor must write the stub.
    ShardSpec &spec = shards[0];
    spec.run = []() -> ShardOutcome {
        throw std::runtime_error("host-side explosion");
    };

    SupervisorConfig cfg = baseConfig(1);
    cfg.reproDir = dir;
    CampaignResult res =
        runSupervisedCampaign(std::move(shards), cfg);
    ASSERT_FALSE(res.passed);
    EXPECT_EQ(res.hostCrashes, 1u);

    std::string stub_path = dir + "/tiny.hostfail.json";
    std::ifstream stub(stub_path);
    ASSERT_TRUE(stub.is_open()) << stub_path;
    std::string content((std::istreambuf_iterator<char>(stub)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("\"HostCrash\""), std::string::npos);
    EXPECT_NE(content.find("\"seed\":3"), std::string::npos);
    std::remove(stub_path.c_str());
}

// ---------------------------------------------------------------------
// Fork isolation. Kept out of the Supervisor suite: sanitizer
// CI filters run these separately (fork + TSan don't mix).
// ---------------------------------------------------------------------

TEST(ForkIsolation, CrashingShardBecomesHostCrash)
{
    std::vector<ShardSpec> shards;
    shards.push_back(syntheticShard("ok-a", 1));
    shards.push_back(syntheticShard("boom", 66));
    shards.push_back(syntheticShard("ok-b", 3));
    HostFaultInjector faults;
    faults.arm(1, HostFaultKind::Crash);
    faults.armShards(shards);

    SupervisorConfig cfg = baseConfig(2);
    cfg.forkIsolation = true;
    CampaignResult res =
        runSupervisedCampaign(std::move(shards), cfg);
    EXPECT_FALSE(res.passed);
    EXPECT_EQ(res.shardsRun, 3u);
    EXPECT_EQ(res.hostCrashes, 1u);
    ASSERT_TRUE(res.firstFailure.has_value());
    EXPECT_EQ(res.firstFailure->name, "boom");
    EXPECT_EQ(res.firstFailure->seed, 66u);
    EXPECT_EQ(res.firstFailure->failureClass, FailureClass::HostCrash);
}

TEST(ForkIsolation, HangingChildIsKilledAndTriagedAsTimeout)
{
    std::vector<ShardSpec> shards;
    shards.push_back(syntheticShard("stuck", 44));
    shards.push_back(syntheticShard("ok", 2));
    HostFaultInjector faults;
    faults.arm(0, HostFaultKind::Hang);
    faults.armShards(shards);

    SupervisorConfig cfg = baseConfig(2);
    cfg.forkIsolation = true;
    cfg.shardTimeoutSeconds = 0.5;
    CampaignResult res =
        runSupervisedCampaign(std::move(shards), cfg);
    EXPECT_FALSE(res.passed);
    EXPECT_EQ(res.shardsRun, 2u);
    EXPECT_EQ(res.hostTimeouts, 1u);
    ASSERT_TRUE(res.firstFailure.has_value());
    EXPECT_EQ(res.firstFailure->name, "stuck");
    EXPECT_EQ(res.firstFailure->failureClass,
              FailureClass::HostTimeout);
}

TEST(ForkIsolation, OutcomeSurvivesThePipeBitIdentically)
{
    // One real shard, run in-process and forked: the pipe serialization
    // must not lose or distort anything the merge consumes.
    CampaignResult direct = runSupervisedCampaign(
        gpuSeedSweep(tinyPreset(2), 7, 2), baseConfig(1));
    SupervisorConfig forked_cfg = baseConfig(1);
    forked_cfg.forkIsolation = true;
    CampaignResult forked = runSupervisedCampaign(
        gpuSeedSweep(tinyPreset(2), 7, 2), forked_cfg);

    ASSERT_TRUE(direct.passed);
    ASSERT_TRUE(forked.passed);
    EXPECT_EQ(forked.shardsRun, direct.shardsRun);
    EXPECT_EQ(forked.totalTicks, direct.totalTicks);
    EXPECT_EQ(forked.totalEvents, direct.totalEvents);
    EXPECT_EQ(forked.totalEpisodes, direct.totalEpisodes);
    EXPECT_EQ(forked.totalLoadsChecked, direct.totalLoadsChecked);
    ASSERT_TRUE(forked.l1Union && direct.l1Union);
    EXPECT_EQ(forked.l1Union->activeDigest(),
              direct.l1Union->activeDigest());
    EXPECT_EQ(forked.l1Union->totalHits(), direct.l1Union->totalHits());
}

TEST(ForkIsolation, TransientRetryWorksAcrossForks)
{
    std::vector<ShardSpec> shards;
    shards.push_back(syntheticShard("flaky", 5));
    HostFaultInjector faults;
    faults.arm(0, HostFaultKind::Transient, /*fail_attempts=*/1);
    faults.armShards(shards);

    SupervisorConfig cfg = baseConfig(1);
    cfg.forkIsolation = true;
    cfg.maxRetries = 2;
    cfg.retryBackoffMs = 1;
    CampaignResult res =
        runSupervisedCampaign(std::move(shards), cfg);
    EXPECT_TRUE(res.passed);
    EXPECT_EQ(res.retriesPerformed, 1u);
    EXPECT_EQ(res.resourceExhausted, 0u);
}

TEST(ForkIsolation, HostFailureGetsReproTraceRecorded)
{
    // A crashed shard with preset provenance is re-recorded in one more
    // forked attempt: the injected crash wraps run(), the re-record
    // replays the clean preset, so the trace lands beside the crash.
    std::string dir = tempPath("repros_fork");
    std::string path = dir + "/crashy_seed21.trace";
    std::remove(path.c_str());
    std::vector<ShardSpec> shards;
    GpuTestPreset preset = tinyPreset(21);
    preset.name = "crashy/seed21";
    shards.push_back(gpuShard(preset));
    HostFaultInjector faults;
    faults.arm(0, HostFaultKind::Crash);
    faults.armShards(shards);

    SupervisorConfig cfg = baseConfig(1);
    cfg.forkIsolation = true;
    cfg.reproDir = dir;
    CampaignResult res =
        runSupervisedCampaign(std::move(shards), cfg);
    ASSERT_FALSE(res.passed);
    EXPECT_EQ(res.hostCrashes, 1u);

    ReproTrace trace;
    ASSERT_EQ(TraceLoadStatus::Ok, loadTraceFileStatus(path, trace))
        << path;
    EXPECT_EQ(trace.tester.seed, 21u);
    std::remove(path.c_str());
}
