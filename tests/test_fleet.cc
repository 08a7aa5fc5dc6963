/**
 * @file
 * Fleet tests: wire framing, protocol payload round trips (including
 * bit-exact double transport), journal replay into the shard merge,
 * and end-to-end coordinator/worker campaigns — the
 * distributed aggregates must be byte-identical to the workers=0
 * degenerate fleet, with workers killed mid-campaign, with proactive
 * steals, and across a halt + resume.
 *
 * The end-to-end suite forks real worker processes (through
 * runLocalFleet, which forks before the coordinator spawns any
 * thread), so it exercises the actual sockets, the actual SIGKILL
 * recovery path, and the actual journal file. The FleetStreaming suite
 * runs its workers as threads of the test process instead (runWorker
 * against a listening FleetCoordinator): no fork, so it runs under
 * ThreadSanitizer, and it checks the streaming pull rule, the
 * index-ordered drain and the stop contract without wall-clock
 * assertions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <unistd.h>
#define DRF_TEST_HAVE_SOCKETPAIR 1
#else
#define DRF_TEST_HAVE_SOCKETPAIR 0
#endif

#include "campaign/journal.hh"
#include "campaign/campaign.hh"
#include "fleet/fleet.hh"
#include "fleet/protocol.hh"
#include "fleet/wire.hh"
#include "fleet/worker.hh"
#include "guidance/adaptive_campaign.hh"
#include "guidance/genome.hh"
#include "guidance/sources.hh"
#include "proto/gpu_l1.hh"

using namespace drf;
using namespace drf::fleet;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "drf_fleet_" + name;
}

/** Two tiny arms so fleet campaigns finish in seconds, not minutes. */
SourceConfig
tinySourceConfig(std::uint64_t master_seed, std::size_t max_shards,
                 std::size_t batch)
{
    ConfigGenome a;
    a.cacheClass = CacheSizeClass::Small;
    a.actionsPerEpisode = 20;
    a.episodesPerWf = 3;
    a.atomicLocs = 10;
    a.colocDensity = 0.37; // deliberately not exactly representable
    a.numCus = 2;
    ConfigGenome b = a;
    b.actionsPerEpisode = 30;
    b.colocDensity = 2.0;

    SourceConfig cfg;
    cfg.arms = {a, b};
    cfg.scale.lanes = 4;
    cfg.scale.wfsPerCu = 2;
    cfg.scale.numNormalVars = 256;
    cfg.masterSeed = master_seed;
    cfg.batchSize = batch;
    cfg.maxShards = max_shards;
    return cfg;
}

/** Synthetic outcome for merge tests; no simulator involved. */
ShardOutcome
syntheticOutcome(std::size_t index, std::uint64_t events,
                 bool passed = true, bool with_grid = false)
{
    ShardOutcome out;
    out.name = "synthetic-" + std::to_string(index);
    out.seed = 1000 + index;
    out.index = index;
    out.result.passed = passed;
    out.result.ticks = 10 * (index + 1);
    out.result.events = events;
    out.result.episodes = 2;
    if (!passed) {
        out.result.report = "synthetic failure";
        out.result.failureClass = FailureClass::ValueMismatch;
    }
    if (with_grid) {
        out.l1 = std::make_unique<CoverageGrid>(GpuL1Cache::spec());
        // A per-index cell pattern so unions depend on every shard.
        out.l1->hit(index % out.l1->spec().numEvents(),
                    index % out.l1->spec().numStates());
        out.l1->hit(0, 0);
    }
    return out;
}

/** Fields of a CampaignResult that must be arrival-order invariant. */
void
expectEquivalent(const CampaignResult &a, const CampaignResult &b)
{
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.shardsRun, b.shardsRun);
    EXPECT_EQ(a.totalTicks, b.totalTicks);
    EXPECT_EQ(a.totalEvents, b.totalEvents);
    EXPECT_EQ(a.totalEpisodes, b.totalEpisodes);
    ASSERT_EQ(a.firstFailure.has_value(), b.firstFailure.has_value());
    if (a.firstFailure) {
        EXPECT_EQ(a.firstFailure->index, b.firstFailure->index);
        EXPECT_EQ(a.firstFailure->name, b.firstFailure->name);
    }
    ASSERT_EQ(a.l1Union.has_value(), b.l1Union.has_value());
    if (a.l1Union) {
        EXPECT_EQ(a.l1Union->activeDigest(), b.l1Union->activeDigest());
        EXPECT_EQ(a.l1Union->totalHits(), b.l1Union->totalHits());
    }
    ASSERT_EQ(a.saturationCurve.size(), b.saturationCurve.size());
    for (std::size_t i = 0; i < a.saturationCurve.size(); ++i) {
        EXPECT_EQ(a.saturationCurve[i].shardName,
                  b.saturationCurve[i].shardName)
            << "curve position " << i;
        EXPECT_EQ(a.saturationCurve[i].cumulativeEvents,
                  b.saturationCurve[i].cumulativeEvents);
    }
}

} // namespace

// ---------------------------------------------------------------------
// Wire framing.
// ---------------------------------------------------------------------

#if DRF_TEST_HAVE_SOCKETPAIR

TEST(FleetWire, FrameRoundTrip)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));

    std::string binary("\x00\x01\xff{\"k\":1}\n", 10);
    ASSERT_TRUE(sendFrame(fds[0], fleet::MsgType::Hello, "hello"));
    ASSERT_TRUE(sendFrame(fds[0], fleet::MsgType::Result, binary));
    ASSERT_TRUE(sendFrame(fds[0], fleet::MsgType::Steal, ""));

    Frame f;
    ASSERT_TRUE(recvFrame(fds[1], f));
    EXPECT_EQ(fleet::MsgType::Hello, f.type);
    EXPECT_EQ("hello", f.payload);
    ASSERT_TRUE(recvFrame(fds[1], f));
    EXPECT_EQ(fleet::MsgType::Result, f.type);
    EXPECT_EQ(binary, f.payload);
    ASSERT_TRUE(recvFrame(fds[1], f));
    EXPECT_EQ(fleet::MsgType::Steal, f.type);
    EXPECT_TRUE(f.payload.empty());

    ::close(fds[0]);
    EXPECT_FALSE(recvFrame(fds[1], f)) << "EOF must fail cleanly";
    ::close(fds[1]);
}

TEST(FleetWire, RejectsOversizedLength)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    // Hand-crafted v2 header claiming a 4 GiB payload (CRC field is
    // never reached: the length check rejects first).
    unsigned char head[fleet::kFrameHeaderSize] = {
        0xff, 0xff, 0xff, 0xff,
        static_cast<unsigned char>(fleet::MsgType::Hello),
        0, 0, 0, 0};
    ASSERT_EQ(ssize_t(sizeof(head)),
              ::write(fds[0], head, sizeof(head)));
    Frame f;
    EXPECT_EQ(fleet::WireStatus::Oversized,
              fleet::recvFrameEx(fds[1], f));
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FleetWire, TornHeaderFailsCleanly)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    unsigned char partial[3] = {5, 0, 0};
    ASSERT_EQ(ssize_t(sizeof(partial)),
              ::write(fds[0], partial, sizeof(partial)));
    ::close(fds[0]); // EOF mid-header
    Frame f;
    EXPECT_FALSE(recvFrame(fds[1], f));
    ::close(fds[1]);
}

#endif // DRF_TEST_HAVE_SOCKETPAIR

// ---------------------------------------------------------------------
// Protocol payloads.
// ---------------------------------------------------------------------

TEST(FleetProtocol, HelloWelcomeHeartbeatRoundTrip)
{
    HelloMsg hello;
    hello.worker = "host-7:1234";
    hello.pid = 1234;
    hello.slots = 3;
    HelloMsg hello2;
    ASSERT_TRUE(parseHello(serializeHello(hello), hello2));
    EXPECT_EQ(hello.worker, hello2.worker);
    EXPECT_EQ(hello.pid, hello2.pid);
    EXPECT_EQ(hello.slots, hello2.slots);

    WelcomeMsg welcome;
    welcome.forkIsolation = true;
    welcome.shardTimeoutSeconds = 0.1; // not exactly representable
    welcome.shardEventBudget = 123456789;
    welcome.maxRetries = 5;
    welcome.retryBackoffMs = 7;
    welcome.queueDepth = 4;
    welcome.heartbeatMs = 250;
    WelcomeMsg welcome2;
    ASSERT_TRUE(parseWelcome(serializeWelcome(welcome), welcome2));
    EXPECT_EQ(welcome.forkIsolation, welcome2.forkIsolation);
    EXPECT_EQ(welcome.shardTimeoutSeconds, welcome2.shardTimeoutSeconds)
        << "doubles must survive the wire bit-exactly";
    EXPECT_EQ(welcome.shardEventBudget, welcome2.shardEventBudget);
    EXPECT_EQ(welcome.queueDepth, welcome2.queueDepth);
    EXPECT_EQ(welcome.heartbeatMs, welcome2.heartbeatMs);

    HeartbeatMsg hb;
    hb.inflight = 2;
    hb.completed = 40;
    HeartbeatMsg hb2;
    ASSERT_TRUE(parseHeartbeat(serializeHeartbeat(hb), hb2));
    EXPECT_EQ(hb.inflight, hb2.inflight);
    EXPECT_EQ(hb.completed, hb2.completed);
}

TEST(FleetProtocol, LeaseRoundTripIsBitExact)
{
    ShardLease lease;
    lease.index = 41;
    lease.seed = 0xdeadbeefcafe;
    lease.genome.cacheClass = CacheSizeClass::Mixed;
    lease.genome.actionsPerEpisode = 123;
    lease.genome.episodesPerWf = 7;
    lease.genome.atomicLocs = 55;
    lease.genome.colocDensity = 1.0 / 3.0; // worst case for %.6g
    lease.genome.numCus = 6;
    lease.scale.lanes = 8;
    lease.scale.wfsPerCu = 3;
    lease.scale.numNormalVars = 1024;
    lease.scale.fault = FaultKind::None;
    lease.scale.faultTriggerPct = 100;
    lease.name = genomeName(lease.genome);

    ShardLease lease2;
    ASSERT_TRUE(parseLease(serializeLease(lease), lease2));
    EXPECT_EQ(lease.index, lease2.index);
    EXPECT_EQ(lease.name, lease2.name);
    EXPECT_EQ(lease.seed, lease2.seed);
    EXPECT_TRUE(lease.genome == lease2.genome)
        << "genome (incl. coloc_density double) must round-trip "
           "bit-exactly";
    EXPECT_EQ(lease.scale.lanes, lease2.scale.lanes);
    EXPECT_EQ(lease.scale.wfsPerCu, lease2.scale.wfsPerCu);
    EXPECT_EQ(lease.scale.numNormalVars, lease2.scale.numNormalVars);
    EXPECT_EQ(lease.scale.fault, lease2.scale.fault);
}

TEST(FleetProtocol, SourceLeaseReconstructsTheIssuedShard)
{
    SourceConfig cfg = tinySourceConfig(3, 4, 4);
    SweepSource source(cfg);
    std::vector<ShardSpec> batch = source.nextBatch();
    ASSERT_FALSE(batch.empty());
    for (const ShardSpec &spec : batch) {
        std::optional<ShardLease> lease = source.leaseForSeed(spec.seed);
        ASSERT_TRUE(lease.has_value());
        EXPECT_EQ(spec.name, lease->name);
        EXPECT_EQ(spec.seed, lease->seed);
        // The wire-rebuilt spec must be the shard the source issued.
        ShardLease parsed;
        ASSERT_TRUE(parseLease(serializeLease(*lease), parsed));
        ShardSpec rebuilt = leaseToSpec(parsed);
        EXPECT_EQ(spec.name, rebuilt.name);
        EXPECT_EQ(spec.seed, rebuilt.seed);
    }
}

TEST(FleetProtocol, ParseRejectsMalformedPayloads)
{
    HelloMsg hello;
    EXPECT_FALSE(parseHello("not json", hello));
    EXPECT_FALSE(parseHello("{}", hello));
    WelcomeMsg welcome;
    EXPECT_FALSE(parseWelcome("{\"v\":1}", welcome));
    ShardLease lease;
    EXPECT_FALSE(parseLease("{}", lease));
    EXPECT_FALSE(parseLease(
        "{\"v\":1,\"index\":0,\"name\":\"x\",\"seed\":1,"
        "\"genome\":{\"cache_class\":\"bogus\",\"actions_per_episode\":1,"
        "\"episodes_per_wf\":1,\"atomic_locs\":1,\"coloc_density\":1,"
        "\"num_cus\":1},\"scale\":{\"lanes\":1,\"wfs_per_cu\":1,"
        "\"num_normal_vars\":1,\"fault\":\"none\","
        "\"fault_trigger_pct\":100}}",
        lease))
        << "unknown cache class must be rejected, not defaulted";
}

// ---------------------------------------------------------------------
// Journal replay into the shard merge.
// ---------------------------------------------------------------------

TEST(StreamingMerge, JournalReplayWithTornTailMatchesSortedMerge)
{
    constexpr std::size_t kShards = 5;
    constexpr double kWall = 1.0;
    CampaignConfig cfg;
    cfg.stopOnFailure = false;

    ShardMerge reference(cfg, kShards);
    for (std::size_t i = 0; i < kShards; ++i)
        reference.add(syntheticOutcome(i, 50 + i, true, true), kWall);
    CampaignResult want = reference.take(kWall);

    // A journal written out of order, with a duplicate and a torn tail.
    std::string path = tempPath("torn_tail.jsonl");
    {
        std::ofstream out(path, std::ios::trunc);
        std::vector<std::size_t> order{3, 0, 4, 1, 0, 2};
        for (std::size_t index : order)
            out << shardOutcomeToJson(
                       syntheticOutcome(index, 50 + index, true, true))
                << "\n";
        std::string torn =
            shardOutcomeToJson(syntheticOutcome(0, 999, true, true));
        out << torn.substr(0, torn.size() / 2); // crash mid-append
    }

    // loadJournal keeps the last record per index and returns them in
    // index order, so they merge exactly like the live campaign.
    std::vector<ShardOutcome> records;
    ASSERT_TRUE(loadJournal(path, records));
    ASSERT_EQ(kShards, records.size());
    ShardMerge replayed(cfg, kShards);
    for (ShardOutcome &rec : records)
        replayed.add(rec, kWall, /*resumed=*/true);
    CampaignResult got = replayed.take(kWall);

    expectEquivalent(want, got);
    EXPECT_EQ(kShards, got.shardsResumed);
    std::remove(path.c_str());
}

TEST(StreamingMerge, MultiRecordPartialTailSkipsOnlyTheGarbage)
{
    // A crash can leave more than one damaged line: a torn record,
    // then bytes of a *second* record appended by a dying writer that
    // never reached its newline. Loading must skip exactly the
    // damage and keep every whole record before and between.
    std::string path = tempPath("multi_torn.jsonl");
    std::string rec0 =
        shardOutcomeToJson(syntheticOutcome(0, 50, true, true));
    std::string rec1 =
        shardOutcomeToJson(syntheticOutcome(1, 51, true, true));
    std::string rec2 =
        shardOutcomeToJson(syntheticOutcome(2, 52, true, true));
    {
        std::ofstream out(path, std::ios::trunc);
        out << rec0 << "\n";
        // Torn mid-record, no newline...
        out << rec1.substr(0, rec1.size() / 3);
        // ...with a second partial record fused onto the same line.
        out << rec2.substr(rec2.size() / 2) << "\n";
        out << rec2 << "\n"; // an intact copy after the damage
    }
    std::vector<ShardOutcome> records;
    JournalLoadStats stats;
    ASSERT_TRUE(loadJournal(path, records, &stats));
    ASSERT_EQ(2u, records.size());
    EXPECT_EQ(0u, records[0].index);
    EXPECT_EQ(2u, records[1].index);
    EXPECT_EQ(1u, stats.parseSkipped)
        << "the fused partial lines are one unparseable line";
    std::remove(path.c_str());
}

TEST(StreamingMerge, EmbeddedNewlinePayloadStaysOneJournalLine)
{
    // Shard names / reports may contain newlines; the JSON escaper
    // must keep each record a single JSONL line or a resume would
    // shear every following record.
    std::string path = tempPath("newline_payload.jsonl");
    ShardOutcome noisy = syntheticOutcome(0, 50, false, true);
    noisy.name = "line1\nline2";
    noisy.result.report = "assert failed:\n\texpected 1\n\tgot 2\n";
    std::string line = shardOutcomeToJson(noisy);
    EXPECT_EQ(std::string::npos, line.find('\n'))
        << "embedded newlines must be escaped, not emitted";
    {
        std::ofstream out(path, std::ios::trunc);
        out << sealJournalRecord(line) << "\n";
        out << shardOutcomeToJson(syntheticOutcome(1, 51, true, true))
            << "\n";
    }
    std::vector<ShardOutcome> records;
    JournalLoadStats stats;
    ASSERT_TRUE(loadJournal(path, records, &stats));
    ASSERT_EQ(2u, records.size());
    EXPECT_EQ("line1\nline2", records[0].name);
    EXPECT_EQ("assert failed:\n\texpected 1\n\tgot 2\n",
              records[0].result.report);
    EXPECT_EQ(0u, stats.crcSkipped + stats.parseSkipped);
    std::remove(path.c_str());
}

TEST(StreamingMerge, SealedAndBareRecordsCoexistOnResume)
{
    // Journals written before the CRC envelope (or by a writer with
    // crcRecords off) must stay loadable next to sealed records.
    std::string path = tempPath("mixed_seal.jsonl");
    {
        std::ofstream out(path, std::ios::trunc);
        out << shardOutcomeToJson(syntheticOutcome(0, 50, true, true))
            << "\n";
        out << sealJournalRecord(shardOutcomeToJson(
                   syntheticOutcome(1, 51, true, true)))
            << "\n";
    }
    std::vector<ShardOutcome> records;
    JournalLoadStats stats;
    ASSERT_TRUE(loadJournal(path, records, &stats));
    ASSERT_EQ(2u, records.size());
    EXPECT_EQ(0u, records[0].index);
    EXPECT_EQ(1u, records[1].index);
    EXPECT_EQ(0u, stats.crcSkipped + stats.parseSkipped);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// End to end: distributed == local, byte for byte.
// ---------------------------------------------------------------------

#if DRF_TEST_HAVE_SOCKETPAIR

namespace
{

struct FleetRun
{
    std::string aggregates;
    FleetResult result;
};

/** Run one fleet campaign over the tiny source. */
FleetRun
runFleet(const std::string &strategy, std::uint64_t master_seed,
         unsigned workers, unsigned die_on_result = 0,
         const std::string &journal = "", bool resume = false,
         std::size_t max_rounds = 0)
{
    SourceConfig src_cfg = tinySourceConfig(master_seed, 6, 3);
    std::unique_ptr<ShardSource> source;
    if (strategy == "guided")
        source = std::make_unique<GuidedSource>(src_cfg);
    else
        source = std::make_unique<SweepSource>(src_cfg);

    LocalFleetConfig cfg;
    cfg.workers = workers;
    cfg.dieOnResult = die_on_result;
    cfg.coordinator.campaign.jobs = 1;
    cfg.coordinator.journalPath = journal;
    cfg.coordinator.resume = resume;
    cfg.coordinator.maxRounds = max_rounds;
    cfg.coordinator.workerWaitSeconds = 20.0;

    FleetRun run;
    run.result = runLocalFleet(*source, cfg);
    run.aggregates =
        adaptiveAggregatesJson(run.result.adaptive, "gpu_tester");
    return run;
}

} // namespace

TEST(Fleet, TwoWorkerSweepMatchesDegenerateFleetByteForByte)
{
    FleetRun golden = runFleet("sweep", 21, /*workers=*/0);
    ASSERT_TRUE(golden.result.adaptive.passed);
    EXPECT_EQ(6u, golden.result.adaptive.shardsRun);
    EXPECT_EQ(6u, golden.result.localRuns);

    FleetRun fleet = runFleet("sweep", 21, /*workers=*/2);
    ASSERT_TRUE(fleet.result.adaptive.passed);
    EXPECT_EQ(2u, fleet.result.workersSeen);
    EXPECT_EQ(0u, fleet.result.localRuns)
        << "with live workers every shard should go over the wire";
    EXPECT_EQ(golden.aggregates, fleet.aggregates);
}

TEST(Fleet, TwoWorkerGuidedMatchesDegenerateFleetByteForByte)
{
    FleetRun golden = runFleet("guided", 33, /*workers=*/0);
    ASSERT_TRUE(golden.result.adaptive.passed);
    ASSERT_FALSE(golden.result.adaptive.decisions.empty());

    FleetRun fleet = runFleet("guided", 33, /*workers=*/2);
    ASSERT_TRUE(fleet.result.adaptive.passed);
    EXPECT_EQ(golden.aggregates, fleet.aggregates)
        << "guided decisions must be a pure function of the master "
           "seed at any worker count";
}

TEST(Fleet, KilledWorkerIsReLeasedAndAggregatesStillMatch)
{
    FleetRun golden = runFleet("sweep", 21, /*workers=*/0);

    // Worker 0 SIGKILLs itself instead of sending its first result, so
    // at least one lease must be recovered for the campaign to finish.
    FleetRun fleet =
        runFleet("sweep", 21, /*workers=*/2, /*die_on_result=*/1);
    ASSERT_TRUE(fleet.result.adaptive.passed);
    EXPECT_EQ(6u, fleet.result.adaptive.shardsRun);
    EXPECT_GE(fleet.result.releases, 1u);
    EXPECT_EQ(golden.aggregates, fleet.aggregates);
}

TEST(Fleet, CoordinatorFallsBackLocallyWhenNoWorkerArrives)
{
    SourceConfig src_cfg = tinySourceConfig(21, 6, 3);
    SweepSource source(src_cfg);
    CoordinatorConfig cfg;
    cfg.campaign.jobs = 1;
    cfg.expectedWorkers = 1; // nobody will connect
    cfg.workerWaitSeconds = 0.2;
    FleetCoordinator coordinator(source, cfg);
    ASSERT_TRUE(coordinator.listen());
    FleetResult result = coordinator.run();
    EXPECT_TRUE(result.adaptive.passed);
    EXPECT_EQ(6u, result.adaptive.shardsRun);
    EXPECT_EQ(6u, result.localRuns);

    FleetRun golden = runFleet("sweep", 21, /*workers=*/0);
    EXPECT_EQ(golden.aggregates,
              adaptiveAggregatesJson(result.adaptive, "gpu_tester"));
}

TEST(Fleet, HaltedFleetResumesBitIdentically)
{
    std::string journal = tempPath("resume.jsonl");
    std::remove(journal.c_str());

    FleetRun golden = runFleet("guided", 33, /*workers=*/0);

    // Phase 1: stop after one round, journaling.
    FleetRun halted = runFleet("guided", 33, /*workers=*/0, 0, journal,
                               /*resume=*/false, /*max_rounds=*/1);
    EXPECT_TRUE(halted.result.halted);
    EXPECT_EQ(3u, halted.result.adaptive.shardsRun);

    // Phase 2: resume the same campaign — this time over two workers,
    // so adoption and distribution compose.
    FleetRun resumed = runFleet("guided", 33, /*workers=*/2, 0, journal,
                                /*resume=*/true);
    EXPECT_FALSE(resumed.result.halted);
    EXPECT_EQ(3u, resumed.result.adaptive.shardsResumed);
    EXPECT_EQ(6u, resumed.result.adaptive.shardsRun);
    EXPECT_EQ(golden.aggregates, resumed.aggregates)
        << "resume + fleet must reproduce the uninterrupted campaign "
           "byte for byte";
    std::remove(journal.c_str());
}

// ---------------------------------------------------------------------
// Streaming leases: worker threads against a listening coordinator.
// ---------------------------------------------------------------------

namespace
{

std::unique_ptr<ShardSource>
makeSource(const std::string &strategy, const SourceConfig &cfg)
{
    if (strategy == "guided")
        return std::make_unique<GuidedSource>(cfg);
    if (strategy == "random")
        return std::make_unique<RandomSource>(cfg);
    return std::make_unique<SweepSource>(cfg);
}

/**
 * Forwards a source (strategy included, so the coordinator schedules
 * it as the inner one) and records what the coordinator asked of it:
 * the reported indices, the pulls, the pulls made while issued shards
 * were still unreported, and calls from any thread but the driving one.
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
        if (!batch.empty()) {
            ++pulls;
            if (issued != reported.size())
                ++earlyPulls;
        }
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

    std::optional<ShardLease>
    leaseForSeed(std::uint64_t seed) const override
    {
        noteThread();
        return _inner.leaseForSeed(seed);
    }

    std::vector<std::size_t> reported;
    std::size_t issued = 0;
    std::size_t pulls = 0;
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

/**
 * Run one campaign on a listening coordinator with @p workers
 * runWorker() threads; @p worker0 configures the first of them (fault
 * injection). workers == 0 is the degenerate fleet, the golden.
 */
FleetResult
runThreadFleet(ShardSource &source, CoordinatorConfig cfg,
               unsigned workers, WorkerConfig worker0 = {})
{
    cfg.campaign.jobs = 1;
    cfg.expectedWorkers = workers;
    cfg.workerWaitSeconds = 20.0;
    FleetCoordinator coordinator(source, cfg);
    EXPECT_TRUE(coordinator.listen());
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < workers; ++i) {
        WorkerConfig wc = i == 0 ? worker0 : WorkerConfig{};
        wc.port = coordinator.boundPort();
        wc.name = "thread-" + std::to_string(i);
        threads.emplace_back([wc] { runWorker(wc); });
    }
    FleetResult result = coordinator.run();
    for (std::thread &t : threads)
        t.join();
    return result;
}

std::string
aggregatesOf(const FleetResult &result)
{
    return adaptiveAggregatesJson(result.adaptive, "gpu_tester");
}

/** The degenerate-fleet aggregates of @p strategy over @p cfg. */
std::string
goldenAggregates(const std::string &strategy, const SourceConfig &cfg,
                 const CoordinatorConfig &coord = {})
{
    std::unique_ptr<ShardSource> source = makeSource(strategy, cfg);
    return aggregatesOf(runThreadFleet(*source, coord, 0));
}

/** 0, 1, ..., n-1. */
std::vector<std::size_t>
iota(std::size_t n)
{
    std::vector<std::size_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = i;
    return v;
}

/** Global indices of the records in journal @p path, in file order. */
std::vector<std::size_t>
journaledIndices(const std::string &path)
{
    std::vector<ShardOutcome> records;
    EXPECT_TRUE(loadJournal(path, records));
    std::vector<std::size_t> indices;
    for (const ShardOutcome &rec : records)
        indices.push_back(rec.index);
    return indices;
}

} // namespace

TEST(FleetStreaming, SweepPullsTheNextBatchBeforeReportingThisOne)
{
    // Two workers hold four leases and a batch is three shards, so the
    // coordinator must pull batch 1 before anything of batch 0 drained.
    std::unique_ptr<ShardSource> inner =
        makeSource("sweep", tinySourceConfig(21, 12, 3));
    RecordingSource source(*inner);
    FleetResult result = runThreadFleet(source, {}, 2);

    EXPECT_TRUE(result.adaptive.passed);
    EXPECT_EQ(4u, result.adaptive.rounds);
    EXPECT_EQ(4u, source.pulls);
    EXPECT_GE(source.earlyPulls, 1u);
    EXPECT_EQ(iota(12), source.reported);
    EXPECT_FALSE(source.offThread);
    EXPECT_EQ(0u, result.localRuns);
}

TEST(FleetStreaming, TriageCarriesWhatFleetIdleTimeNeeds)
{
    std::unique_ptr<ShardSource> source =
        makeSource("sweep", tinySourceConfig(21, 6, 3));
    FleetResult result = runThreadFleet(*source, {}, 2);
    const std::string triage = fleetTriageJson(result);

    EXPECT_NE(triage.find("\"workers\":2,"), std::string::npos);
    EXPECT_NE(triage.find("\"wall_seconds\":"), std::string::npos);
    EXPECT_NE(triage.find("\"busy_seconds\":"), std::string::npos);
    EXPECT_GT(result.adaptive.shardSecondsSum, 0.0);
    EXPECT_LE(result.adaptive.shardSecondsSum,
              2 * result.adaptive.wallSeconds);
    EXPECT_EQ(aggregatesOf(result).find("_seconds"), std::string::npos)
        << "wall and busy time must stay out of the aggregates";
}

TEST(FleetStreaming, GuidedKeepsTheBatchBarrier)
{
    std::unique_ptr<ShardSource> inner =
        makeSource("guided", tinySourceConfig(33, 12, 3));
    RecordingSource source(*inner);
    FleetResult result = runThreadFleet(source, {}, 2);

    EXPECT_TRUE(result.adaptive.passed);
    EXPECT_EQ(0u, source.earlyPulls)
        << "a guided batch was pulled before its predecessor drained";
    EXPECT_EQ(iota(result.adaptive.shardsRun), source.reported);
    EXPECT_FALSE(source.offThread);
}

TEST(FleetStreaming, AggregatesMatchTheGoldenAtAnyWorkerCount)
{
    for (const std::string strategy : {"sweep", "random", "guided"}) {
        const SourceConfig src_cfg = tinySourceConfig(41, 12, 3);
        const std::string golden = goldenAggregates(strategy, src_cfg);
        EXPECT_NE(golden.find("\"shards_run\":12"), std::string::npos)
            << strategy;
        for (unsigned workers : {1u, 2u, 4u}) {
            std::unique_ptr<ShardSource> source =
                makeSource(strategy, src_cfg);
            FleetResult result = runThreadFleet(*source, {}, workers);
            EXPECT_TRUE(result.adaptive.passed);
            EXPECT_EQ(workers, result.workersSeen);
            EXPECT_EQ(golden, aggregatesOf(result))
                << strategy << " at " << workers << " workers";
        }
    }
}

TEST(FleetStreaming, NothingPastTheStoppingBatchIsJournaledOrReported)
{
    // Every shard carries the same armed protocol bug, so the first
    // batch with a detected failure stops the campaign, while a second
    // batch is already pulled and leased.
    SourceConfig src_cfg = tinySourceConfig(21, 12, 3);
    src_cfg.scale.fault = FaultKind::LostWriteThrough;
    const std::string golden = goldenAggregates("sweep", src_cfg);

    std::string journal = tempPath("stop.jsonl");
    std::remove(journal.c_str());
    std::unique_ptr<ShardSource> inner = makeSource("sweep", src_cfg);
    RecordingSource source(*inner);
    CoordinatorConfig cfg;
    cfg.journalPath = journal;
    FleetResult result = runThreadFleet(source, cfg, 2);

    ASSERT_FALSE(result.adaptive.passed);
    ASSERT_TRUE(result.adaptive.firstFailure.has_value());
    const std::size_t drained = 3 * result.adaptive.rounds;
    EXPECT_LT(result.adaptive.firstFailure->index, drained);
    EXPECT_GE(result.adaptive.firstFailure->index, drained - 3)
        << "the campaign must stop at the failing batch";
    EXPECT_LT(drained, 12u) << "the fault must stop the campaign early";
    EXPECT_GT(source.pulls, result.adaptive.rounds)
        << "no batch was pulled ahead of the stop";
    EXPECT_EQ(iota(drained), source.reported);
    EXPECT_EQ(drained, result.adaptive.shardsRun);
    EXPECT_EQ(drained, result.campaign.shardsRun);
    EXPECT_EQ(iota(drained), journaledIndices(journal));
    EXPECT_FALSE(source.offThread);
    EXPECT_EQ(golden, aggregatesOf(result));
    std::remove(journal.c_str());
}

TEST(FleetStreaming, OneRoundPullsOneBatchAndResumesBitIdentically)
{
    const SourceConfig src_cfg = tinySourceConfig(21, 12, 3);
    const std::string golden = goldenAggregates("sweep", src_cfg);
    std::string journal = tempPath("one_round.jsonl");
    std::remove(journal.c_str());

    // Two workers have room for a second batch; maxRounds forbids it.
    std::unique_ptr<ShardSource> first = makeSource("sweep", src_cfg);
    RecordingSource source(*first);
    CoordinatorConfig cfg;
    cfg.journalPath = journal;
    cfg.maxRounds = 1;
    FleetResult halted = runThreadFleet(source, cfg, 2);
    EXPECT_TRUE(halted.halted);
    EXPECT_EQ(1u, source.pulls);
    EXPECT_EQ(3u, halted.adaptive.shardsRun);
    EXPECT_EQ(iota(3), journaledIndices(journal));

    std::unique_ptr<ShardSource> second = makeSource("sweep", src_cfg);
    cfg.maxRounds = 0;
    cfg.resume = true;
    FleetResult resumed = runThreadFleet(*second, cfg, 2);
    EXPECT_FALSE(resumed.halted);
    EXPECT_EQ(3u, resumed.adaptive.shardsResumed);
    EXPECT_EQ(12u, resumed.adaptive.shardsRun);
    EXPECT_EQ(iota(12), journaledIndices(journal));
    EXPECT_EQ(golden, aggregatesOf(resumed));
    std::remove(journal.c_str());
}

TEST(FleetStreaming, StealDuplicatesNeverReachTheAggregates)
{
    // Idle workers ask for work every few milliseconds and may
    // duplicate any outstanding lease, so second answers land both
    // before and after their batch drained: only first answers count.
    const SourceConfig src_cfg = tinySourceConfig(21, 12, 3);
    const std::string golden = goldenAggregates("sweep", src_cfg);
    std::unique_ptr<ShardSource> inner = makeSource("sweep", src_cfg);
    RecordingSource source(*inner);
    CoordinatorConfig cfg;
    cfg.stealMinAgeSeconds = 0.0;
    cfg.heartbeatMs = 5;
    FleetResult result = runThreadFleet(source, cfg, 4);

    EXPECT_EQ(iota(12), source.reported);
    EXPECT_EQ(12u, result.campaign.shardsRun);
    EXPECT_LE(result.duplicateResults, result.releases);
    EXPECT_EQ(golden, aggregatesOf(result));
}

TEST(FleetStreaming, QuorumComparesEveryShardWhileBatchesOverlap)
{
    const SourceConfig src_cfg = tinySourceConfig(21, 12, 3);
    const std::string golden = goldenAggregates("sweep", src_cfg);
    CoordinatorConfig cfg;
    cfg.verifyQuorum = 1;

    {
        std::unique_ptr<ShardSource> inner = makeSource("sweep", src_cfg);
        RecordingSource source(*inner);
        FleetResult result = runThreadFleet(source, cfg, 2);
        EXPECT_GE(source.earlyPulls, 1u);
        EXPECT_EQ(12u, result.quorumLeases);
        EXPECT_EQ(0u, result.quorumDivergences);
        EXPECT_EQ(golden, aggregatesOf(result));
    }

    // Worker 0 silently lies about every even index. Each shard runs on
    // both workers, so every lie meets an honest answer, is caught, and
    // is settled by a local re-run before its batch drains.
    WorkerConfig liar;
    liar.corruptEveryN = 2;
    liar.corruptSilently = true;
    std::unique_ptr<ShardSource> source = makeSource("sweep", src_cfg);
    FleetResult result = runThreadFleet(*source, cfg, 2, liar);
    EXPECT_EQ(12u, result.quorumLeases);
    std::vector<std::size_t> diverged = result.divergedIndices;
    std::sort(diverged.begin(), diverged.end());
    EXPECT_EQ((std::vector<std::size_t>{0, 2, 4, 6, 8, 10}), diverged);
    EXPECT_EQ(golden, aggregatesOf(result));
}

#endif // DRF_TEST_HAVE_SOCKETPAIR
