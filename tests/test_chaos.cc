/**
 * @file
 * Chaos layer tests: the deterministic fault primitives (RNG, CRC,
 * profiles, wire/disk planners), the wire v2 CRC detection path, the
 * journal integrity envelope and its retry/degrade ladder, and the
 * end-to-end invariant the whole layer exists for — a fleet campaign
 * under injected corruption detects every fault and still produces
 * aggregates byte-identical to a clean serial golden.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "campaign/journal.hh"
#include "chaos/chaos.hh"
#include "chaos/disk_chaos.hh"
#include "chaos/wire_chaos.hh"
#include "fleet/fleet.hh"
#include "fleet/wire.hh"
#include "guidance/adaptive_campaign.hh"
#include "guidance/genome.hh"
#include "guidance/sources.hh"

using namespace drf;
using namespace drf::fleet;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "drf_chaos_" + name;
}

} // namespace

// ---------------------------------------------------------------------
// Primitives: hashing, RNG, profiles.
// ---------------------------------------------------------------------

TEST(ChaosPrimitives, Crc32cMatchesKnownVector)
{
    // The canonical CRC32C check value (RFC 3720 appendix).
    EXPECT_EQ(0xE3069283u, chaos::crc32c("123456789"));
    EXPECT_EQ(0u, chaos::crc32c(""));
}

TEST(ChaosPrimitives, Crc32cChainsIncrementally)
{
    std::string data = "the quick brown fox";
    std::uint32_t whole = chaos::crc32c(data);
    std::uint32_t part = chaos::crc32c(data.substr(0, 7));
    part = chaos::crc32c(data.data() + 7, data.size() - 7, part);
    EXPECT_EQ(whole, part);
}

TEST(ChaosPrimitives, Fnv1a64IsStable)
{
    // FNV-1a offset basis: hashing nothing returns the basis.
    EXPECT_EQ(1469598103934665603ull, chaos::fnv1a64(""));
    EXPECT_NE(chaos::fnv1a64("a"), chaos::fnv1a64("b"));
    EXPECT_EQ(chaos::fnv1a64("payload"), chaos::fnv1a64("payload"));
}

TEST(ChaosPrimitives, RngIsDeterministicPerSeed)
{
    chaos::ChaosRng a(7), b(7), c(8);
    bool diverged = false;
    for (int i = 0; i < 64; ++i) {
        std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            diverged = true;
    }
    EXPECT_TRUE(diverged) << "different seeds must differ";
    EXPECT_EQ(0u, a.below(0));
    for (int i = 0; i < 64; ++i)
        EXPECT_LT(a.below(10), 10u);
}

TEST(ChaosPrimitives, ChancePctHonorsExtremes)
{
    chaos::ChaosRng rng(3);
    for (int i = 0; i < 32; ++i) {
        EXPECT_FALSE(rng.chancePct(0.0));
        EXPECT_TRUE(rng.chancePct(100.0));
    }
}

TEST(ChaosPrimitives, DeriveSeedSeparatesStreams)
{
    std::uint64_t w0 = chaos::deriveSeed(42, "wire:worker-0");
    std::uint64_t w1 = chaos::deriveSeed(42, "wire:worker-1");
    std::uint64_t disk = chaos::deriveSeed(42, "disk:journal");
    EXPECT_NE(w0, w1);
    EXPECT_NE(w0, disk);
    EXPECT_EQ(w0, chaos::deriveSeed(42, "wire:worker-0"))
        << "same master + stream must reproduce";
    EXPECT_NE(w0, chaos::deriveSeed(43, "wire:worker-0"));
}

TEST(ChaosPrimitives, EveryNamedProfileResolves)
{
    std::vector<std::string> names = chaos::profileNames();
    ASSERT_FALSE(names.empty());
    for (const std::string &name : names) {
        chaos::ChaosProfile profile;
        EXPECT_TRUE(chaos::profileByName(name, profile)) << name;
        EXPECT_EQ(name, profile.name);
    }
    chaos::ChaosProfile none;
    ASSERT_TRUE(chaos::profileByName("none", none));
    EXPECT_FALSE(none.any());
    chaos::ChaosProfile unknown;
    EXPECT_FALSE(chaos::profileByName("wire-gremlins", unknown));
}

// ---------------------------------------------------------------------
// Fault planners.
// ---------------------------------------------------------------------

TEST(WireChaos, SameSeedSameRatesSamePlan)
{
    chaos::WireRates rates;
    rates.flipPct = 30;
    rates.dropPct = 10;
    rates.truncPct = 10;
    rates.dupPct = 10;
    chaos::WireChaos a(99, rates), b(99, rates);
    for (int i = 0; i < 200; ++i) {
        chaos::FramePlan pa = a.planFrame(64, 4);
        chaos::FramePlan pb = b.planFrame(64, 4);
        EXPECT_EQ(pa.drop, pb.drop);
        EXPECT_EQ(pa.copies, pb.copies);
        EXPECT_EQ(pa.flipOffset, pb.flipOffset);
        EXPECT_EQ(pa.flipMask, pb.flipMask);
        EXPECT_EQ(pa.truncateTo, pb.truncateTo);
    }
    EXPECT_GT(a.stats().totalInjected(), 0u);
}

TEST(WireChaos, ZeroRatesNeverInject)
{
    chaos::WireChaos wc(1, chaos::WireRates{});
    for (int i = 0; i < 100; ++i) {
        chaos::FramePlan plan = wc.planFrame(32, 4);
        EXPECT_FALSE(plan.drop);
        EXPECT_EQ(1u, plan.copies);
        EXPECT_EQ(-1, plan.flipOffset);
        EXPECT_EQ(SIZE_MAX, plan.truncateTo);
        EXPECT_EQ(0, plan.delayMs);
    }
    EXPECT_EQ(0u, wc.stats().totalInjected());
}

TEST(WireChaos, FlipsNeverTouchTheLengthPrefix)
{
    chaos::WireRates rates;
    rates.flipPct = 100;
    chaos::WireChaos wc(5, rates);
    for (int i = 0; i < 200; ++i) {
        chaos::FramePlan plan = wc.planFrame(40, 4);
        ASSERT_GE(plan.flipOffset, 4);
        ASSERT_LT(plan.flipOffset, 40);
        EXPECT_NE(0, plan.flipMask) << "a zero mask flips nothing";
    }
}

TEST(DiskChaos, EnospcBudgetCapsAcceptedBytes)
{
    chaos::DiskRates rates;
    rates.enospcAfterBytes = 100;
    chaos::DiskChaos dc(1, rates);
    std::size_t accepted = 0;
    bool hit_enospc = false;
    for (int i = 0; i < 10 && !hit_enospc; ++i) {
        chaos::DiskWriteFate fate = dc.writeFate(40);
        accepted += fate.allow;
        if (fate.err != 0) {
            EXPECT_EQ(ENOSPC, fate.err);
            hit_enospc = true;
        }
    }
    EXPECT_TRUE(hit_enospc);
    EXPECT_LE(accepted, 100u);
}

TEST(DiskChaos, ShortWritesReturnPrefixAndErrno)
{
    chaos::DiskRates rates;
    rates.shortWritePct = 100;
    chaos::DiskChaos dc(9, rates);
    chaos::DiskWriteFate fate = dc.writeFate(64);
    EXPECT_LT(fate.allow, 64u);
    EXPECT_NE(0, fate.err);
}

TEST(DiskChaos, FsyncFaultIsDeterministic)
{
    chaos::DiskRates rates;
    rates.fsyncFailPct = 50;
    chaos::DiskChaos a(17, rates), b(17, rates);
    bool saw_fail = false, saw_ok = false;
    for (int i = 0; i < 64; ++i) {
        int fa = a.syncFate();
        EXPECT_EQ(fa, b.syncFate());
        (fa != 0 ? saw_fail : saw_ok) = true;
    }
    EXPECT_TRUE(saw_fail);
    EXPECT_TRUE(saw_ok);
}

// ---------------------------------------------------------------------
// Wire v2: CRC detection over a real socket.
// ---------------------------------------------------------------------

TEST(WireV2, FlippedPayloadByteIsDetectedAsCorrupt)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    std::string wire =
        encodeFrame(fleet::MsgType::Result, "{\"k\":42}");
    wire[kFrameHeaderSize + 3] ^= 0x10; // payload byte
    ASSERT_TRUE(sendRawFrame(fds[0], wire));
    Frame f;
    EXPECT_EQ(WireStatus::Corrupt, recvFrameEx(fds[1], f));
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(WireV2, FlippedTypeByteIsDetectedAsCorrupt)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    std::string wire = encodeFrame(fleet::MsgType::Result, "payload");
    wire[4] ^= 0x01; // the type byte is covered by the frame CRC
    ASSERT_TRUE(sendRawFrame(fds[0], wire));
    Frame f;
    EXPECT_EQ(WireStatus::Corrupt, recvFrameEx(fds[1], f));
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(WireV2, FlippedCrcFieldIsDetectedAsCorrupt)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    std::string wire = encodeFrame(fleet::MsgType::Heartbeat, "");
    wire[5] ^= 0x80; // CRC field itself
    ASSERT_TRUE(sendRawFrame(fds[0], wire));
    Frame f;
    EXPECT_EQ(WireStatus::Corrupt, recvFrameEx(fds[1], f));
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(WireV2, TruncatedFrameFailsAsEofNotGarbage)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    std::string wire = encodeFrame(fleet::MsgType::Result, "0123456789");
    ASSERT_TRUE(sendRawFrame(fds[0],
                             wire.substr(0, wire.size() - 4)));
    ::close(fds[0]); // the truncating peer dies
    Frame f;
    EXPECT_EQ(WireStatus::Eof, recvFrameEx(fds[1], f));
    ::close(fds[1]);
}

TEST(WireV2, CleanFramesStillRoundTrip)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    std::string binary("\x00\x01\xff{\"k\":1}\n", 10);
    ASSERT_TRUE(sendFrame(fds[0], fleet::MsgType::Result, binary));
    Frame f;
    EXPECT_EQ(WireStatus::Ok, recvFrameEx(fds[1], f));
    EXPECT_EQ(fleet::MsgType::Result, f.type);
    EXPECT_EQ(binary, f.payload);
    ::close(fds[0]);
    ::close(fds[1]);
}

// ---------------------------------------------------------------------
// Journal integrity envelope + failure ladder.
// ---------------------------------------------------------------------

TEST(JournalSealing, RoundTripAndDamageDetection)
{
    std::string line = "{\"kind\":\"shard\",\"index\":3}";
    std::string sealed = sealJournalRecord(line);
    std::string inner;
    EXPECT_EQ(JournalSeal::Ok, unsealJournalRecord(sealed, inner));
    EXPECT_EQ(line, inner);

    // One flipped character inside the payload.
    std::string damaged = sealed;
    damaged[sealed.size() / 2] ^= 0x04;
    EXPECT_EQ(JournalSeal::Bad, unsealJournalRecord(damaged, inner));

    // Legacy bare lines pass through untouched.
    EXPECT_EQ(JournalSeal::Bare, unsealJournalRecord(line, inner));
    EXPECT_EQ(line, inner);
}

TEST(JournalSealing, LoadJournalCountsEachSkipCategory)
{
    std::string path = tempPath("skips.jsonl");
    {
        std::ofstream out(path, std::ios::trunc);
        ShardOutcome first;
        first.name = "g";
        first.seed = 1;
        first.index = 0;
        first.result.passed = true;
        out << sealJournalRecord(shardOutcomeToJson(first)) << "\n";
        // Sealed record with a corrupted byte: crcSkipped.
        ShardOutcome second;
        second.name = "g";
        second.seed = 1;
        second.index = 1;
        second.result.passed = true;
        std::string sealed =
            sealJournalRecord(shardOutcomeToJson(second));
        sealed[sealed.size() - 4] ^= 0x02;
        out << sealed << "\n";
        // Torn tail: parseSkipped.
        out << "{\"kind\":\"shard\",\"ind";
    }
    std::vector<ShardOutcome> records;
    JournalLoadStats stats;
    ASSERT_TRUE(loadJournal(path, records, &stats));
    EXPECT_EQ(1u, records.size());
    EXPECT_EQ(1u, stats.crcSkipped);
    EXPECT_EQ(1u, stats.parseSkipped);
    std::remove(path.c_str());
}

TEST(JournalFaults, TransientWriteFailureRetriesAndRecovers)
{
    std::string path = tempPath("retry.jsonl");
    std::remove(path.c_str());
    unsigned attempts = 0;
    CampaignJournal::Policy policy;
    policy.retryBackoffMs = 1;
    policy.writeFault = [&](std::size_t) {
        JournalWriteFate fate;
        if (attempts++ == 0) {
            fate.allow = 0;
            fate.err = EIO; // first attempt fails, retries succeed
        }
        return fate;
    };
    {
        CampaignJournal journal(path, policy);
        ASSERT_TRUE(journal.ok());
        journal.append("{\"kind\":\"shard\",\"index\":0}");
        journal.flush(true);
        JournalStatus status = journal.status();
        EXPECT_FALSE(status.degraded);
        EXPECT_EQ(1u, status.failedWrites);
        EXPECT_GE(status.retries, 1u);
        EXPECT_EQ(EIO, status.lastErrno);
        EXPECT_TRUE(journal.ok());
    }
    std::vector<ShardOutcome> records;
    JournalLoadStats stats;
    ASSERT_TRUE(loadJournal(path, records, &stats));
    EXPECT_EQ(0u, stats.crcSkipped) << "recovered write must be whole";
    std::remove(path.c_str());
}

TEST(JournalFaults, PersistentFailureDegradesInsteadOfThrowing)
{
    std::string path = tempPath("degrade.jsonl");
    std::remove(path.c_str());
    CampaignJournal::Policy policy;
    policy.retryBackoffMs = 1;
    policy.writeFault = [](std::size_t) {
        return JournalWriteFate{0, ENOSPC}; // disk is full forever
    };
    CampaignJournal journal(path, policy);
    ASSERT_TRUE(journal.ok());
    journal.append("{\"kind\":\"shard\",\"index\":0}");
    journal.flush(true);
    JournalStatus status = journal.status();
    EXPECT_TRUE(status.degraded);
    EXPECT_EQ(ENOSPC, status.lastErrno);
    EXPECT_STREQ("write", status.lastOp.c_str());
    EXPECT_FALSE(journal.ok())
        << "degraded journal must tell callers to stop appending";
    // Appending after degradation is a harmless no-op, not a crash.
    journal.append("{\"kind\":\"shard\",\"index\":1}");
    journal.flush(true);
    std::remove(path.c_str());
}

TEST(JournalFaults, ShortWritesLeaveGenuinelyTornBytesOnDisk)
{
    std::string path = tempPath("torn.jsonl");
    std::remove(path.c_str());
    CampaignJournal::Policy policy;
    policy.retryBackoffMs = 1;
    policy.maxWriteRetries = 0; // first failure degrades
    bool fired = false;
    policy.writeFault = [&](std::size_t len) {
        JournalWriteFate fate;
        if (!fired && len > 10) {
            fired = true;
            fate.allow = len / 2; // half the buffer really lands
            fate.err = EIO;
        }
        return fate;
    };
    {
        CampaignJournal journal(path, policy);
        ASSERT_TRUE(journal.ok());
        journal.append("{\"kind\":\"shard\",\"index\":0,\"x\":1}");
        journal.flush(true);
        EXPECT_TRUE(journal.status().degraded);
    }
    // The torn prefix is on disk; resume-side loading must reject it
    // as damaged rather than half-parse it.
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    ASSERT_FALSE(contents.empty());
    EXPECT_EQ(std::string::npos, contents.find('\n'))
        << "the record must be torn mid-line";
    std::vector<ShardOutcome> records;
    JournalLoadStats stats;
    ASSERT_TRUE(loadJournal(path, records, &stats));
    EXPECT_EQ(0u, records.size());
    EXPECT_EQ(1u, stats.crcSkipped + stats.parseSkipped);
    std::remove(path.c_str());
}

TEST(JournalFaults, FsyncFailureIsCountedAndSurvivable)
{
    std::string path = tempPath("fsync.jsonl");
    std::remove(path.c_str());
    unsigned calls = 0;
    CampaignJournal::Policy policy;
    policy.retryBackoffMs = 1;
    policy.syncFault = [&]() { return calls++ == 0 ? EIO : 0; };
    CampaignJournal journal(path, policy);
    ASSERT_TRUE(journal.ok());
    journal.append("{\"kind\":\"shard\",\"index\":0}");
    journal.flush(true);
    JournalStatus status = journal.status();
    EXPECT_EQ(1u, status.fsyncFailures);
    EXPECT_FALSE(status.degraded) << "one transient fsync failure "
                                     "must not end journaling";
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// End to end: chaos in, clean aggregates out.
// ---------------------------------------------------------------------

namespace
{

/** Two tiny arms so chaotic fleet campaigns finish in seconds. */
SourceConfig
tinyChaosSource(std::uint64_t master_seed)
{
    ConfigGenome a;
    a.cacheClass = CacheSizeClass::Small;
    a.actionsPerEpisode = 20;
    a.episodesPerWf = 3;
    a.atomicLocs = 10;
    a.colocDensity = 0.5;
    a.numCus = 2;
    ConfigGenome b = a;
    b.actionsPerEpisode = 30;

    SourceConfig cfg;
    cfg.arms = {a, b};
    cfg.scale.lanes = 4;
    cfg.scale.wfsPerCu = 2;
    cfg.scale.numNormalVars = 256;
    cfg.masterSeed = master_seed;
    cfg.batchSize = 3;
    cfg.maxShards = 6;
    return cfg;
}

struct ChaosRun
{
    std::string aggregates;
    FleetResult result;
};

ChaosRun
runChaosFleet(std::uint64_t master_seed, const LocalFleetConfig &base)
{
    SourceConfig src_cfg = tinyChaosSource(master_seed);
    SweepSource source(src_cfg);
    LocalFleetConfig cfg = base;
    cfg.coordinator.campaign.jobs = 1;
    cfg.coordinator.workerWaitSeconds = 20.0;
    ChaosRun run;
    run.result = runLocalFleet(source, cfg);
    run.aggregates =
        adaptiveAggregatesJson(run.result.adaptive, "gpu_tester");
    return run;
}

} // namespace

TEST(ChaosFleet, WireFlipsAreDetectedAndAggregatesMatchGolden)
{
    LocalFleetConfig golden_cfg;
    golden_cfg.workers = 0;
    ChaosRun golden = runChaosFleet(21, golden_cfg);
    ASSERT_TRUE(golden.result.adaptive.passed);

    LocalFleetConfig cfg;
    cfg.workers = 2;
    cfg.wireChaos.flipPct = 12;
    cfg.coordinator.chaosSeed = 42;
    cfg.coordinator.stragglerSeconds = 0.3;
    cfg.maxReconnects = 20;

    // Rates are probabilistic per frame; try a few seeds until a flip
    // actually fires (deterministically: the same seed always injects
    // the same faults).
    bool saw_detection = false;
    for (std::uint64_t seed = 42; seed < 46 && !saw_detection;
         ++seed) {
        cfg.coordinator.chaosSeed = seed;
        ChaosRun chaotic = runChaosFleet(21, cfg);
        ASSERT_TRUE(chaotic.result.adaptive.passed);
        ASSERT_EQ(golden.aggregates, chaotic.aggregates)
            << "chaos seed " << seed << " changed the aggregates";
        saw_detection = chaotic.result.frameCorruptions > 0;
    }
    EXPECT_TRUE(saw_detection)
        << "no chaos seed produced a detected flip";
}

TEST(ChaosFleet, SilentResultLiesAreCaughtByQuorum)
{
    LocalFleetConfig golden_cfg;
    golden_cfg.workers = 0;
    ChaosRun golden = runChaosFleet(33, golden_cfg);
    ASSERT_TRUE(golden.result.adaptive.passed);

    LocalFleetConfig cfg;
    cfg.workers = 2;
    cfg.corruptEveryN = 2;    // worker 0 lies about every 2nd result
    cfg.corruptSilently = true; // ...and re-stamps a valid digest
    cfg.coordinator.verifyQuorum = 1;

    ChaosRun chaotic = runChaosFleet(33, cfg);
    ASSERT_TRUE(chaotic.result.adaptive.passed);
    EXPECT_GT(chaotic.result.quorumLeases, 0u);
    EXPECT_GT(chaotic.result.quorumDivergences, 0u)
        << "a silently lying worker must be caught by cross-check";
    EXPECT_GT(chaotic.result.localRuns, 0u)
        << "every diverged shard needs an authoritative local re-run";
    EXPECT_EQ(golden.aggregates, chaotic.aggregates);
}

TEST(ChaosFleet, DigestMismatchIsCaughtWithoutQuorum)
{
    LocalFleetConfig golden_cfg;
    golden_cfg.workers = 0;
    ChaosRun golden = runChaosFleet(21, golden_cfg);

    LocalFleetConfig cfg;
    cfg.workers = 2;
    cfg.corruptEveryN = 2; // non-silent: digest covers the true line
    cfg.corruptSilently = false;
    cfg.coordinator.stragglerSeconds = 0.3;
    cfg.maxReconnects = 20;

    ChaosRun chaotic = runChaosFleet(21, cfg);
    ASSERT_TRUE(chaotic.result.adaptive.passed);
    EXPECT_GT(chaotic.result.digestMismatches, 0u)
        << "corrupted payloads with stale digests must be detected";
    EXPECT_EQ(golden.aggregates, chaotic.aggregates);
}

TEST(ChaosFleet, DiskChaosDegradesJournalButNotTheCampaign)
{
    std::string journal = tempPath("disk_chaos.jsonl");
    std::remove(journal.c_str());

    LocalFleetConfig golden_cfg;
    golden_cfg.workers = 0;
    ChaosRun golden = runChaosFleet(21, golden_cfg);

    // Degenerate fleet + heavy disk faults: journaling will suffer,
    // the campaign must not.
    LocalFleetConfig cfg;
    cfg.workers = 0;
    cfg.coordinator.journalPath = journal;
    chaos::DiskRates rates;
    rates.shortWritePct = 35;
    rates.fsyncFailPct = 25;
    cfg.coordinator.journalPolicy = chaos::diskChaosJournalPolicy(7, rates);

    ChaosRun chaotic = runChaosFleet(21, cfg);
    ASSERT_TRUE(chaotic.result.adaptive.passed);
    EXPECT_EQ(golden.aggregates, chaotic.aggregates);
    const JournalStatus &status = chaotic.result.journalStatus;
    EXPECT_GT(status.failedWrites + status.fsyncFailures +
                  status.retries,
              0u)
        << "these rates are high enough that some fault must fire";

    // Self-heal leg: resume over whatever the chaotic run persisted
    // (possibly with genuinely torn records) and match the golden.
    LocalFleetConfig heal_cfg;
    heal_cfg.workers = 0;
    heal_cfg.coordinator.journalPath = journal;
    heal_cfg.coordinator.resume = true;
    ChaosRun healed = runChaosFleet(21, heal_cfg);
    ASSERT_TRUE(healed.result.adaptive.passed);
    EXPECT_EQ(golden.aggregates, healed.aggregates)
        << "resume over a damaged journal must self-heal";
    std::remove(journal.c_str());
}
