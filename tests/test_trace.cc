/**
 * @file
 * Trace record/replay/shrink subsystem tests.
 *
 * The oracles are the same pinned golden digests as test_msg_goldens
 * (golden_digest.hh): recording must not perturb a run, and a replay
 * from the recorded episode schedule must reproduce the original —
 * result, report and every coverage count — bit for bit. On top of
 * that: recorder stream sanity, the binary trace-file round trip, the
 * ddmin shrinker (both the ≤10% size target and failure-class
 * preservation), the JSON bug report, and the Chrome-trace exporter.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>

#include "golden_digest.hh"
#include "pinned_thread.hh"
#include "trace/chrome_trace.hh"
#include "trace/repro.hh"
#include "trace/shrink.hh"
#include "trace/trace_file.hh"

using namespace drf;
using namespace drf::testing;

namespace
{

/** Record one golden-config run, capturing digest + schedule + events. */
struct RecordedRun
{
    ReproTrace trace;
    std::uint64_t digest = 0;
};

RecordedRun
recordGolden(CacheSizeClass cache_class, std::uint64_t seed,
             FaultKind fault = FaultKind::None,
             bool capture_events = true, unsigned trigger_pct = 100,
             unsigned episodes_per_wf = 0)
{
    RecordedRun run;
    run.trace.system = makeGpuSystemConfig(cache_class, 4);
    run.trace.system.fault = fault;
    run.trace.system.faultTriggerPct = trigger_pct;
    run.trace.tester = goldenGpuConfig(seed);
    if (episodes_per_wf != 0)
        run.trace.tester.episodesPerWf = episodes_per_wf;

    ApuSystem sys(run.trace.system);
    TraceRecorder events;
    if (capture_events)
        sys.attachTrace(events);

    GpuTesterConfig run_cfg = run.trace.tester;
    run_cfg.record = &run.trace.schedule;
    GpuTester tester(sys, run_cfg);
    run.trace.result = tester.run();
    run.trace.events = events.events();
    run.digest = gpuDigestOf(sys, run.trace.result);
    return run;
}

/** Replay a schedule and digest the replay run end to end. */
std::uint64_t
replayDigest(const ReproTrace &trace, const EpisodeSchedule &schedule)
{
    ApuSystem sys(trace.system);
    GpuTesterConfig run_cfg = trace.tester;
    run_cfg.record = nullptr;
    run_cfg.replay = &schedule;
    GpuTester tester(sys, run_cfg);
    TesterResult r = tester.run();
    return gpuDigestOf(sys, r);
}

} // namespace

// Recording (episode schedule + full event trace) must not change the
// run at all: the digest must still equal the pinned golden.
TEST(Trace, RecordingDoesNotPerturbPassingRun)
{
    RecordedRun run = recordGolden(CacheSizeClass::Small, 9);
    checkGolden("Trace.RecordSmallSeed9", run.digest,
                kGoldenGpuSmallSeed9);
    EXPECT_TRUE(run.trace.result.passed);
    EXPECT_FALSE(run.trace.schedule.empty());
    EXPECT_FALSE(run.trace.events.empty());
}

TEST(Trace, RecordingDoesNotPerturbFailingRun)
{
    RecordedRun run = recordGolden(CacheSizeClass::Small, 11,
                                   FaultKind::LostWriteThrough);
    checkGolden("Trace.RecordLostWriteThroughSeed11", run.digest,
                kGoldenGpuLostWriteThroughSeed11);
    EXPECT_FALSE(run.trace.result.passed);
    EXPECT_EQ(run.trace.result.failureClass,
              FailureClass::ValueMismatch);
}

// Replaying the complete recorded schedule reproduces the original run
// bit-identically, checked against the same pinned goldens.
TEST(Trace, ReplayReproducesPassingRun)
{
    RecordedRun run = recordGolden(CacheSizeClass::Small, 23,
                                   FaultKind::None,
                                   /*capture_events=*/false);
    checkGolden("Trace.RecordSmallSeed23", run.digest,
                kGoldenGpuSmallSeed23);
    checkGolden("Trace.ReplaySmallSeed23",
                replayDigest(run.trace, run.trace.schedule),
                kGoldenGpuSmallSeed23);
}

TEST(Trace, ReplayReproducesFailingRun)
{
    RecordedRun run = recordGolden(CacheSizeClass::Small, 11,
                                   FaultKind::LostWriteThrough,
                                   /*capture_events=*/false);
    checkGolden("Trace.ReplayLostWriteThroughSeed11",
                replayDigest(run.trace, run.trace.schedule),
                kGoldenGpuLostWriteThroughSeed11);

    // The high-level helper agrees on the replayed outcome.
    TesterResult replayed = replayGpuRun(run.trace);
    EXPECT_EQ(replayed.passed, run.trace.result.passed);
    EXPECT_EQ(replayed.failureClass, run.trace.result.failureClass);
    EXPECT_EQ(replayed.report, run.trace.result.report);
    EXPECT_EQ(replayed.ticks, run.trace.result.ticks);
}

// The recorder captures every stream (episodes, messages, transitions)
// in non-decreasing tick order.
TEST(Trace, RecorderCapturesAllStreams)
{
    RecordedRun run = recordGolden(CacheSizeClass::Small, 9);
    const std::vector<TraceEvent> &events = run.trace.events;
    ASSERT_FALSE(events.empty());

    std::size_t counts[traceEventKindCount] = {};
    Tick prev = 0;
    for (const TraceEvent &ev : events) {
        ASSERT_LT(static_cast<std::size_t>(ev.kind), std::size(counts));
        ++counts[static_cast<std::size_t>(ev.kind)];
        EXPECT_GE(ev.tick, prev) << "trace not in execution order";
        prev = ev.tick;
    }
    EXPECT_GT(counts[size_t(TraceEventKind::EpisodeIssue)], 0u);
    EXPECT_GT(counts[size_t(TraceEventKind::EpisodeRetire)], 0u);
    EXPECT_GT(counts[size_t(TraceEventKind::MsgSend)], 0u);
    EXPECT_GT(counts[size_t(TraceEventKind::MsgDeliver)], 0u);
    EXPECT_GT(counts[size_t(TraceEventKind::Transition)], 0u);

    // Every issued episode retires in a passing run.
    EXPECT_EQ(counts[size_t(TraceEventKind::EpisodeIssue)],
              counts[size_t(TraceEventKind::EpisodeRetire)]);
    EXPECT_EQ(counts[size_t(TraceEventKind::EpisodeIssue)],
              run.trace.schedule.size());

    // v4: every episode also completes one acquire and one release.
    EXPECT_EQ(counts[size_t(TraceEventKind::SyncAcquire)],
              run.trace.schedule.size());
    EXPECT_EQ(counts[size_t(TraceEventKind::SyncRelease)],
              run.trace.schedule.size());
}

// The binary trace file round-trips losslessly, and the loaded trace
// replays to the recorded outcome.
TEST(Trace, TraceFileRoundTrip)
{
    RecordedRun run = recordGolden(CacheSizeClass::Small, 11,
                                   FaultKind::LostWriteThrough);
    run.trace.presetName = "golden_small_seed11";

    std::stringstream buf;
    ASSERT_TRUE(saveTrace(buf, run.trace));

    ReproTrace loaded;
    ASSERT_EQ(TraceLoadStatus::Ok, loadTraceStatus(buf, loaded));

    EXPECT_EQ(loaded.presetName, run.trace.presetName);
    EXPECT_EQ(loaded.system.fault, run.trace.system.fault);
    EXPECT_EQ(loaded.system.numCus, run.trace.system.numCus);
    EXPECT_EQ(loaded.tester.seed, run.trace.tester.seed);
    EXPECT_EQ(loaded.result.report, run.trace.result.report);
    EXPECT_EQ(loaded.result.failureClass,
              run.trace.result.failureClass);
    ASSERT_EQ(loaded.schedule.size(), run.trace.schedule.size());
    for (std::size_t i = 0; i < loaded.schedule.size(); ++i) {
        const Episode &a = loaded.schedule.episodes[i];
        const Episode &b = run.trace.schedule.episodes[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.wavefrontId, b.wavefrontId);
        EXPECT_EQ(a.syncVar, b.syncVar);
        EXPECT_EQ(a.numActions(), b.numActions());
        EXPECT_EQ(a.writes.size(), b.writes.size());
        EXPECT_EQ(a.reads.size(), b.reads.size());
    }
    ASSERT_EQ(loaded.events.size(), run.trace.events.size());

    checkGolden("Trace.RoundTripReplay",
                replayDigest(loaded, loaded.schedule),
                kGoldenGpuLostWriteThroughSeed11);
}

TEST(Trace, LoadRejectsGarbage)
{
    std::stringstream buf("not a trace file at all");
    ReproTrace loaded;
    EXPECT_NE(TraceLoadStatus::Ok, loadTraceStatus(buf, loaded));
}

// The ddmin shrinker: the minimized schedule still fails with the same
// failure class, passes with the fault disarmed (so the failure really
// is the injected bug), and is at most 10% of the original episodes —
// the acceptance bar for the repro workflow.
TEST(Trace, ShrinkerMinimizesLostWriteThrough)
{
    // A low trigger rate is the realistic bug-hunting regime: the run
    // survives long enough to issue a large schedule before the fault
    // bites, which is exactly the haystack the shrinker exists for.
    RecordedRun run = recordGolden(CacheSizeClass::Small, 42,
                                   FaultKind::LostWriteThrough,
                                   /*capture_events=*/false,
                                   /*trigger_pct=*/20,
                                   /*episodes_per_wf=*/12);
    ASSERT_FALSE(run.trace.result.passed);
    const std::size_t original = run.trace.schedule.size();
    ASSERT_GT(original, 0u);

    ShrinkStats stats;
    EpisodeSchedule shrunk = shrinkRepro(run.trace, {}, &stats);

    EXPECT_EQ(stats.originalEpisodes, original);
    EXPECT_EQ(stats.shrunkEpisodes, shrunk.size());
    EXPECT_GT(stats.probes, 0u);
    EXPECT_GE(stats.replays, stats.probes);
    EXPECT_LE(shrunk.size(), (original + 9) / 10)
        << "shrinker left " << shrunk.size() << " of " << original
        << " episodes";

    TesterResult armed = replayGpuRun(run.trace, shrunk);
    EXPECT_FALSE(armed.passed);
    EXPECT_EQ(armed.failureClass, run.trace.result.failureClass);

    TesterResult disarmed =
        replayGpuRun(run.trace, shrunk, /*arm_fault=*/false);
    EXPECT_TRUE(disarmed.passed)
        << "shrunk repro fails even without the fault: "
        << disarmed.report;

    // The JSON bug report carries the minimized schedule and the
    // Table V-style dump.
    std::string json = reproToJson(run.trace, shrunk, armed);
    EXPECT_NE(json.find("\"fault\":\"LostWriteThrough\""),
              std::string::npos);
    EXPECT_NE(json.find("\"failure_class\":\"ValueMismatch\""),
              std::string::npos);
    EXPECT_NE(json.find("\"schedule\""), std::string::npos);
    EXPECT_NE(json.find("\"report\""), std::string::npos);
}

TEST(Trace, ShrinkerAlsoMinimizesAtomicViolation)
{
    RecordedRun run = recordGolden(CacheSizeClass::Small, 42,
                                   FaultKind::NonAtomicRmw,
                                   /*capture_events=*/false);
    ASSERT_FALSE(run.trace.result.passed);
    ASSERT_EQ(run.trace.result.failureClass,
              FailureClass::AtomicViolation);

    EpisodeSchedule shrunk = shrinkRepro(run.trace);
    EXPECT_LE(shrunk.size(), (run.trace.schedule.size() + 9) / 10);

    TesterResult armed = replayGpuRun(run.trace, shrunk);
    EXPECT_FALSE(armed.passed);
    EXPECT_EQ(armed.failureClass, FailureClass::AtomicViolation);
}

// Chrome-trace export: structurally a Trace Event Format JSON with
// episode slices and message/transition instants.
TEST(Trace, ChromeTraceExport)
{
    RecordedRun run = recordGolden(CacheSizeClass::Small, 9);
    std::string json =
        chromeTraceJson(run.trace.events);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("gpu.l1[0]"), std::string::npos);
}

namespace
{

std::size_t
countSyncEvents(const std::vector<TraceEvent> &events)
{
    std::size_t n = 0;
    for (const TraceEvent &ev : events) {
        if (ev.kind == TraceEventKind::SyncAcquire ||
            ev.kind == TraceEventKind::SyncRelease) {
            ++n;
        }
    }
    return n;
}

} // namespace

// Load compatibility across the whole DRFTRC01 version history: a
// trace saved at any version v1..current loads back with the
// version-appropriate subset (guidance from v2, scope config from v3,
// sync markers from v4) and still replays to the recorded outcome.
TEST(Trace, VersionedSaveLoadCompat)
{
    RecordedRun run = recordGolden(CacheSizeClass::Small, 11,
                                   FaultKind::LostWriteThrough);
    run.trace.presetName = "compat";
    run.trace.guidance = "[{\"round\":0}]";
    const std::size_t sync_events = countSyncEvents(run.trace.events);
    ASSERT_GT(sync_events, 0u);

    for (std::uint32_t v = 1; v <= traceFormatVersion(); ++v) {
        std::stringstream buf;
        ASSERT_TRUE(saveTrace(buf, run.trace, v)) << "version " << v;

        ReproTrace loaded;
        std::uint32_t found = 0;
        ASSERT_EQ(loadTraceStatus(buf, loaded, &found),
                  TraceLoadStatus::Ok)
            << "version " << v;
        EXPECT_EQ(found, v);

        ASSERT_EQ(loaded.schedule.size(), run.trace.schedule.size());
        EXPECT_EQ(loaded.guidance,
                  v >= 2 ? run.trace.guidance : std::string());
        const std::size_t loaded_sync = countSyncEvents(loaded.events);
        EXPECT_EQ(loaded_sync, v >= 4 ? sync_events : 0u)
            << "version " << v;
        // Non-sync streams survive every version.
        EXPECT_EQ(loaded.events.size() - loaded_sync,
                  run.trace.events.size() - sync_events);

        TesterResult replayed = replayGpuRun(loaded);
        EXPECT_EQ(replayed.failureClass, run.trace.result.failureClass)
            << "version " << v;
    }
}

// A file whose header claims a version newer than this build must be
// rejected with the *distinct* FutureVersion status (reported with the
// found version), not the generic corrupt/garbage failure.
TEST(Trace, FutureVersionRejectedDistinctly)
{
    RecordedRun run = recordGolden(CacheSizeClass::Small, 7);
    std::stringstream buf;
    ASSERT_TRUE(saveTrace(buf, run.trace));

    // The version field is the 8 bytes after the 8-byte magic.
    std::string bytes = buf.str();
    ASSERT_GT(bytes.size(), 16u);
    const std::uint32_t future = traceFormatVersion() + 37;
    for (int i = 0; i < 8; ++i)
        bytes[8 + i] = static_cast<char>((std::uint64_t(future) >>
                                          (8 * i)) & 0xff);

    std::stringstream patched(bytes);
    ReproTrace loaded;
    std::uint32_t found = 0;
    EXPECT_EQ(loadTraceStatus(patched, loaded, &found),
              TraceLoadStatus::FutureVersion);
    EXPECT_EQ(found, future);
    EXPECT_STREQ(traceLoadStatusName(TraceLoadStatus::FutureVersion),
                 "FutureVersion");
}

// The status API separates "not a trace" from "truncated trace".
TEST(Trace, LoadStatusDistinguishesFailureModes)
{
    ReproTrace loaded;

    std::stringstream garbage("definitely not a trace");
    EXPECT_EQ(loadTraceStatus(garbage, loaded),
              TraceLoadStatus::BadMagic);

    RecordedRun run = recordGolden(CacheSizeClass::Small, 7);
    std::stringstream buf;
    ASSERT_TRUE(saveTrace(buf, run.trace));
    std::string bytes = buf.str();
    std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
    EXPECT_EQ(loadTraceStatus(truncated, loaded),
              TraceLoadStatus::Corrupt);
}

// A perturbed replay is still deterministic: the same perturbation
// twice gives bit-identical outcomes, and an empty perturbation is
// byte-for-byte the unperturbed replay.
TEST(Trace, PerturbedReplayDeterministic)
{
    RecordedRun run = recordGolden(CacheSizeClass::Small, 9);
    ASSERT_TRUE(run.trace.result.passed);

    SchedulePerturbation none;
    TesterResult base =
        replayGpuRun(run.trace, run.trace.schedule, true, nullptr,
                     &none);
    EXPECT_EQ(base.ticks, run.trace.result.ticks);

    SchedulePerturbation delay;
    delay.add(run.trace.schedule.episodes.front().id, 500);
    TesterResult p1 = replayGpuRun(run.trace, run.trace.schedule, true,
                                   nullptr, &delay);
    TesterResult p2 = replayGpuRun(run.trace, run.trace.schedule, true,
                                   nullptr, &delay);
    EXPECT_EQ(p1.ticks, p2.ticks);
    EXPECT_EQ(p1.failureClass, p2.failureClass);
    EXPECT_EQ(p1.report, p2.report);
    // The delay really steered the run into a different interleaving.
    EXPECT_NE(p1.ticks, base.ticks);
}

// ShrinkGoldens: the shrinker's exact choices, pinned. Each case
// digests the shrunk schedule's episode ids together with the probe
// accounting, so any change to which candidates ddmin probes, in which
// order, or which one it commits shows up as a digest mismatch. The
// four faults are the bughunt set; the budget-cut cases stop the
// search part-way through a granularity step and through the polish.
namespace
{

std::uint64_t
shrinkDigest(const ReproTrace &trace, std::size_t max_probes)
{
    ShrinkOptions opts;
    opts.maxProbes = max_probes;
    ShrinkStats stats;
    EpisodeSchedule shrunk = shrinkRepro(trace, opts, &stats);
    EXPECT_EQ(stats.shrunkEpisodes, shrunk.size());

    Digest d;
    d.u64(shrunk.size());
    for (const Episode &e : shrunk.episodes)
        d.u64(e.id);
    d.u64(stats.probes);
    d.u64(stats.improvements);
    d.u64(stats.shrunkEpisodes);
    d.u64(stats.probeBudgetExhausted ? 1 : 0);
    return d.value();
}

// Captured from the serial shrinker. Two of them are checked twice.
constexpr std::uint64_t kShrinkLostWriteThrough = 0xb1f8f0f11b703c96ull;
constexpr std::uint64_t kShrinkBudget17 = 0x6b0c867b5b65a357ull;

/** A failing recording of @p fault at a 20% trigger, 12 episodes/WF. */
ReproTrace
failingTrace(CacheSizeClass cache_class, std::uint64_t seed,
             FaultKind fault)
{
    RecordedRun run = recordGolden(cache_class, seed, fault,
                                   /*capture_events=*/false,
                                   /*trigger_pct=*/20,
                                   /*episodes_per_wf=*/12);
    EXPECT_FALSE(run.trace.result.passed);
    return run.trace;
}

} // namespace

TEST(ShrinkGoldens, LostWriteThroughSmall)
{
    ReproTrace trace = failingTrace(CacheSizeClass::Small, 42,
                                    FaultKind::LostWriteThrough);
    checkGolden("ShrinkGoldens.LostWriteThroughSmall",
                shrinkDigest(trace, ShrinkOptions{}.maxProbes),
                kShrinkLostWriteThrough);
}

TEST(ShrinkGoldens, NonAtomicRmwSmall)
{
    ReproTrace trace = failingTrace(CacheSizeClass::Small, 42,
                                    FaultKind::NonAtomicRmw);
    checkGolden("ShrinkGoldens.NonAtomicRmwSmall",
                shrinkDigest(trace, ShrinkOptions{}.maxProbes),
                0xcf526c8147d14733ull);
}

TEST(ShrinkGoldens, DropWriteAckSmall)
{
    ReproTrace trace = failingTrace(CacheSizeClass::Small, 42,
                                    FaultKind::DropWriteAck);
    checkGolden("ShrinkGoldens.DropWriteAckSmall",
                shrinkDigest(trace, ShrinkOptions{}.maxProbes),
                0x0a8ee2862b217405ull);
}

TEST(ShrinkGoldens, DropAcquireInvalidateLarge)
{
    ReproTrace trace = failingTrace(CacheSizeClass::Large, 7,
                                    FaultKind::DropAcquireInvalidate);
    checkGolden("ShrinkGoldens.DropAcquireInvalidateLarge",
                shrinkDigest(trace, ShrinkOptions{}.maxProbes),
                0x3c60266cd0a223f6ull);
}

// The candidates of a ddmin step are replayed concurrently; the pinned
// digests must come out the same when the shrink pool has one thread.
TEST(ShrinkGoldens, OneThreadMatchesGoldens)
{
    ReproTrace lost = failingTrace(CacheSizeClass::Small, 42,
                                   FaultKind::LostWriteThrough);
    ReproTrace rmw = failingTrace(CacheSizeClass::Small, 42,
                                  FaultKind::NonAtomicRmw);
    runPinnedToOneCpu([&] {
        checkGolden("ShrinkGoldens.LostWriteThroughSmall",
                    shrinkDigest(lost, ShrinkOptions{}.maxProbes),
                    kShrinkLostWriteThrough);
        checkGolden("ShrinkGoldens.Budget17", shrinkDigest(rmw, 17),
                    kShrinkBudget17);
    });
}

TEST(ShrinkGoldens, BudgetCuts)
{
    // 61 episodes: budgets 1 and 5 end inside the first granularity
    // steps.
    ReproTrace lost = failingTrace(CacheSizeClass::Small, 42,
                                   FaultKind::LostWriteThrough);
    checkGolden("ShrinkGoldens.Budget1", shrinkDigest(lost, 1),
                0x882684ca9b5d4eb9ull);
    checkGolden("ShrinkGoldens.Budget5", shrinkDigest(lost, 5),
                0x25105d540874247aull);
    // 8 episodes: ddmin is done after 14 probes, so budget 17 ends
    // among the polish pass's single-episode subsets.
    ReproTrace rmw = failingTrace(CacheSizeClass::Small, 42,
                                  FaultKind::NonAtomicRmw);
    checkGolden("ShrinkGoldens.Budget17", shrinkDigest(rmw, 17),
                kShrinkBudget17);
}
