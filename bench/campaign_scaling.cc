/**
 * @file
 * Campaign throughput vs. worker-thread count, and the event-queue
 * hot-path overhaul measured against the original implementation.
 *
 * Two experiments, both written to BENCH_campaign.json:
 *
 *  1. queue: the schedule+run microbench (the same 1000-event pattern
 *     as micro_throughput's BM_EventQueueScheduleRun) on the legacy
 *     std::function queue and on the current inline-event queue —
 *     events/sec before and after, and the improvement.
 *
 *  2. scaling: a 32-seed campaign of a small GPU preset, run serially
 *     (jobs=1) and at increasing worker counts — wall seconds and
 *     speedup per thread count. Speedup tracks the host's physical
 *     parallelism; hardware_concurrency is recorded alongside so a
 *     single-core CI box reporting ~1x is interpretable.
 *
 * Usage: campaign_scaling [--seeds N] [--out FILE]
 *                         [--actions N] [--episodes-per-wf N]
 *                         [--atomic-locs N] [--coloc-density D]
 *                         [--protocol viper|lrcc]
 *                         [--scope-mode none|scoped]
 *
 * The generator knobs override the scaling preset's episode shape
 * (defaults: 30 actions, 4 episodes/WF, 10 atomic locations, and the
 * fixed 16 KB address range unless a co-location density is given).
 * --protocol selects the L1 coherence protocol variant and --scope-mode
 * the episode synchronization-scope discipline, so the scaling numbers
 * can be read per protocol/scope matrix cell; the emitted JSON records
 * the protocol so the regression gate never compares across variants.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "campaign/campaign_json.hh"
#include "guidance/adaptive_campaign.hh"
#include "guidance/genome.hh"
#include "mem/scope.hh"
#include "sim/event_queue.hh"
#include "sim/legacy_event_queue.hh"

using namespace drf;
using namespace drf::bench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One schedule+run round of the micro_throughput queue pattern. */
template <typename Queue>
std::uint64_t
queueRound()
{
    Queue eq;
    std::uint64_t sink = 0;
    for (int i = 0; i < 1000; ++i)
        eq.schedule(static_cast<Tick>(i % 97), [&sink] { ++sink; });
    eq.run();
    return sink;
}

struct QueueBench
{
    double eventsPerSec = 0.0;
    std::uint64_t events = 0;
};

/** Run rounds for ~0.4 s and report sustained events/sec. */
template <typename Queue>
QueueBench
benchQueue()
{
    // Warm up allocator and caches.
    std::uint64_t sink = 0;
    for (int i = 0; i < 50; ++i)
        sink += queueRound<Queue>();
    if (sink != 50u * 1000u)
        std::fprintf(stderr, "queue warmup miscounted: %llu\n",
                     (unsigned long long)sink);

    QueueBench bench;
    Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    while (elapsed < 0.4) {
        for (int i = 0; i < 100; ++i)
            bench.events += queueRound<Queue>();
        elapsed = secondsSince(start);
    }
    bench.eventsPerSec = static_cast<double>(bench.events) / elapsed;
    return bench;
}

/** Generator knobs overridable from the command line. */
struct GenKnobs
{
    unsigned actions = 30;
    unsigned episodesPerWf = 4;
    unsigned atomicLocs = 10;
    double colocDensity = 0.0; ///< 0 = keep the fixed 16 KB range
    ProtocolKind protocol = ProtocolKind::Viper;
    ScopeMode scopeMode = ScopeMode::None;
};

/** The 32-seed campaign workload: small caches, short episodes. */
GpuTestPreset
scalingPreset(const GenKnobs &knobs)
{
    GpuTestPreset preset;
    preset.name = "scaling";
    preset.cacheClass = CacheSizeClass::Small;
    preset.system = makeGpuSystemConfig(CacheSizeClass::Small, 4);
    preset.system.l1.protocol = knobs.protocol;
    preset.tester = makeGpuTesterConfig(knobs.actions,
                                        knobs.episodesPerWf,
                                        knobs.atomicLocs, /*seed=*/1);
    preset.tester.scopeMode = knobs.scopeMode;
    preset.tester.lanes = 8;
    preset.tester.episodeGen.lanes = 8;
    preset.tester.variables.numNormalVars = 512;
    preset.tester.variables.addrRangeBytes =
        knobs.colocDensity > 0.0
            ? addrRangeForDensity(preset.tester.variables.numSyncVars +
                                      preset.tester.variables.numNormalVars,
                                  knobs.colocDensity,
                                  preset.tester.variables.lineBytes,
                                  preset.tester.variables.varBytes)
            : 1 << 14;
    return preset;
}

std::uint64_t
parseArg(int argc, char **argv, const std::string &flag,
         std::uint64_t fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (argv[i] == flag)
            return std::strtoull(argv[i + 1], nullptr, 10);
    }
    return fallback;
}

double
parseArgD(int argc, char **argv, const std::string &flag, double fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (argv[i] == flag)
            return std::strtod(argv[i + 1], nullptr);
    }
    return fallback;
}

std::string
parseOut(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--out")
            return argv[i + 1];
    }
    return "BENCH_campaign.json";
}

std::string
parseArgS(int argc, char **argv, const std::string &flag,
          const std::string &fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (argv[i] == flag)
            return argv[i + 1];
    }
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t num_seeds =
        static_cast<std::size_t>(parseArg(argc, argv, "--seeds", 32));
    GenKnobs knobs;
    knobs.actions =
        unsigned(parseArg(argc, argv, "--actions", knobs.actions));
    knobs.episodesPerWf = unsigned(
        parseArg(argc, argv, "--episodes-per-wf", knobs.episodesPerWf));
    knobs.atomicLocs = unsigned(
        parseArg(argc, argv, "--atomic-locs", knobs.atomicLocs));
    knobs.colocDensity =
        parseArgD(argc, argv, "--coloc-density", knobs.colocDensity);
    if (std::optional<ProtocolKind> p = parseProtocolKind(
            parseArgS(argc, argv, "--protocol", "viper"))) {
        knobs.protocol = *p;
    } else {
        std::fprintf(stderr, "--protocol must be viper or lrcc\n");
        return 2;
    }
    if (std::optional<ScopeMode> m = parseScopeMode(
            parseArgS(argc, argv, "--scope-mode", "none"))) {
        knobs.scopeMode = *m;
    } else {
        std::fprintf(stderr,
                     "--scope-mode must be none, scoped or racy\n");
        return 2;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    const std::string cpu_model = hostCpuModel();

    std::printf("Campaign scaling + event-queue overhaul benchmark\n");
    std::printf("hardware_concurrency: %u\n", hw);
    std::printf("cpu_model: %s\n\n", cpu_model.c_str());

    // --- 1. Event queue before/after -------------------------------
    QueueBench legacy = benchQueue<LegacyEventQueue>();
    QueueBench current = benchQueue<EventQueue>();
    double queue_improvement =
        legacy.eventsPerSec > 0.0
            ? (current.eventsPerSec / legacy.eventsPerSec - 1.0) * 100.0
            : 0.0;

    std::printf("event queue (schedule+run, 1000 events/round):\n");
    std::printf("  legacy (std::function): %12.0f events/s\n",
                legacy.eventsPerSec);
    std::printf("  current (inline event): %12.0f events/s\n",
                current.eventsPerSec);
    std::printf("  improvement:            %+11.1f%%\n\n",
                queue_improvement);

    // --- 2. Campaign scaling ---------------------------------------
    std::vector<unsigned> thread_counts{1, 2, 4};
    if (hw > 4)
        thread_counts.push_back(hw);

    struct ScalePoint
    {
        unsigned jobs = 0;
        double wallSeconds = 0.0;
        double speedup = 0.0;
        double episodesPerSec = 0.0;
        double eventsPerSec = 0.0;
        bool scalingValid = false;
    };
    std::vector<ScalePoint> points;
    std::string campaign_json;
    double serial_wall = 0.0;

    std::printf("campaign: %zu seeds of the small-cache preset\n",
                num_seeds);
    for (unsigned jobs : thread_counts) {
        if (hw != 0 && jobs > hw) {
            std::fprintf(stderr,
                         "WARNING: jobs=%u exceeds "
                         "hardware_concurrency=%u -- threads will be "
                         "oversubscribed and the speedup for this point "
                         "is not meaningful\n",
                         jobs, hw);
        }
        CampaignConfig cfg;
        cfg.jobs = jobs;
        CampaignResult res = runCampaign(
            gpuSeedSweep(scalingPreset(knobs), 1, num_seeds), cfg);
        if (!res.passed) {
            std::fprintf(stderr, "campaign FAILED at jobs=%u: %s\n",
                         jobs,
                         res.firstFailure ? res.firstFailure->report.c_str()
                                          : "?");
            return 1;
        }
        if (res.shardsRun != res.shardsPlanned) {
            std::fprintf(stderr,
                         "campaign INCOMPLETE at jobs=%u: ran %zu of "
                         "%zu shards\n",
                         jobs, res.shardsRun, res.shardsPlanned);
            return 1;
        }
        if (jobs == 1) {
            serial_wall = res.wallSeconds;
            campaign_json = campaignToJson(res, "gpu_tester");
        }

        ScalePoint p;
        p.jobs = res.jobs;
        p.wallSeconds = res.wallSeconds;
        p.speedup =
            res.wallSeconds > 0.0 ? serial_wall / res.wallSeconds : 0.0;
        p.episodesPerSec = res.episodesPerSec;
        p.eventsPerSec = res.eventsPerSec;
        // A speedup number only means something when the host has slack
        // beyond the worker count (SMT siblings and background load eat
        // into anything tighter). Gates must skip speedup -- but keep
        // gating events/s -- when this is false.
        p.scalingValid = hw != 0 && hw >= 2 * jobs;
        points.push_back(p);
        std::printf("  jobs=%-3u wall %7.3f s  speedup %5.2fx  "
                    "%10.0f events/s\n",
                    p.jobs, p.wallSeconds, p.speedup, p.eventsPerSec);
    }

    // --- JSON ------------------------------------------------------
    JsonWriter w;
    w.beginObject();
    w.key("bench").value("campaign_scaling");
    w.key("hardware_concurrency").value(hw);
    jsonProvenance(w, knobs.protocol);
    w.key("scope_mode").value(scopeModeName(knobs.scopeMode));
    w.key("num_seeds").value(static_cast<std::uint64_t>(num_seeds));

    w.key("event_queue").beginObject();
    w.key("pattern").value("schedule+run, 1000 events/round");
    w.key("legacy_events_per_sec").value(legacy.eventsPerSec);
    w.key("current_events_per_sec").value(current.eventsPerSec);
    w.key("improvement_pct").value(queue_improvement);
    w.endObject();

    w.key("scaling").beginArray();
    for (const ScalePoint &p : points) {
        w.beginObject();
        w.key("jobs").value(p.jobs);
        w.key("wall_seconds").value(p.wallSeconds);
        w.key("speedup_vs_serial").value(p.speedup);
        w.key("episodes_per_sec").value(p.episodesPerSec);
        w.key("events_per_sec").value(p.eventsPerSec);
        w.key("scaling_valid").value(p.scalingValid);
        w.endObject();
    }
    w.endArray();

    w.key("serial_campaign").raw(campaign_json);
    w.endObject();

    writeFileReport(parseOut(argc, argv), w.str());

    double best = 0.0;
    for (const ScalePoint &p : points)
        best = std::max(best, p.speedup);
    std::printf("\nbest speedup: %.2fx at %u hardware thread(s) "
                "(>=3x expected on 4+ cores)\n",
                best, hw);
    return 0;
}
