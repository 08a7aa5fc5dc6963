/**
 * @file
 * Record / replay / shrink / export driver for failure reproductions.
 *
 * Subcommands:
 *
 *   record  --out t.trace [--cache C] [--seed N] [--fault F]
 *           [--trigger-pct P] [--episodes N] [--actions N]
 *           [--atomic-locs N] [--coloc-density D] [--cus N] [--events]
 *       Run the configured GPU tester once, recording the episode
 *       schedule (and, with --events, the binary event trace) to a
 *       self-contained trace file.
 *
 *   replay  --in t.trace
 *       Re-execute the recorded schedule on a fresh system and verify
 *       the outcome matches the recording bit for bit (pass/fail,
 *       failure class, report text, final tick). Exit 0 on an exact
 *       reproduction.
 *
 *   shrink  --in t.trace [--out-trace min.trace] [--out-json r.json]
 *           [--max-probes N]
 *       ddmin-minimize a failing trace's episode schedule and write the
 *       minimized trace plus the JSON bug report.
 *
 *   export  --in t.trace --out t.json
 *       Render the recorded binary event trace as Chrome-trace JSON
 *       (chrome://tracing, Perfetto, speedscope).
 *
 *   fuzz    --out-dir DIR [--seeds N] [--trigger-pct P]
 *           [--strategy random|guided] [generator knobs as for record]
 *       The nightly CI job: sweep every FaultKind over a multi-seed
 *       campaign, assert each injected bug is detected, shrink each
 *       episode-detectable failure, and leave one trace + JSON repro
 *       per fault in DIR. With --strategy guided the seeds for each
 *       fault come from a coverage-guided adaptive campaign
 *       (src/guidance/) instead of a linear seed sweep, and each
 *       written trace embeds the scheduler's decision log in its
 *       header. DropGpuProbe is exercised through the directed
 *       protocol scenario. Exit 0 only if every fault was caught and
 *       every shrink preserved the failure class.
 *
 *   scoped  --out-dir DIR [--protocol viper|lrcc] [--seeds N]
 *           [generator knobs as for record]
 *       The nightly scoped-synchronization arm. Two legs on the
 *       selected protocol, no protocol fault armed:
 *        - positive control: every seed generated under the scoped
 *          discipline (ScopeMode::Scoped, random CTA/GPU scope per
 *          episode) must pass — a correct protocol must never fail a
 *          scoped-DRF-clean schedule;
 *        - racy leg: seeds generated with the scope discipline
 *          deliberately skipped (ScopeMode::Racy) until at least one
 *          run fails with FailureClass::ScopeViolation; the failing
 *          schedule is shrunk and written as DIR/<protocol>-racy
 *          trace + minimized trace + JSON repro.
 *       Exit 0 only if the control leg stayed green and the racy leg
 *       found and shrank a scope violation.
 *
 * record and fuzz also accept --protocol (L1 protocol variant) and
 * record accepts --scope-mode none|scoped|racy; both are stamped into
 * the DRFTRC01 v3 header so replay and shrink reproduce them exactly.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign_json.hh"
#include "guidance/adaptive_campaign.hh"
#include "mem/scope.hh"
#include "proto/fault.hh"
#include "proto/protocol_kind.hh"
#include "tester/configs.hh"
#include "tester/scenarios.hh"
#include "tester/tester_failure.hh"
#include "predict/predict.hh"
#include "trace/chrome_trace.hh"
#include "trace/repro.hh"
#include "trace/shrink.hh"
#include "trace/trace_file.hh"

using namespace drf;

namespace
{

struct Args
{
    std::string in;
    std::string out;
    std::string outTrace;
    std::string outJson;
    std::string outDir;
    std::string cache = "small";
    std::string fault = "None";
    std::string strategy = "random";
    std::string protocol = "viper";
    std::string scopeMode = "none";
    std::uint64_t seed = 1;
    unsigned triggerPct = 100;
    unsigned episodes = 10;
    unsigned actions = 30;
    unsigned atomicLocs = 10;
    double colocDensity = 0.0; ///< 0 = keep the fixed tool range
    unsigned cus = 4;
    unsigned seeds = 8;
    std::size_t maxProbes = 2000;
    bool events = false;
    unsigned predictProbes = 8;      ///< delay-ladder depth (predict)
    unsigned expectConfirmedMin = 0; ///< gate: min confirmed races
};

std::optional<std::string>
argValue(int argc, char **argv, int &i, const char *flag)
{
    if (std::strcmp(argv[i], flag) != 0)
        return std::nullopt;
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
    }
    return std::string(argv[++i]);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 2; i < argc; ++i) {
        if (auto v = argValue(argc, argv, i, "--in"))
            a.in = *v;
        else if (auto v = argValue(argc, argv, i, "--out"))
            a.out = *v;
        else if (auto v = argValue(argc, argv, i, "--out-trace"))
            a.outTrace = *v;
        else if (auto v = argValue(argc, argv, i, "--out-json"))
            a.outJson = *v;
        else if (auto v = argValue(argc, argv, i, "--out-dir"))
            a.outDir = *v;
        else if (auto v = argValue(argc, argv, i, "--cache"))
            a.cache = *v;
        else if (auto v = argValue(argc, argv, i, "--fault"))
            a.fault = *v;
        else if (auto v = argValue(argc, argv, i, "--seed"))
            a.seed = std::strtoull(v->c_str(), nullptr, 10);
        else if (auto v = argValue(argc, argv, i, "--trigger-pct"))
            a.triggerPct = unsigned(std::strtoul(v->c_str(), nullptr, 10));
        else if (auto v = argValue(argc, argv, i, "--episodes"))
            a.episodes = unsigned(std::strtoul(v->c_str(), nullptr, 10));
        else if (auto v = argValue(argc, argv, i, "--actions"))
            a.actions = unsigned(std::strtoul(v->c_str(), nullptr, 10));
        else if (auto v = argValue(argc, argv, i, "--atomic-locs"))
            a.atomicLocs = unsigned(std::strtoul(v->c_str(), nullptr, 10));
        else if (auto v = argValue(argc, argv, i, "--coloc-density"))
            a.colocDensity = std::strtod(v->c_str(), nullptr);
        else if (auto v = argValue(argc, argv, i, "--strategy"))
            a.strategy = *v;
        else if (auto v = argValue(argc, argv, i, "--protocol"))
            a.protocol = *v;
        else if (auto v = argValue(argc, argv, i, "--scope-mode"))
            a.scopeMode = *v;
        else if (auto v = argValue(argc, argv, i, "--cus"))
            a.cus = unsigned(std::strtoul(v->c_str(), nullptr, 10));
        else if (auto v = argValue(argc, argv, i, "--seeds"))
            a.seeds = unsigned(std::strtoul(v->c_str(), nullptr, 10));
        else if (auto v = argValue(argc, argv, i, "--max-probes"))
            a.maxProbes = std::strtoull(v->c_str(), nullptr, 10);
        else if (auto v = argValue(argc, argv, i, "--predict-probes"))
            a.predictProbes =
                unsigned(std::strtoul(v->c_str(), nullptr, 10));
        else if (auto v =
                     argValue(argc, argv, i, "--expect-confirmed-min"))
            a.expectConfirmedMin =
                unsigned(std::strtoul(v->c_str(), nullptr, 10));
        else if (std::strcmp(argv[i], "--events") == 0)
            a.events = true;
        else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            std::exit(2);
        }
    }
    return a;
}

CacheSizeClass
parseCache(const std::string &name)
{
    if (name == "small")
        return CacheSizeClass::Small;
    if (name == "large")
        return CacheSizeClass::Large;
    if (name == "mixed")
        return CacheSizeClass::Mixed;
    std::fprintf(stderr, "unknown cache class: %s\n", name.c_str());
    std::exit(2);
}

FaultKind
parseFault(const std::string &name)
{
    if (std::optional<FaultKind> kind = parseFaultKind(name))
        return *kind;
    std::fprintf(stderr, "unknown fault kind: %s\n", name.c_str());
    std::exit(2);
}

ProtocolKind
parseProtocolArg(const std::string &name)
{
    if (std::optional<ProtocolKind> kind = parseProtocolKind(name))
        return *kind;
    std::fprintf(stderr, "unknown protocol: %s\n", name.c_str());
    std::exit(2);
}

ScopeMode
parseScopeModeArg(const std::string &name)
{
    if (std::optional<ScopeMode> mode = parseScopeMode(name))
        return *mode;
    std::fprintf(stderr, "unknown scope mode: %s\n", name.c_str());
    std::exit(2);
}

/**
 * The tester preset every tool run uses: the golden test shape by
 * default, with the generator knobs (--actions, --episodes,
 * --atomic-locs, --coloc-density) overridable from the command line.
 */
GpuTesterConfig
toolTesterConfig(const Args &a, std::uint64_t seed)
{
    GpuTesterConfig cfg = makeGpuTesterConfig(a.actions, a.episodes,
                                              a.atomicLocs, seed);
    cfg.lanes = 8;
    cfg.episodeGen.lanes = 8;
    cfg.wfsPerCu = 2;
    cfg.variables.numNormalVars = 512;
    cfg.variables.addrRangeBytes =
        a.colocDensity > 0.0
            ? addrRangeForDensity(cfg.variables.numSyncVars +
                                      cfg.variables.numNormalVars,
                                  a.colocDensity,
                                  cfg.variables.lineBytes,
                                  cfg.variables.varBytes)
            : 1 << 14;
    return cfg;
}

ReproTrace
loadOrDie(const std::string &path)
{
    ReproTrace trace;
    if (path.empty()) {
        std::fprintf(stderr, "--in is required\n");
        std::exit(2);
    }
    std::uint32_t found = 0;
    switch (loadTraceFileStatus(path, trace, &found)) {
      case TraceLoadStatus::Ok:
        return trace;
      case TraceLoadStatus::Unreadable:
        std::fprintf(stderr, "failed to open trace: %s\n", path.c_str());
        break;
      case TraceLoadStatus::BadMagic:
        std::fprintf(stderr, "not a DRFTRC01 trace: %s\n", path.c_str());
        break;
      case TraceLoadStatus::FutureVersion:
        std::fprintf(stderr,
                     "trace %s has DRFTRC01 format version %u, newer "
                     "than this build supports (max %u) — rerecord it "
                     "or upgrade this tool\n",
                     path.c_str(), found, traceFormatVersion());
        break;
      case TraceLoadStatus::Corrupt:
        std::fprintf(stderr,
                     "failed to load trace (corrupt or truncated): %s\n",
                     path.c_str());
        break;
    }
    std::exit(1);
}

bool
writeText(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    out << content << "\n";
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
}

int
cmdRecord(const Args &a)
{
    if (a.out.empty()) {
        std::fprintf(stderr, "record: --out is required\n");
        return 2;
    }
    ApuSystemConfig sys = makeGpuSystemConfig(parseCache(a.cache), a.cus);
    sys.fault = parseFault(a.fault);
    sys.faultTriggerPct = a.triggerPct;
    sys.l1.protocol = parseProtocolArg(a.protocol);

    GpuTesterConfig tester = toolTesterConfig(a, a.seed);
    tester.scopeMode = parseScopeModeArg(a.scopeMode);

    RecordOptions opts;
    opts.captureEvents = a.events;
    ReproTrace trace = recordGpuRun(sys, tester, opts);
    trace.presetName = a.cache + "/seed" + std::to_string(a.seed) + "/" +
                       a.fault;

    std::printf("run %s: %zu episodes, %llu ticks, %s\n",
                trace.result.passed ? "PASSED" : "FAILED",
                trace.schedule.size(),
                (unsigned long long)trace.result.ticks,
                failureClassName(trace.result.failureClass));
    if (!saveTraceFile(a.out, trace)) {
        std::fprintf(stderr, "failed to write %s\n", a.out.c_str());
        return 1;
    }
    std::printf("wrote %s\n", a.out.c_str());
    return 0;
}

int
cmdReplay(const Args &a)
{
    ReproTrace trace = loadOrDie(a.in);
    TesterResult replayed = replayGpuRun(trace);

    bool identical = replayed.passed == trace.result.passed &&
                     replayed.failureClass == trace.result.failureClass &&
                     replayed.report == trace.result.report &&
                     replayed.ticks == trace.result.ticks;
    std::printf("recorded: %s (%s) at tick %llu\n",
                trace.result.passed ? "PASSED" : "FAILED",
                failureClassName(trace.result.failureClass),
                (unsigned long long)trace.result.ticks);
    std::printf("replayed: %s (%s) at tick %llu\n",
                replayed.passed ? "PASSED" : "FAILED",
                failureClassName(replayed.failureClass),
                (unsigned long long)replayed.ticks);
    std::printf("replay is %s\n",
                identical ? "bit-identical to the recording"
                          : "DIFFERENT from the recording");
    return identical ? 0 : 1;
}

int
cmdShrink(const Args &a)
{
    ReproTrace trace = loadOrDie(a.in);
    if (trace.result.passed) {
        std::fprintf(stderr, "trace recorded a passing run; nothing to "
                             "shrink\n");
        return 1;
    }

    ShrinkOptions opts;
    opts.maxProbes = a.maxProbes;
    opts.progress = [](std::size_t probes, std::size_t best) {
        if (probes % 50 == 0)
            std::printf("  ... %zu probes, best %zu episodes\n", probes,
                        best);
    };
    ShrinkStats stats;
    EpisodeSchedule shrunk = shrinkRepro(trace, opts, &stats);

    // Useful-work ratio: probes per replay run (ShrinkStats::replays).
    std::printf("shrink: %zu -> %zu episodes (%zu probes, %zu replays, "
                "%.2f useful, %zu improvements, %.2f s%s)\n",
                stats.originalEpisodes, stats.shrunkEpisodes,
                stats.probes, stats.replays,
                stats.replays != 0
                    ? double(stats.probes) / double(stats.replays)
                    : 1.0,
                stats.improvements, stats.seconds,
                stats.probeBudgetExhausted ? ", probe budget exhausted"
                                           : "");

    TesterResult replayed = replayGpuRun(trace, shrunk);
    if (replayed.passed ||
        replayed.failureClass != trace.result.failureClass) {
        std::fprintf(stderr, "minimized schedule does not reproduce the "
                             "failure class\n");
        return 1;
    }

    int rc = 0;
    if (!a.outTrace.empty()) {
        ReproTrace minimized = trace;
        minimized.schedule = shrunk;
        minimized.result = replayed;
        minimized.events.clear();
        if (saveTraceFile(a.outTrace, minimized))
            std::printf("wrote %s\n", a.outTrace.c_str());
        else
            rc = 1;
    }
    if (!a.outJson.empty() &&
        !writeText(a.outJson, reproToJson(trace, shrunk, replayed)))
        rc = 1;
    return rc;
}

int
cmdExport(const Args &a)
{
    ReproTrace trace = loadOrDie(a.in);
    if (a.out.empty()) {
        std::fprintf(stderr, "export: --out is required\n");
        return 2;
    }
    if (trace.events.empty()) {
        std::fprintf(stderr, "trace has no event records (re-record "
                             "with --events)\n");
        return 1;
    }
    return writeText(a.out, chromeTraceJson(trace.events)) ? 0 : 1;
}

/** One fuzz sweep entry: find a seed that exposes the fault. */
struct FuzzOutcome
{
    FaultKind fault = FaultKind::None;
    bool detected = false;
    bool shrunk = false;
    std::uint64_t seed = 0;
    std::size_t originalEpisodes = 0;
    std::size_t shrunkEpisodes = 0;
    FailureClass failureClass = FailureClass::None;
};

/**
 * Shrink a failing fuzz trace and write its artifacts to
 * @p base .trace, .min.trace and .repro.json.
 */
void
shrinkAndSave(const Args &a, const std::string &base, ReproTrace &trace,
              FuzzOutcome &out)
{
    out.detected = true;
    out.failureClass = trace.result.failureClass;
    out.originalEpisodes = trace.schedule.size();

    ShrinkOptions opts;
    opts.maxProbes = a.maxProbes;
    ShrinkStats stats;
    EpisodeSchedule shrunk = shrinkRepro(trace, opts, &stats);
    TesterResult replayed = replayGpuRun(trace, shrunk);
    out.shrunk = !replayed.passed &&
                 replayed.failureClass == trace.result.failureClass;
    out.shrunkEpisodes = shrunk.size();

    ReproTrace minimized = trace;
    minimized.schedule = shrunk;
    minimized.result = replayed;
    if (saveTraceFile(base + ".trace", trace))
        std::printf("wrote %s.trace\n", base.c_str());
    if (saveTraceFile(base + ".min.trace", minimized))
        std::printf("wrote %s.min.trace\n", base.c_str());
    writeText(base + ".repro.json", reproToJson(trace, shrunk, replayed));
}

int
cmdFuzz(const Args &a)
{
    if (a.outDir.empty()) {
        std::fprintf(stderr, "fuzz: --out-dir is required\n");
        return 2;
    }
    std::optional<Strategy> strategy = parseStrategy(a.strategy);
    if (!strategy || *strategy == Strategy::Sweep) {
        std::fprintf(stderr, "fuzz: --strategy must be random or "
                             "guided\n");
        return 2;
    }

    struct Entry
    {
        FaultKind fault;
        CacheSizeClass cache;
    };
    // DropAcquireInvalidate needs the large caches: small L1s evict
    // fast enough that natural replacement masks a swallowed
    // flash-invalidate.
    const std::vector<Entry> entries = {
        {FaultKind::LostWriteThrough, CacheSizeClass::Small},
        {FaultKind::NonAtomicRmw, CacheSizeClass::Small},
        {FaultKind::DropAcquireInvalidate, CacheSizeClass::Large},
        {FaultKind::DropWriteAck, CacheSizeClass::Small},
    };

    std::vector<FuzzOutcome> outcomes;
    for (const Entry &entry : entries) {
        FuzzOutcome out;
        out.fault = entry.fault;
        const std::string artifacts =
            a.outDir + "/" + faultKindName(entry.fault);

        if (*strategy == Strategy::Guided) {
            // Coverage-guided seed search: the scheduler explores a
            // small arm neighborhood of the tool shape, the armed fault
            // campaign-wide, until a shard fails or the budget is out.
            ConfigGenome base;
            base.cacheClass = entry.cache;
            base.protocol = parseProtocolArg(a.protocol);
            base.actionsPerEpisode = a.actions;
            base.episodesPerWf = a.episodes;
            base.atomicLocs = a.atomicLocs;
            base.colocDensity =
                colocDensityOf(toolTesterConfig(a, 1).variables);
            base.numCus = a.cus;

            ConfigGenome more_episodes = base;
            more_episodes.episodesPerWf = base.episodesPerWf * 2;
            ConfigGenome more_actions = base;
            more_actions.actionsPerEpisode = base.actionsPerEpisode * 2;

            SourceConfig scfg;
            scfg.arms = {base, more_episodes, more_actions};
            scfg.scale.lanes = 8;
            scfg.scale.wfsPerCu = 2;
            scfg.scale.numNormalVars = 512;
            scfg.scale.fault = entry.fault;
            scfg.scale.faultTriggerPct = a.triggerPct;
            scfg.masterSeed = 1;
            scfg.batchSize = 2;
            scfg.maxShards = a.seeds;
            GuidedSource source(scfg);

            AdaptiveCampaignResult res = runAdaptiveCampaign(source);
            if (res.firstFailure && res.failurePreset) {
                out.seed = res.firstFailure->seed;
                // Re-record the failing shard's exact preset so the
                // trace is self-contained, and stamp the scheduler's
                // decision log into the v2 header.
                ReproTrace trace = recordGpuRun(*res.failurePreset);
                trace.guidance = guidanceDecisionsJson(res.decisions);
                if (!trace.result.passed)
                    shrinkAndSave(a, artifacts, trace, out);
            }
        } else {
            for (std::uint64_t seed = 1;
                 seed <= a.seeds && !out.detected; ++seed) {
                ApuSystemConfig sys =
                    makeGpuSystemConfig(entry.cache, a.cus);
                sys.fault = entry.fault;
                sys.faultTriggerPct = a.triggerPct;
                sys.l1.protocol = parseProtocolArg(a.protocol);
                ReproTrace trace =
                    recordGpuRun(sys, toolTesterConfig(a, seed));
                if (trace.result.passed)
                    continue;
                out.seed = seed;
                trace.presetName =
                    std::string(faultKindName(entry.fault)) + "/seed" +
                    std::to_string(seed);
                shrinkAndSave(a, artifacts, trace, out);
            }
        }
        outcomes.push_back(out);
    }

    // DropGpuProbe: the directed CPU+GPU scenario, with a control arm.
    {
        FuzzOutcome out;
        out.fault = FaultKind::DropGpuProbe;
        ProbeScenarioResult bugged =
            runDropGpuProbeScenario(FaultKind::DropGpuProbe);
        ProbeScenarioResult clean =
            runDropGpuProbeScenario(FaultKind::None);
        out.detected = bugged.completed && bugged.staleObserved &&
                       clean.completed && !clean.staleObserved;
        out.shrunk = out.detected; // the scenario is already minimal
        out.failureClass = FailureClass::ValueMismatch;

        JsonWriter w;
        w.beginObject();
        w.key("fault").value(faultKindName(FaultKind::DropGpuProbe));
        w.key("scenario").value("directed cpu-store/gpu-reload");
        w.key("stale_observed").value(bugged.staleObserved);
        w.key("control_clean").value(!clean.staleObserved);
        w.key("cpu_store_value").value(bugged.cpuStoreValue);
        w.key("gpu_reload_value").value(bugged.gpuReloadValue);
        w.endObject();
        writeText(a.outDir + "/DropGpuProbe.repro.json", w.str());
        outcomes.push_back(out);
    }

    std::printf("\n%-24s %-10s %-8s %-16s %s\n", "fault", "detected",
                "shrunk", "failure_class", "episodes");
    bool all_ok = true;
    for (const FuzzOutcome &out : outcomes) {
        bool ok = out.detected && out.shrunk;
        all_ok = all_ok && ok;
        std::printf("%-24s %-10s %-8s %-16s %zu -> %zu%s\n",
                    faultKindName(out.fault),
                    out.detected ? "yes" : "NO",
                    out.shrunk ? "yes" : "NO",
                    failureClassName(out.failureClass),
                    out.originalEpisodes, out.shrunkEpisodes,
                    ok ? "" : "   <-- PROBLEM");
    }
    std::printf("\nfuzz sweep (%s): %s\n", strategyName(*strategy),
                all_ok ? "every fault detected and shrunk"
                       : "SOME FAULTS ESCAPED");
    return all_ok ? 0 : 1;
}

/**
 * The nightly scoped-synchronization arm: the scoped discipline must
 * pass, breaking it must be caught as a ScopeViolation, and the racy
 * repro must survive shrinking (see the file header).
 */
int
cmdScoped(const Args &a)
{
    if (a.outDir.empty()) {
        std::fprintf(stderr, "scoped: --out-dir is required\n");
        return 2;
    }
    ProtocolKind protocol = parseProtocolArg(a.protocol);

    auto scopedSystem = [&] {
        // Large caches for the same reason DropAcquireInvalidate needs
        // them: the racy leg's failure mode is a stale line surviving a
        // skipped invalidate/write-back, and small L1s evict fast
        // enough that natural replacement masks it.
        ApuSystemConfig sys =
            makeGpuSystemConfig(CacheSizeClass::Large, a.cus);
        sys.l1.protocol = protocol;
        return sys;
    };

    // Leg 1 — positive control: scoped-DRF-clean schedules (random
    // CTA/GPU scope per episode, generator rules 3/4 enforced) must
    // pass on a correct protocol, every seed.
    bool control_green = true;
    for (std::uint64_t seed = 1; seed <= a.seeds; ++seed) {
        GpuTesterConfig tester = toolTesterConfig(a, seed);
        tester.scopeMode = ScopeMode::Scoped;
        ReproTrace trace = recordGpuRun(scopedSystem(), tester);
        if (!trace.result.passed) {
            control_green = false;
            std::string base = a.outDir + "/" +
                               std::string(protocolKindName(protocol)) +
                               "-scoped-FALSEPOSITIVE";
            if (saveTraceFile(base + ".trace", trace))
                std::printf("wrote %s.trace\n", base.c_str());
            std::fprintf(stderr,
                         "scoped control seed %llu FAILED (%s): %s\n",
                         (unsigned long long)seed,
                         failureClassName(trace.result.failureClass),
                         trace.result.report.c_str());
        }
    }

    // Leg 2 — racy: skip the generation discipline, keep the scoped
    // packets. A correct protocol must now be caught exhibiting the
    // weaker CTA-scope semantics across CTAs: a ScopeViolation.
    FuzzOutcome racy;
    racy.fault = FaultKind::None;
    for (std::uint64_t seed = 1; seed <= a.seeds && !racy.detected;
         ++seed) {
        GpuTesterConfig tester = toolTesterConfig(a, seed);
        tester.scopeMode = ScopeMode::Racy;
        ReproTrace trace = recordGpuRun(scopedSystem(), tester);
        if (trace.result.passed ||
            trace.result.failureClass != FailureClass::ScopeViolation)
            continue;
        racy.seed = seed;
        trace.presetName = std::string(protocolKindName(protocol)) +
                           "-racy/seed" + std::to_string(seed);
        shrinkAndSave(a,
                      a.outDir + "/" +
                          std::string(protocolKindName(protocol)) +
                          "-racy",
                      trace, racy);
    }

    std::printf("\nscoped arm (%s):\n", protocolKindName(protocol));
    std::printf("  control (scoped discipline): %s\n",
                control_green ? "all seeds passed"
                              : "FALSE POSITIVE (see artifacts)");
    if (racy.detected) {
        std::printf("  racy leg: ScopeViolation at seed %llu, "
                    "%zu -> %zu episodes (%s)\n",
                    (unsigned long long)racy.seed,
                    racy.originalEpisodes, racy.shrunkEpisodes,
                    racy.shrunk ? "shrunk" : "SHRINK FAILED");
    } else {
        std::printf("  racy leg: NO ScopeViolation in %u seeds\n",
                    a.seeds);
    }

    bool ok = control_green && racy.detected && racy.shrunk;
    std::printf("scoped arm: %s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}

int
cmdPredict(const Args &a)
{
    ReproTrace trace;
    if (!a.in.empty()) {
        trace = loadOrDie(a.in);
        if (trace.events.empty()) {
            std::fprintf(stderr,
                         "note: trace has no event stream; sync order "
                         "falls back to schedule order\n");
        }
    } else {
        // No input trace: record one that *passes* — the predictive
        // pass's whole point is finding the races a lucky schedule
        // hid — scanning seeds until the run comes back green.
        ScopeMode mode = parseScopeModeArg(a.scopeMode);
        ApuSystemConfig sys =
            makeGpuSystemConfig(CacheSizeClass::Large, a.cus);
        sys.l1.protocol = parseProtocolArg(a.protocol);
        RecordOptions rec;
        rec.captureEvents = true;
        bool found = false;
        for (std::uint64_t seed = a.seed; seed < a.seed + a.seeds;
             ++seed) {
            GpuTesterConfig tester = toolTesterConfig(a, seed);
            tester.scopeMode = mode;
            trace = recordGpuRun(sys, tester, rec);
            trace.presetName = std::string("predict/") +
                               scopeModeName(mode) + "/seed" +
                               std::to_string(seed);
            if (trace.result.passed) {
                found = true;
                break;
            }
        }
        if (!found) {
            std::fprintf(stderr,
                         "predict: no passing recording in %u seeds "
                         "(every run already failed; use replay/shrink "
                         "on those instead)\n",
                         a.seeds);
            return 1;
        }
        std::printf("recorded passing trace %s (%zu episodes, %zu "
                    "events)\n",
                    trace.presetName.c_str(), trace.schedule.size(),
                    trace.events.size());
    }

    PredictOptions opts;
    opts.maxProbes = a.predictProbes;
    PredictReport report = predictRaces(trace, opts);

    std::printf("predict: order source %s, %zu events analyzed, %zu "
                "pairs checked\n",
                hbOrderSourceName(report.orderSource),
                report.eventsAnalyzed, report.pairsChecked);
    for (const PredictedRace &r : report.races) {
        std::printf("  %s: ep %llu wf %u %s var %llu <-> ep %llu wf %u "
                    "%s var %llu",
                    r.confirmed ? "CONFIRMED" : "demoted",
                    (unsigned long long)r.first.episodeId,
                    r.first.wavefront,
                    r.first.isWrite ? "write" : "read",
                    (unsigned long long)r.first.var,
                    (unsigned long long)r.second.episodeId,
                    r.second.wavefront,
                    r.second.isWrite ? "write" : "read",
                    (unsigned long long)r.second.var);
        if (r.confirmed) {
            std::printf(" [%s, delay %llu]",
                        failureClassName(r.witnessClass),
                        (unsigned long long)r.witnessDelay);
        }
        std::printf("\n    sync: %s\n", r.syncPath.c_str());
    }
    std::printf("predict: %zu candidates, %zu confirmed, %zu demoted "
                "(%zu witness replays)\n",
                report.candidates, report.confirmedCount(),
                report.demotedCount(), report.replays);

    if (!a.outJson.empty() &&
        !writeText(a.outJson, predictReportJson(trace, report))) {
        return 1;
    }

    // Witness artifact: the first confirmed race's pair-prefix
    // schedule, stamped with the failing replay's outcome. The
    // perturbation itself is in the JSON report (delay_ticks); the
    // trace documents the failing schedule and its Table V report.
    if (!a.outTrace.empty()) {
        for (const PredictedRace &r : report.races) {
            if (!r.confirmed)
                continue;
            ReproTrace witness = trace;
            witness.presetName = trace.presetName + "/witness";
            witness.schedule = witnessSchedule(trace, r);
            SchedulePerturbation perturb;
            if (r.witnessDelay > 0)
                perturb.add(r.first.episodeId, r.witnessDelay);
            witness.events.clear();
            witness.result = replayGpuRun(trace, witness.schedule, true,
                                          nullptr, &perturb);
            if (saveTraceFile(a.outTrace, witness))
                std::printf("wrote %s\n", a.outTrace.c_str());
            break;
        }
    }

    if (report.confirmedCount() < a.expectConfirmedMin) {
        std::fprintf(stderr,
                     "predict: expected >= %u confirmed predicted "
                     "races, got %zu\n",
                     a.expectConfirmedMin, report.confirmedCount());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: shrink_repro "
                     "{record|replay|shrink|export|fuzz|scoped|predict} "
                     "[options]\n");
        return 2;
    }
    Args a = parseArgs(argc, argv);
    std::string cmd = argv[1];
    if (cmd == "record")
        return cmdRecord(a);
    if (cmd == "replay")
        return cmdReplay(a);
    if (cmd == "shrink")
        return cmdShrink(a);
    if (cmd == "export")
        return cmdExport(a);
    if (cmd == "fuzz")
        return cmdFuzz(a);
    if (cmd == "scoped")
        return cmdScoped(a);
    if (cmd == "predict")
        return cmdPredict(a);
    std::fprintf(stderr, "unknown subcommand: %s\n", cmd.c_str());
    return 2;
}
