#include "workloads.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>

#include "fleet/fleet.hh"
#include "guidance/adaptive_campaign.hh"
#include "predict/explore.hh"
#include "predict/hb.hh"
#include "system/apu_system.hh"
#include "trace/shrink.hh"

using namespace drf;

namespace perfbench
{

namespace
{

const std::string testType = "gpu_tester";

/**
 * The Table III arms at a tenth of their episodes per wavefront (10 and
 * 100 become 1 and 10). Shard cost keeps the sweep's 1:10 spread, so
 * its stragglers stay, while one campaign takes a second or two and a
 * run repeats it enough times for a stable median: the fleet's lease
 * order, and so its wall time, varies from one repetition to the next.
 */
std::vector<ConfigGenome>
sweepArms()
{
    std::vector<ConfigGenome> arms = tableIIIArms();
    for (ConfigGenome &g : arms)
        g.episodesPerWf = std::max(1u, g.episodesPerWf / 10);
    return arms;
}

SourceConfig
sweepSourceConfig(std::uint64_t seed)
{
    SourceConfig cfg;
    cfg.arms = sweepArms();
    cfg.masterSeed = seed;
    cfg.batchSize = 4;
    cfg.maxShards = cfg.arms.size();
    return cfg;
}

AdaptiveCampaignConfig
campaignConfig(bool stop_on_failure)
{
    AdaptiveCampaignConfig cfg;
    cfg.jobs = campaignJobs;
    cfg.stopOnFailure = stop_on_failure;
    cfg.coverageTestType = testType;
    return cfg;
}

double
since(Clock::time_point t0, std::optional<Clock::time_point> t)
{
    return t ? secondsBetween(t0, *t) : 0.0;
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/**
 * Campaign-level layer numbers summed over the campaigns of one traced
 * repetition, then emitted per unit of work (one campaign, one explore
 * pass, one hunt set).
 */
struct CampaignTotals
{
    std::vector<double> shardSeconds;
    double busy = 0.0;
    double wall = 0.0; ///< campaign wall, set-up excluded
    double rounds = 0.0;
    double nextBatch = 0.0;
    double report = 0.0;
    double events = 0.0;
    double episodes = 0.0;
    double loads = 0.0;
    double atomics = 0.0;
    double l1 = 0.0;
    double l2 = 0.0;
    double dir = 0.0;

    /**
     * Add one campaign. @p shard_seconds is each shard's execution time
     * and @p busy their sum as the executors saw it.
     */
    void
    add(const TracedSource &ts, const AdaptiveCampaignResult &res,
        const std::vector<double> &shard_seconds, double busy_s,
        double wall_s)
    {
        shardSeconds.insert(shardSeconds.end(), shard_seconds.begin(),
                            shard_seconds.end());
        busy += busy_s;
        wall += wall_s;
        rounds += double(res.rounds);
        nextBatch += ts.nextBatchSeconds();
        report += ts.reportSeconds();
        for (const TracedSource::Reported &r : ts.reported()) {
            events += double(r.events);
            episodes += double(r.episodes);
            loads += double(r.loadsChecked);
            atomics += double(r.atomicsChecked);
        }
        l1 += double(res.l1Union ? res.l1Union->activeCount(testType) : 0);
        l2 += double(res.l2Union ? res.l2Union->activeCount(testType) : 0);
        dir += double(ts.dirActive());
    }

    /** Emit per unit of work; @p units divides every sum. */
    void
    emit(MetricSet &m, unsigned lanes, double units) const
    {
        m.addQuantile("campaign.shard_s.p50", median(shardSeconds), "s");
        m.addQuantile("campaign.shard_s.max", quantile(shardSeconds, 1.0),
                      "s");
        const CapacityUse use =
            capacityUse(busy / units, lanes, wall / units);
        m.add("campaign.busy_s", use.busy, "s");
        m.add("campaign.barrier_idle_s", use.idle, "s");
        m.addRatio("campaign.utilization", use.busy, use.capacity,
                   "campaign.capacity_s", "s");
        m.add("campaign.rounds", rounds / units, "count");

        m.add("guidance.next_batch_s", nextBatch / units, "s");
        m.add("guidance.report_s", report / units, "s");
        m.addRatio("guidance.new_cells_per_kilo_episode", l1 + l2,
                   episodes / 1000.0, "sim.kilo_episodes", "count");

        m.add("sim.events", events / units, "count");
        m.add("sim.episodes", episodes / units, "count");
        m.addRatio("sim.events_per_busy_s", events / units, use.busy,
                   "campaign.busy_s", "s", "1/s");
        m.add("tester.loads_checked", loads / units, "count");
        m.add("tester.atomics_checked", atomics / units, "count");

        m.add("coverage.l1_active", l1 / units, "count");
        m.add("coverage.l2_active", l2 / units, "count");
        m.add("coverage.dir_active", dir / units, "count");
    }
};

/** Median ApuSystem construction time over @p configs. */
void
addSystemBuild(MetricSet &m, SpanRecorder &rec,
               const std::vector<ApuSystemConfig> &configs)
{
    std::vector<double> secs;
    for (const ApuSystemConfig &cfg : configs) {
        ScopedSpan span(rec, "system.ApuSystem");
        const Clock::time_point t0 = Clock::now();
        ApuSystem sys(cfg);
        secs.push_back(secondsBetween(t0, Clock::now()));
    }
    m.addQuantile("system.build_s", median(secs), "s");
}

/** The end-to-end rates every workload reports. */
void
addRates(MetricSet &m, double wall, double shards, double events,
         double episodes)
{
    m.add("shards_per_s", ratio(shards, wall), "1/s");
    m.add("sim_events_per_s", ratio(events, wall), "1/s");
    m.add("episodes_per_s", ratio(episodes, wall), "1/s");
}

/** State shared by every workload's repetition loop. */
struct Runner
{
    using Rep = std::function<void(bool traced, SpanRecorder &rec,
                                   MetricSet &e2e, MetricSet &layer)>;

    const RunConfig &cfg;
    SpanRecorder &spans;
    SpanRecorder off{false};
    RunResult result;
    std::vector<MetricSet> e2e;    ///< untraced repetitions
    std::vector<MetricSet> layers; ///< traced repetitions
    std::vector<double> tracedWall;
    std::vector<double> untracedWall;
    std::map<std::string, std::string> firstDigests;

    Runner(const RunConfig &c, SpanRecorder &s) : cfg(c), spans(s) {}

    void
    check(const std::string &name, bool ok, const std::string &detail)
    {
        result.checks.push_back({name, ok, detail});
        if (!ok)
            ++result.failed;
    }

    /** Record a per-repetition digest; every repetition must agree. */
    void
    repeatDigest(const std::string &name, const std::string &digest)
    {
        auto [it, fresh] = firstDigests.emplace(name, digest);
        if (!fresh && it->second != digest)
            check(name + " identical on every repetition", false,
                  it->second + " vs " + digest);
    }

    /**
     * Run @p rep until the window is used: never start a repetition the
     * median repetition time says would overrun it, but run at least
     * one. In a traced run every other repetition is traced, and the
     * untraced ones measure the tracing overhead.
     */
    void
    loop(const Rep &rep)
    {
        const Clock::time_point start = Clock::now();
        std::vector<double> durations;
        for (std::size_t i = 0;; ++i) {
            const bool traced = cfg.trace && i % 2 == 1;
            MetricSet e, l;
            const Clock::time_point t0 = Clock::now();
            rep(traced, traced ? spans : off, e, l);
            const double d = secondsBetween(t0, Clock::now());
            durations.push_back(d);
            if (traced) {
                tracedWall.push_back(d);
                layers.push_back(std::move(l));
            } else {
                untracedWall.push_back(d);
                e2e.push_back(std::move(e));
            }
            const double used = secondsBetween(start, Clock::now());
            const bool need_traced = cfg.trace && tracedWall.empty();
            if (!need_traced &&
                used + median(durations).value > cfg.seconds)
                break;
        }
        result.repSeconds = durations;
        for (const auto &[name, digest] : firstDigests)
            result.digests[name] = digest;
    }

    RunResult
    finish()
    {
        result.endToEnd = medianOf(e2e);
        result.perLayer = medianOf(layers);
        if (cfg.trace) {
            const double traced = median(tracedWall).value;
            const double untraced = median(untracedWall).value;
            result.perLayer.add("trace.overhead_s", traced - untraced, "s");
            result.perLayer.addRatio("trace.overhead_share",
                                     traced - untraced, untraced,
                                     "trace.untraced_rep_s", "s");
        }
        return std::move(result);
    }
};

// --------------------------------------------------------------- sweep

RunResult
runSweep(const RunConfig &cfg, SpanRecorder &spans)
{
    Runner r(cfg, spans);
    r.result.threads = campaignJobs;
    std::vector<ApuSystemConfig> systems;
    bool passed = true;

    r.loop([&](bool traced, SpanRecorder &rec, MetricSet &e,
               MetricSet &l) {
        const Clock::time_point t0 = Clock::now();
        SweepSource source(sweepSourceConfig(cfg.seed));
        TracedSource ts(source, rec);
        AdaptiveCampaignResult res;
        {
            ScopedSpan span(rec, "campaign.runAdaptiveCampaign");
            res = runAdaptiveCampaign(ts, campaignConfig(true));
        }
        const double wall = secondsBetween(t0, Clock::now());
        r.result.attempted += res.shardsRun;
        passed = passed && res.passed &&
                 res.shardsRun == source.shardsIssued();
        r.repeatDigest("sweep.aggregates",
                       digestHex(adaptiveAggregatesJson(res, testType)));
        r.repeatDigest("sweep.union_digest", hex64(res.unionDigest));

        e.add("wall_s", wall, "s");
        e.add("setup_s", since(t0, ts.firstShardStart()), "s");
        addRates(e, wall, double(res.shardsRun), double(res.totalEvents),
                 double(res.totalEpisodes));
        if (!traced)
            return;

        l.add("campaign.time_to_saturation_s",
              since(t0, ts.lastCoverageGrowth()), "s");
        const std::vector<double> runs = ts.shardRunSeconds();
        CampaignTotals totals;
        totals.add(ts, res, runs, sum(runs), res.wallSeconds);
        totals.emit(l, campaignJobs, 1.0);
        if (systems.empty())
            for (std::uint64_t s = cfg.seed; s < cfg.seed + res.shardsRun;
                 ++s)
                if (std::optional<GpuTestPreset> p = ts.presetForSeed(s))
                    systems.push_back(p->system);
    });
    r.check("sweep passes every shard", passed, "");
    if (cfg.trace)
        addSystemBuild(r.layers.back(), spans, systems);
    return r.finish();
}

// --------------------------------------------------------------- fleet

RunResult
runFleet(const RunConfig &cfg, SpanRecorder &spans)
{
    Runner r(cfg, spans);
    r.result.processes = fleetWorkers;

    // Reference: the same campaign in-process. Untimed; every fleet
    // repetition's aggregates must match it byte for byte.
    std::string reference;
    {
        SweepSource source(sweepSourceConfig(cfg.seed));
        AdaptiveCampaignResult res =
            runAdaptiveCampaign(source, campaignConfig(true));
        reference = adaptiveAggregatesJson(res, testType);
        r.result.attempted += res.shardsRun;
    }

    const std::string journal = cfg.outDir + "/fleet.journal";
    bool matches = true;
    bool healthy = true;
    r.loop([&](bool traced, SpanRecorder &rec, MetricSet &e,
               MetricSet &l) {
        ::unlink(journal.c_str());
        const Clock::time_point t0 = Clock::now();
        SweepSource source(sweepSourceConfig(cfg.seed));
        TracedSource ts(source, rec);
        fleet::LocalFleetConfig fc;
        fc.workers = fleetWorkers;
        fc.coordinator.campaign = campaignConfig(true);
        // Only used if every worker is lost and the coordinator runs
        // the stranded leases itself.
        fc.coordinator.campaign.jobs = 1;
        fc.coordinator.journalPath = journal;
        // One lease per worker at a time: the batch's fourth shard goes
        // to whichever worker frees up first. With two queued per worker
        // it lands by connection order, and when two long shards share a
        // worker the round takes twice as long, so wall time swung by a
        // fifth from one repetition to the next.
        fc.coordinator.queueDepth = 1;
        fleet::FleetResult fr;
        bool listen_ok = false;
        {
            ScopedSpan span(rec, "fleet.runLocalFleet");
            fr = fleet::runLocalFleet(ts, fc, &listen_ok);
        }
        const double wall = secondsBetween(t0, Clock::now());
        const AdaptiveCampaignResult &res = fr.adaptive;
        r.result.attempted += fr.leasesIssued;
        // Steal duplicates (fleet.releases) are speculative copies of
        // slow leases, not failures.
        r.result.failed += fr.campaign.hostCrashes +
                           fr.campaign.hostTimeouts +
                           fr.campaign.resourceExhausted +
                           fr.campaign.retriesPerformed;
        healthy = healthy && listen_ok && res.passed &&
                  res.shardsRun == source.shardsIssued() &&
                  fr.workersSeen == fleetWorkers;
        const std::string agg = adaptiveAggregatesJson(res, testType);
        matches = matches && agg == reference;
        r.repeatDigest("sweep.aggregates", digestHex(agg));
        r.repeatDigest("sweep.union_digest", hex64(res.unionDigest));

        e.add("wall_s", wall, "s");
        // Workers build their shards from leases, so the first thing
        // this process sees of execution is the first batch leased.
        e.add("setup_s", since(t0, ts.firstBatchIssued()), "s");
        addRates(e, wall, double(res.shardsRun), double(res.totalEvents),
                 double(res.totalEpisodes));
        if (!traced)
            return;

        l.add("campaign.time_to_saturation_s",
              since(t0, ts.lastCoverageGrowth()), "s");
        std::vector<double> shard_secs;
        for (const TracedSource::Reported &x : ts.reported())
            shard_secs.push_back(x.hostSeconds);
        CampaignTotals totals;
        totals.add(ts, res, shard_secs, fr.campaign.shardSecondsSum,
                   res.wallSeconds);
        totals.emit(l, fleetWorkers, 1.0);
        const CapacityUse use = capacityUse(fr.campaign.shardSecondsSum,
                                            fleetWorkers, res.wallSeconds);
        l.add("fleet.leases", double(fr.leasesIssued), "count");
        l.add("fleet.releases", double(fr.releases), "count");
        l.add("fleet.duplicate_results", double(fr.duplicateResults),
              "count");
        l.addRatio("fleet.useful_lease_ratio", double(res.shardsRun),
                   double(fr.leasesIssued), "fleet.leases", "count");
        l.add("fleet.worker_busy_s", use.busy, "s");
        l.add("fleet.worker_idle_s", use.idle, "s");
        struct stat st{};
        l.add("journal.bytes",
              ::stat(journal.c_str(), &st) == 0 ? double(st.st_size) : 0.0,
              "bytes");
    });
    ::unlink(journal.c_str());
    r.check("fleet connects every worker and passes every shard", healthy,
            std::to_string(fleetWorkers) + " workers");
    r.check("fleet aggregates == in-process sweep", matches,
            digestHex(reference));
    return r.finish();
}

// ------------------------------------------------------------- explore

/**
 * predict_throughput's shape (2 CUs, 8 lanes, 30 actions), unscoped,
 * at 40 episodes per wavefront instead of 10, so that most base runs'
 * frontiers outlast the 64-interleaving budget.
 */
GpuTestPreset
explorePreset(std::uint64_t seed)
{
    GpuTestPreset preset;
    preset.cacheClass = CacheSizeClass::Large;
    preset.system = makeGpuSystemConfig(CacheSizeClass::Large, 2);
    preset.tester = makeGpuTesterConfig(30, 40, 10, seed);
    preset.tester.lanes = 8;
    preset.tester.episodeGen.lanes = 8;
    preset.tester.wfsPerCu = 2;
    preset.tester.variables.numNormalVars = 512;
    preset.tester.variables.addrRangeBytes = 1 << 14;
    preset.tester.scopeMode = ScopeMode::None;
    preset.name = "explore/seed" + std::to_string(seed);
    return preset;
}

/**
 * Interleavings per pass. A base run's frontier sometimes runs dry
 * before its budget, so a pass takes base runs (seed * 64 + k, k = 0,
 * 1, ...) until it has explored exactly this many: the work per pass
 * does not depend on the seed.
 */
constexpr std::size_t exploreInterleavings = 512;
constexpr std::size_t exploreBudget = 64;

RunResult
runExplore(const RunConfig &cfg, SpanRecorder &spans)
{
    Runner r(cfg, spans);
    r.result.threads = campaignJobs;
    ExploreOptions opts;
    opts.batchSize = 4;
    opts.maxFlipsPerTrace = 24;
    bool base_passed = true;
    std::vector<GpuTestPreset> bases; // as taken by the first pass

    r.loop([&](bool traced, SpanRecorder &rec, MetricSet &e,
               MetricSet &l) {
        double wall = 0.0, setup = 0.0, saturation = 0.0;
        double shards = 0.0, events = 0.0, episodes = 0.0;
        double failing = 0.0, candidates = 0.0, confirmed = 0.0;
        std::vector<double> first_failure;
        std::string digest_input;
        CampaignTotals totals;
        for (std::uint64_t k = 0; shards < exploreInterleavings; ++k) {
            const GpuTestPreset preset = explorePreset(cfg.seed * 64 + k);
            if (bases.size() == k)
                bases.push_back(preset);
            opts.budget = std::min(exploreBudget,
                                   exploreInterleavings - std::size_t(shards));
            const Clock::time_point t0 = Clock::now();
            std::optional<ExploreSource> source;
            {
                ScopedSpan span(rec, "predict.ExploreSource");
                source.emplace(preset, opts);
            }
            TracedSource ts(*source, rec);
            AdaptiveCampaignResult res;
            {
                ScopedSpan span(rec, "campaign.runAdaptiveCampaign");
                res = runAdaptiveCampaign(ts, campaignConfig(false));
            }
            const Clock::time_point t1 = Clock::now();
            r.result.attempted += res.shardsRun;
            base_passed = base_passed && source->baseTrace().result.passed;

            const double base_setup = since(t0, ts.firstShardStart());
            wall += secondsBetween(t0, t1);
            setup += base_setup;
            saturation += since(t0, ts.lastCoverageGrowth());
            shards += double(res.shardsRun);
            events += double(res.totalEvents);
            episodes += double(res.totalEpisodes);
            for (const TracedSource::Reported &x : ts.reported())
                if (!x.passed) {
                    first_failure.push_back(secondsBetween(t0, x.at));
                    break;
                }
            digest_input += adaptiveAggregatesJson(res, testType);
            for (const auto &[cls, count] : source->failuresByClass()) {
                digest_input += std::string(failureClassName(cls)) + "=" +
                                std::to_string(count) + ";";
                failing += double(count);
            }
            if (!traced)
                continue;
            const std::vector<double> runs = ts.shardRunSeconds();
            totals.add(ts, res, runs, sum(runs),
                       secondsBetween(t0, t1) - base_setup);
            const PredictTriage triage =
                source->predictTriage().value_or(PredictTriage{});
            candidates += double(triage.candidates);
            confirmed += double(triage.confirmed);
        }
        r.repeatDigest("explore.aggregates", digestHex(digest_input));

        e.add("wall_s", wall, "s");
        e.add("setup_s", setup, "s");
        addRates(e, wall, shards, events, episodes);
        if (!traced)
            return;

        l.add("campaign.time_to_saturation_s", saturation, "s");
        totals.emit(l, campaignJobs, 1.0);
        l.add("predict.candidates", candidates, "count");
        l.add("predict.confirmed", confirmed, "count");
        l.addQuantile("explore.interleaving_s.p50",
                      median(totals.shardSeconds), "s");
        l.addQuantile("explore.interleaving_s.p90",
                      quantile(totals.shardSeconds, 0.9), "s");
        // Frontier expansion runs inside the source's report().
        l.add("explore.frontier_s", totals.report, "s");
        l.addRatio("explore.failing_interleavings", failing, shards,
                   "explore.interleavings", "count");
        l.addQuantile("explore.time_to_first_failure_s.p50",
                      median(first_failure), "s");
    });

    if (cfg.trace) {
        // The source's set-up, split into its layer calls.
        MetricSet &l = r.layers.back();
        double record = 0.0, hb = 0.0, pass = 0.0;
        std::vector<ApuSystemConfig> systems;
        for (const GpuTestPreset &preset : bases) {
            systems.push_back(preset.system);
            RecordOptions ro;
            ro.captureEvents = true;
            Clock::time_point t = Clock::now();
            ReproTrace base;
            {
                ScopedSpan span(spans, "trace.recordGpuRun");
                base = recordGpuRun(preset, ro);
            }
            record += secondsBetween(t, Clock::now());
            t = Clock::now();
            {
                ScopedSpan span(spans, "predict.HbModel::build");
                HbModel model = HbModel::build(base);
                (void)model;
            }
            hb += secondsBetween(t, Clock::now());
            t = Clock::now();
            {
                ScopedSpan span(spans, "predict.predictRaces");
                PredictReport report = predictRaces(base, opts.predict);
                (void)report;
            }
            pass += secondsBetween(t, Clock::now());
        }
        l.add("trace.record_s", record, "s");
        l.add("predict.hb_build_s", hb, "s");
        l.add("predict.pass_s", pass, "s");
        addSystemBuild(l, spans, systems);
    }
    r.check("explore base runs pass", base_passed,
            std::to_string(bases.size()) + " base runs per pass");
    return r.finish();
}

// ------------------------------------------------------------- bughunt

struct Hunt
{
    FaultKind fault;
    CacheSizeClass cache;
    FailureClass expected;
};

/** The faults `shrink_repro fuzz` sweeps, with the class each shows. */
const std::vector<Hunt> &
hunts()
{
    // DropAcquireInvalidate needs large caches: small L1s evict fast
    // enough that replacement masks a swallowed flash-invalidate.
    static const std::vector<Hunt> list = {
        {FaultKind::LostWriteThrough, CacheSizeClass::Small,
         FailureClass::ValueMismatch},
        {FaultKind::NonAtomicRmw, CacheSizeClass::Small,
         FailureClass::AtomicViolation},
        {FaultKind::DropAcquireInvalidate, CacheSizeClass::Large,
         FailureClass::ValueMismatch},
        {FaultKind::DropWriteAck, CacheSizeClass::Small,
         FailureClass::Deadlock},
    };
    return list;
}

/**
 * The arms of `shrink_repro fuzz --strategy guided` (base, twice the
 * episodes, twice the actions), scaled up to 40 episodes/WF, 60
 * actions and 8 CUs, with the fault armed at a 25% trigger.
 */
SourceConfig
huntSourceConfig(const Hunt &h, std::uint64_t seed)
{
    ConfigGenome base;
    base.cacheClass = h.cache;
    base.actionsPerEpisode = 60;
    base.episodesPerWf = 40;
    base.atomicLocs = 10;
    // The tool's fixed 16 KiB range over its 512 normal variables.
    VariableMapConfig vars = makeGpuTesterConfig(60, 40, 10, 1).variables;
    vars.numNormalVars = 512;
    vars.addrRangeBytes = 1 << 14;
    base.colocDensity = colocDensityOf(vars);
    base.numCus = 8;
    ConfigGenome more_episodes = base;
    more_episodes.episodesPerWf *= 2;
    ConfigGenome more_actions = base;
    more_actions.actionsPerEpisode *= 2;

    SourceConfig cfg;
    cfg.arms = {base, more_episodes, more_actions};
    cfg.scale.lanes = 8;
    cfg.scale.wfsPerCu = 2;
    cfg.scale.numNormalVars = 512;
    cfg.scale.fault = h.fault;
    cfg.scale.faultTriggerPct = 25;
    cfg.masterSeed = seed;
    cfg.batchSize = 2;
    cfg.maxShards = 16;
    return cfg;
}

/**
 * Hunt sets per repetition. One set's cost swings with its seed (how
 * many shards reach the failure, how long the failing trace is), so a
 * repetition averages over this many independently seeded sets.
 */
constexpr unsigned huntSets = 16;

/** Replay budget of one shrink: bounds a hard-to-shrink failure. */
constexpr std::size_t shrinkProbes = 64;

RunResult
runBughunt(const RunConfig &cfg, SpanRecorder &spans)
{
    Runner r(cfg, spans);
    r.result.threads = campaignJobs;
    std::vector<ApuSystemConfig> systems;
    ShrinkOptions shrink_opts;
    shrink_opts.maxProbes = shrinkProbes;
    std::size_t caught = 0, reproduced = 0, hunted = 0;

    r.loop([&](bool traced, SpanRecorder &rec, MetricSet &e,
               MetricSet &l) {
        double to_failure = 0.0, to_repro = 0.0, setup = 0.0;
        double saturation = 0.0, shards = 0.0, events = 0.0;
        double episodes = 0.0, record_s = 0.0, shrink_s = 0.0;
        double verify_s = 0.0, probes = 0.0, original = 0.0;
        double shrunk_eps = 0.0, runs = 0.0;
        std::string digest_input;
        CampaignTotals totals;
        for (unsigned set = 0; set < huntSets; ++set) {
            // Disjoint seed ranges: a guided source numbers its shards
            // up from its master seed, at most maxShards of them.
            const std::uint64_t master = cfg.seed * 1000 + set * 64;
            for (const Hunt &h : hunts()) {
                ++hunted;
                const Clock::time_point t0 = Clock::now();
                GuidedSource source(huntSourceConfig(h, master));
                TracedSource ts(source, rec);
                AdaptiveCampaignResult res;
                {
                    ScopedSpan span(rec, "campaign.runAdaptiveCampaign");
                    res = runAdaptiveCampaign(ts, campaignConfig(true));
                }
                const Clock::time_point t1 = Clock::now();
                const double base_setup = since(t0, ts.firstShardStart());
                r.result.attempted += res.shardsRun;
                to_failure += secondsBetween(t0, t1);
                setup += base_setup;
                saturation += since(t0, ts.lastCoverageGrowth());
                shards += double(res.shardsRun);
                events += double(res.totalEvents);
                episodes += double(res.totalEpisodes);
                runs += double(res.shardsRun);
                if (!res.firstFailure || !res.failurePreset ||
                    res.firstFailureClass != h.expected)
                    continue;
                ++caught;

                const Clock::time_point t2 = Clock::now();
                ReproTrace trace;
                {
                    ScopedSpan span(rec, "trace.recordGpuRun");
                    trace = recordGpuRun(*res.failurePreset);
                }
                const Clock::time_point t3 = Clock::now();
                ShrinkStats stats;
                EpisodeSchedule shrunk;
                {
                    ScopedSpan span(rec, "trace.shrinkRepro");
                    shrunk = shrinkRepro(trace, shrink_opts, &stats);
                }
                const Clock::time_point t4 = Clock::now();
                TesterResult replayed, again;
                {
                    ScopedSpan span(rec, "trace.replayGpuRun");
                    replayed = replayGpuRun(trace, shrunk);
                    again = replayGpuRun(trace, shrunk);
                }
                const Clock::time_point t5 = Clock::now();
                to_repro += secondsBetween(t2, t5);
                r.result.attempted += stats.probes;
                // The record, every shrink probe and both verify replays
                // simulate the failing shard once more each.
                runs += 3.0 + double(stats.probes);
                if (trace.result.failureClass == h.expected &&
                    !replayed.passed && replayed.failureClass == h.expected &&
                    shrunk.size() == stats.shrunkEpisodes &&
                    again.ticks == replayed.ticks &&
                    again.report == replayed.report)
                    ++reproduced;
                // Which shards of the failing batch ran, and so which
                // one is reported first, depends on thread timing; the
                // round that caught the bug and its shard seeds do not.
                digest_input += std::string(faultKindName(h.fault)) + ":" +
                                std::to_string(res.rounds);
                // (The decision log comes from the source: the campaign
                // result only carries it for an undecorated GuidedSource.)
                for (std::uint64_t seed : source.decisions().back().seeds)
                    digest_input += ":" + std::to_string(seed);
                digest_input += ";";
                if (!traced)
                    continue;
                const std::vector<double> runs = ts.shardRunSeconds();
                totals.add(ts, res, runs, sum(runs),
                           secondsBetween(t0, t1) - base_setup);
                record_s += secondsBetween(t2, t3);
                shrink_s += secondsBetween(t3, t4);
                verify_s += secondsBetween(t4, t5);
                probes += double(stats.probes);
                original += double(stats.originalEpisodes);
                shrunk_eps += double(shrunk.size());
                if (systems.size() < hunts().size())
                    systems.push_back(res.failurePreset->system);
            }
        }
        r.repeatDigest("bughunt.failures", digestHex(digest_input));

        // Per hunt set (the four faults), averaged over the sets. Event
        // and episode rates cover the guided campaigns, whose events the
        // program counts. shards_per_s counts every simulated run of the
        // hunt over its whole time: campaign shards alone swing with how
        // many shards each seed needs before its first failure.
        const double sets = huntSets;
        const double hunt_s = to_failure + to_repro;
        e.add("wall_s", hunt_s / sets, "s");
        e.add("setup_s", setup / sets, "s");
        e.add("shards_per_s", ratio(runs, hunt_s), "1/s");
        e.add("sim_events_per_s", ratio(events, to_failure), "1/s");
        e.add("episodes_per_s", ratio(episodes, to_failure), "1/s");
        if (!traced)
            return;

        l.add("campaign.time_to_saturation_s", saturation / sets, "s");
        totals.emit(l, campaignJobs, sets);
        l.add("bughunt.time_to_first_failure_s", to_failure / sets, "s");
        l.add("bughunt.time_to_repro_s", to_repro / sets, "s");
        l.add("bughunt.shards_to_failure", shards / sets, "count");
        l.add("bughunt.episodes_to_failure", episodes / sets, "count");
        l.add("trace.record_s", record_s / sets, "s");
        l.add("trace.shrink_s", shrink_s / sets, "s");
        l.add("trace.shrink_probes", probes / sets, "count");
        l.addRatio("trace.probes_per_s", probes, shrink_s, "trace.shrink_s",
                   "s", "1/s");
        l.addRatio("trace.shrink_ratio", shrunk_eps, original,
                   "trace.original_episodes", "count");
        l.add("trace.verify_replay_s", verify_s / sets, "s");
    });
    if (cfg.trace)
        addSystemBuild(r.layers.back(), spans, systems);
    r.check("every fault caught with its expected class", caught == hunted,
            std::to_string(caught) + " of " + std::to_string(hunted));
    r.check("every shrunk schedule replays to its failure class",
            reproduced == caught,
            std::to_string(reproduced) + " of " + std::to_string(caught));
    return r.finish();
}

} // namespace

unsigned
workloadExecutors(const std::string &workload)
{
    if (workload == "fleet")
        return fleetWorkers + 1; // the coordinator merges and journals
    if (workload == "sweep" || workload == "explore" ||
        workload == "bughunt")
        return campaignJobs;
    return 0;
}

RunResult
runWorkload(const RunConfig &cfg, SpanRecorder &spans)
{
    if (cfg.workload == "sweep")
        return runSweep(cfg, spans);
    if (cfg.workload == "fleet")
        return runFleet(cfg, spans);
    if (cfg.workload == "explore")
        return runExplore(cfg, spans);
    return runBughunt(cfg, spans);
}

} // namespace perfbench
