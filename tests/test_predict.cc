/**
 * @file
 * Predictive race analysis + explore strategy tests (src/predict/).
 *
 * Three layers. (1) The happens-before model is checked against
 * hand-built micro traces with synthetic sync markers, one case per row
 * of the scope-semantics truth table (gpu/cta release-acquire pairings,
 * same- vs cross-CU, timing-only orderings, transitive publication).
 * (2) The predictive pass is property-tested on real recorded runs:
 * unscoped traces must yield zero candidates (every conflicting pair is
 * ordered by the conservative device-wide sync), and on racy traces
 * every CONFIRMED finding's witness must actually fail when replayed
 * while every DEMOTED finding's witness prefix must still pass — the
 * pass never flags a replay-proven-ordered pair as confirmed. (3) The
 * explore strategy must be deterministic at any worker count and must
 * reach the reference ScopeViolation within its interleaving budget;
 * pulled ahead of its reports, it must still issue exactly the batches
 * a batch barrier would, and its shards' tester-only recorders must
 * capture the same markers a fully attached recorder does. Its
 * marker-only base run must yield the report and frontier a fully
 * recorded one does, and its dependence bitsets the verdicts of the
 * episode scan they replaced. PredictGoldens pins the report bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "golden_digest.hh"
#include "guidance/adaptive_campaign.hh"
#include "predict/explore.hh"
#include "predict/hb.hh"
#include "predict/predict.hh"
#include "tester/configs.hh"
#include "trace/repro.hh"

using namespace drf;

namespace
{

// ----- micro-trace scaffolding (HB model only) -----------------------

/** One synthetic episode: wavefront, scope, and sync-completion ticks. */
struct MicroEp
{
    std::uint32_t wf;
    Scope scope;
    Tick acq;
    Tick rel;
};

/**
 * A schedule of @p eps with synthetic v4 sync markers, wfsPerCu=2 (wf
 * 0/1 on cu 0, wf 2/3 on cu 1). Events are emitted in tick order, which
 * is the order the model consumes them in.
 */
ReproTrace
microTrace(const std::vector<MicroEp> &eps)
{
    ReproTrace t;
    t.tester.wfsPerCu = 2;
    for (std::size_t i = 0; i < eps.size(); ++i) {
        Episode e;
        e.id = 100 + i;
        e.wavefrontId = eps[i].wf;
        e.syncVar = 1;
        e.scope = eps[i].scope;
        t.schedule.episodes.push_back(e);
    }
    for (std::size_t i = 0; i < eps.size(); ++i) {
        for (bool acquire : {true, false}) {
            TraceEvent ev;
            ev.tick = acquire ? eps[i].acq : eps[i].rel;
            ev.a = 100 + i;
            ev.b = 1;
            ev.src = int(eps[i].wf / 2);
            ev.kind = acquire ? TraceEventKind::SyncAcquire
                              : TraceEventKind::SyncRelease;
            ev.u8 = static_cast<std::uint8_t>(eps[i].scope);
            ev.u32 = eps[i].wf;
            t.events.push_back(ev);
        }
    }
    std::stable_sort(t.events.begin(), t.events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.tick < b.tick;
                     });
    return t;
}

// ----- real-run scaffolding (predict + explore) ----------------------

/** The predict_sweep tool's configuration shape, sized for tests. */
GpuTestPreset
racyPreset(std::uint64_t seed, ScopeMode mode, unsigned episodes,
           unsigned actions)
{
    GpuTestPreset preset;
    preset.cacheClass = CacheSizeClass::Large;
    preset.system = makeGpuSystemConfig(CacheSizeClass::Large, 2);
    preset.system.l1.protocol = ProtocolKind::Viper;
    preset.tester = makeGpuTesterConfig(actions, episodes, 10, seed);
    preset.tester.lanes = 8;
    preset.tester.episodeGen.lanes = 8;
    preset.tester.wfsPerCu = 2;
    preset.tester.variables.numNormalVars = 512;
    preset.tester.variables.addrRangeBytes = 1 << 14;
    preset.tester.scopeMode = mode;
    preset.name = "predict-test/seed" + std::to_string(seed);
    return preset;
}

/**
 * Record runs of @p mode from @p seed upward until one passes (racy
 * configs frequently manifest at record time; predict needs a passing
 * trace to reason from). Fails the test if none of 32 seeds pass.
 */
ReproTrace
recordPassing(std::uint64_t seed, ScopeMode mode, unsigned episodes,
              unsigned actions, std::uint64_t *found_seed = nullptr)
{
    RecordOptions rec;
    rec.captureEvents = true;
    for (std::uint64_t s = seed; s < seed + 32; ++s) {
        ReproTrace t =
            recordGpuRun(racyPreset(s, mode, episodes, actions), rec);
        if (t.result.passed) {
            if (found_seed != nullptr)
                *found_seed = s;
            return t;
        }
    }
    ADD_FAILURE() << "no passing recording in 32 seeds";
    return ReproTrace{};
}

/** Forwards an explore source and logs each non-empty batch it issued
 *  as (name, seed) pairs, counting those pulled while shards were still
 *  unreported. */
class BatchLog : public ShardSource
{
  public:
    explicit BatchLog(ShardSource &inner) : _inner(inner) {}

    Strategy strategy() const override { return _inner.strategy(); }

    std::vector<ShardSpec>
    nextBatch() override
    {
        std::vector<ShardSpec> batch = _inner.nextBatch();
        if (batch.empty())
            return batch;
        if (_issued != _reported)
            ++earlyPulls;
        _issued += batch.size();
        batches.emplace_back();
        for (const ShardSpec &spec : batch)
            batches.back().emplace_back(spec.name, spec.seed);
        return batch;
    }

    void
    report(const ShardOutcome &outcome,
           const ShardFeedback &feedback) override
    {
        ++_reported;
        _inner.report(outcome, feedback);
    }

    std::optional<PredictTriage> predictTriage() const override
    {
        return _inner.predictTriage();
    }

    std::vector<std::vector<std::pair<std::string, std::uint64_t>>>
        batches;
    std::size_t earlyPulls = 0;

  private:
    ShardSource &_inner;
    std::size_t _issued = 0;
    std::size_t _reported = 0;
};

bool
isTesterMarker(const TraceEvent &ev)
{
    return ev.kind == TraceEventKind::EpisodeIssue ||
           ev.kind == TraceEventKind::EpisodeRetire ||
           ev.kind == TraceEventKind::SyncAcquire ||
           ev.kind == TraceEventKind::SyncRelease;
}

bool
isSyncMarker(const TraceEvent &ev)
{
    return ev.kind == TraceEventKind::SyncAcquire ||
           ev.kind == TraceEventKind::SyncRelease;
}

bool
sameEvent(const TraceEvent &x, const TraceEvent &y)
{
    return x.tick == y.tick && x.a == y.a && x.b == y.b &&
           x.src == y.src && x.dst == y.dst && x.kind == y.kind &&
           x.u8 == y.u8 && x.u16 == y.u16 && x.u32 == y.u32;
}

/**
 * The reference dependence test: the scan over both episodes' access
 * lists that DependenceIndex's bitsets replaced.
 */
bool
scanDependent(const Episode &a, const Episode &b)
{
    if (a.syncVar == b.syncVar)
        return true;
    for (const Episode::WriteEntry &w : a.writes) {
        if (b.writesVar(w.var) || b.readsVar(w.var))
            return true;
    }
    for (const Episode::WriteEntry &w : b.writes) {
        if (a.readsVar(w.var))
            return true;
    }
    return false;
}

/**
 * The perturbations ExploreSource derives from a base run with
 * @p trace's sync markers, by the episode-scan reference: one per
 * adjacent acquire pair of different wavefronts that are dependent,
 * delaying the earlier past the middle of the later one's span.
 */
std::vector<SchedulePerturbation>
referenceFrontier(const ReproTrace &trace, std::size_t max_flips)
{
    std::map<std::uint64_t, const Episode *> by_id;
    for (const Episode &e : trace.schedule.episodes)
        by_id.emplace(e.id, &e);
    std::map<std::uint64_t, std::pair<Tick, Tick>> ticks; // acq, rel
    std::vector<std::uint64_t> order;
    for (const TraceEvent &ev : trace.events) {
        if (ev.kind == TraceEventKind::SyncAcquire) {
            ticks[ev.a].first = ev.tick;
            order.push_back(ev.a);
        } else if (ev.kind == TraceEventKind::SyncRelease) {
            ticks[ev.a].second = ev.tick;
        }
    }
    std::vector<SchedulePerturbation> frontier;
    for (std::size_t k = 0;
         k + 1 < order.size() && frontier.size() < max_flips; ++k) {
        const Episode &e1 = *by_id.at(order[k]);
        const Episode &e2 = *by_id.at(order[k + 1]);
        if (e1.wavefrontId == e2.wavefrontId || !scanDependent(e1, e2))
            continue;
        const Tick acq1 = ticks[e1.id].first;
        const auto [acq2, rel2] = ticks[e2.id];
        if (acq2 <= acq1)
            continue;
        const Tick span = rel2 > acq2 ? rel2 - acq2 : 0;
        SchedulePerturbation child;
        child.add(e1.id, (acq2 - acq1) + span / 2 + 1);
        frontier.push_back(std::move(child));
    }
    return frontier;
}

bool
samePerturbation(const SchedulePerturbation &x,
                 const SchedulePerturbation &y)
{
    if (x.delays.size() != y.delays.size())
        return false;
    for (std::size_t i = 0; i < x.delays.size(); ++i) {
        if (x.delays[i].episodeId != y.delays[i].episodeId ||
            x.delays[i].ticks != y.delays[i].ticks)
            return false;
    }
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// HB model: micro-trace truth table
// ---------------------------------------------------------------------

TEST(HbModel, GpuReleaseAcquireOrdersAcrossCus)
{
    // wf0/cu0 releases gpu-scoped before wf2/cu1's gpu-scoped acquire:
    // drain + flash invalidate = a real sync path.
    ReproTrace t = microTrace({{0, Scope::Gpu, 10, 20},
                               {2, Scope::Gpu, 30, 40}});
    HbModel hb = HbModel::build(t);
    EXPECT_EQ(hb.orderSource(), HbOrderSource::SyncEvents);
    EXPECT_TRUE(hb.orderedBefore(0, 1));
    EXPECT_FALSE(hb.orderedBefore(1, 0));
    EXPECT_TRUE(hb.ordered(0, 1));
    EXPECT_TRUE(hb.sync(0).observed);
    EXPECT_EQ(hb.cuOf(0), 0u);
    EXPECT_EQ(hb.cuOf(1), 1u);
}

TEST(HbModel, CtaReleaseDoesNotReachRemoteCu)
{
    // wf0's cta-scoped release never drains past its own L1, so wf2's
    // gpu-scoped acquire on the other CU learns nothing.
    ReproTrace t = microTrace({{0, Scope::Cta, 10, 20},
                               {2, Scope::Gpu, 30, 40}});
    HbModel hb = HbModel::build(t);
    EXPECT_FALSE(hb.orderedBefore(0, 1));
    EXPECT_FALSE(hb.ordered(0, 1));
    EXPECT_NE(hb.explainUnordered(0, 1, t).find("skipped the drain"),
              std::string::npos);
}

TEST(HbModel, CtaAcquireDoesNotSeeRemoteDrain)
{
    // wf0's gpu-scoped release drains, but wf2's cta-scoped acquire
    // skips the flash invalidate: stale L1 data stays legal.
    ReproTrace t = microTrace({{0, Scope::Gpu, 10, 20},
                               {2, Scope::Cta, 30, 40}});
    HbModel hb = HbModel::build(t);
    EXPECT_FALSE(hb.orderedBefore(0, 1));
    EXPECT_NE(hb.explainUnordered(0, 1, t).find("flash invalidate"),
              std::string::npos);
}

TEST(HbModel, CtaPairOrdersWithinCu)
{
    // Same CU (wf0 and wf1 share cu0): the shared L1 is the cta sharing
    // domain, so cta release -> cta acquire is a sync path.
    ReproTrace t = microTrace({{0, Scope::Cta, 10, 20},
                               {1, Scope::Cta, 30, 40}});
    HbModel hb = HbModel::build(t);
    EXPECT_TRUE(hb.orderedBefore(0, 1));
    EXPECT_FALSE(hb.orderedBefore(1, 0));
}

TEST(HbModel, AcquireBeforeReleaseIsTimingNotSync)
{
    // wf2's acquire completed before wf0's release: the observed order
    // was timing luck, no happens-before edge exists either way.
    ReproTrace t = microTrace({{0, Scope::Gpu, 25, 30},
                               {2, Scope::Gpu, 5, 40}});
    HbModel hb = HbModel::build(t);
    EXPECT_FALSE(hb.orderedBefore(0, 1));
    EXPECT_FALSE(hb.orderedBefore(1, 0));
    EXPECT_NE(hb.explainUnordered(0, 1, t).find("timing"),
              std::string::npos);
}

TEST(HbModel, ProgramOrderAlwaysOrdersSameWavefront)
{
    // Two unsynchronized episodes of one wavefront: program order wins
    // regardless of scopes or ticks.
    ReproTrace t = microTrace({{0, Scope::Cta, 10, 20},
                               {0, Scope::Cta, 30, 40}});
    HbModel hb = HbModel::build(t);
    EXPECT_TRUE(hb.orderedBefore(0, 1));
    EXPECT_FALSE(hb.orderedBefore(1, 0));
    EXPECT_EQ(hb.programIndex(0), 0u);
    EXPECT_EQ(hb.programIndex(1), 1u);
}

TEST(HbModel, GpuReleaseDrainsCtaPendingWrites)
{
    // wf0 releases cta-scoped; wf1 (same CU) later releases gpu-scoped,
    // draining the whole CU — wf0's epoch included. wf2's gpu acquire
    // on the remote CU therefore inherits wf0 transitively.
    ReproTrace t = microTrace({{0, Scope::Cta, 10, 20},
                               {1, Scope::Gpu, 30, 40},
                               {2, Scope::Gpu, 50, 60}});
    HbModel hb = HbModel::build(t);
    EXPECT_TRUE(hb.orderedBefore(0, 2));
    EXPECT_TRUE(hb.orderedBefore(1, 2));
    // ...but without the intermediate drain the same pair is unordered.
    ReproTrace bare = microTrace({{0, Scope::Cta, 10, 20},
                                  {2, Scope::Gpu, 50, 60}});
    EXPECT_FALSE(HbModel::build(bare).orderedBefore(0, 1));
}

TEST(HbModel, OrderSourceFallbacks)
{
    ReproTrace t = microTrace({{0, Scope::Gpu, 10, 20},
                               {2, Scope::Gpu, 30, 40}});
    EXPECT_EQ(HbModel::build(t).orderSource(),
              HbOrderSource::SyncEvents);

    // Pre-v4 stream: only episode begin/end markers. Scopes come from
    // the schedule, order from the markers — same verdicts.
    ReproTrace markers = t;
    for (TraceEvent &ev : markers.events) {
        ev.kind = ev.kind == TraceEventKind::SyncAcquire
                      ? TraceEventKind::EpisodeIssue
                      : TraceEventKind::EpisodeRetire;
    }
    HbModel hb = HbModel::build(markers);
    EXPECT_EQ(hb.orderSource(), HbOrderSource::EpisodeMarkers);
    EXPECT_TRUE(hb.orderedBefore(0, 1));

    // No events at all: schedule order approximation.
    ReproTrace none = t;
    none.events.clear();
    HbModel sched = HbModel::build(none);
    EXPECT_EQ(sched.orderSource(), HbOrderSource::ScheduleOrder);
    EXPECT_TRUE(sched.orderedBefore(0, 1));

    EXPECT_STREQ(hbOrderSourceName(HbOrderSource::SyncEvents),
                 "sync_events");
    EXPECT_STREQ(hbOrderSourceName(HbOrderSource::EpisodeMarkers),
                 "episode_markers");
    EXPECT_STREQ(hbOrderSourceName(HbOrderSource::ScheduleOrder),
                 "schedule_order");
}

// ---------------------------------------------------------------------
// Predictive pass: properties on real recorded runs
// ---------------------------------------------------------------------

TEST(Predict, UnscopedTraceYieldsNoCandidates)
{
    // Unscoped episodes carry device-wide sync, so every conflicting
    // pair is release/acquire-ordered: the pass must stay silent.
    ReproTrace trace = recordPassing(1, ScopeMode::None, 4, 8);
    ASSERT_TRUE(trace.result.passed);
    PredictReport report = predictRaces(trace);
    EXPECT_EQ(report.orderSource, HbOrderSource::SyncEvents);
    EXPECT_GT(report.pairsChecked, 0u);
    EXPECT_EQ(report.candidates, 0u);
    EXPECT_TRUE(report.races.empty());
    EXPECT_EQ(report.replays, 0u);
}

TEST(Predict, RacyTraceConfirmsRacesWithReplayableWitnesses)
{
    // A PASSING racy-scope run: the recorded schedule got lucky, the
    // predictive pass must find where.
    ReproTrace trace = recordPassing(1, ScopeMode::Racy, 4, 8);
    ASSERT_TRUE(trace.result.passed);

    PredictReport report = predictRaces(trace);
    EXPECT_GT(report.candidates, 0u);
    EXPECT_GE(report.confirmedCount(), 1u);
    EXPECT_EQ(report.confirmedCount() + report.demotedCount(),
              report.races.size());

    // Soundness: every verdict is replay-backed. A confirmed race's
    // witness perturbation must reproduce its failure; a demoted race's
    // witness prefix must still pass — i.e. the pass never *confirms* a
    // pair that replay proves ordered.
    for (const PredictedRace &race : report.races) {
        ASSERT_TRUE(race.verified);
        EXPECT_NE(race.first.wavefront, race.second.wavefront);
        EXPECT_EQ(race.first.var, race.second.var);
        EXPECT_TRUE(race.first.isWrite || race.second.isWrite);
        EXPECT_FALSE(race.syncPath.empty());

        EpisodeSchedule witness = witnessSchedule(trace, race);
        ASSERT_GT(witness.size(), 0u);
        SchedulePerturbation perturb;
        if (race.witnessDelay != 0)
            perturb.add(race.first.episodeId, race.witnessDelay);
        TesterResult replay = replayGpuRun(trace, witness, true,
                                           nullptr, &perturb);
        if (race.confirmed) {
            EXPECT_FALSE(replay.passed);
            EXPECT_EQ(replay.failureClass, race.witnessClass);
            EXPECT_FALSE(race.witnessReport.empty());
        } else {
            EXPECT_TRUE(replay.passed)
                << "demoted pair's witness failed: " << race.syncPath;
            EXPECT_EQ(race.witnessClass, FailureClass::None);
        }
    }
}

TEST(Predict, ReportJsonCarriesVerdicts)
{
    ReproTrace trace = recordPassing(1, ScopeMode::Racy, 4, 8);
    PredictReport report = predictRaces(trace);
    std::string json = predictReportJson(trace, report);
    for (const char *key :
         {"\"order_source\":\"sync_events\"", "\"pairs_checked\":",
          "\"candidates\":", "\"confirmed\":", "\"demoted\":",
          "\"races\":[", "\"sync_path\":", "\"witness\":"}) {
        EXPECT_NE(json.find(key), std::string::npos)
            << "missing " << key;
    }
}

// ---------------------------------------------------------------------
// Predict goldens: the report bytes (pair counts, race list, verdicts)
// pinned per scope mode (DRF_PRINT_GOLDENS=1 prints the actual values)
// ---------------------------------------------------------------------

namespace
{

/** Digest of the predictive report on the first passing @p mode run
 *  recorded from @p seed upward (8 episodes/WF, 12 actions). */
std::uint64_t
predictDigest(ScopeMode mode, std::uint64_t seed)
{
    const ReproTrace trace = recordPassing(seed, mode, 8, 12);
    return drf::testing::Digest()
        .str(predictReportJson(trace, predictRaces(trace)))
        .value();
}

} // namespace

TEST(PredictGoldens, Unscoped)
{
    drf::testing::checkGolden("Unscoped/seed1",
                              predictDigest(ScopeMode::None, 1),
                              0xd138e6efc6bea045ull);
    drf::testing::checkGolden("Unscoped/seed2",
                              predictDigest(ScopeMode::None, 2),
                              0x00b4bd1085c5fbfaull);
}

TEST(PredictGoldens, Scoped)
{
    drf::testing::checkGolden("Scoped/seed1",
                              predictDigest(ScopeMode::Scoped, 1),
                              0x299026c5d17004daull);
    drf::testing::checkGolden("Scoped/seed2",
                              predictDigest(ScopeMode::Scoped, 2),
                              0xe14c6df6d9552851ull);
}

TEST(PredictGoldens, Racy)
{
    drf::testing::checkGolden("Racy/seed1",
                              predictDigest(ScopeMode::Racy, 1),
                              0x3155412536c61ca9ull);
    drf::testing::checkGolden("Racy/seed9",
                              predictDigest(ScopeMode::Racy, 9),
                              0xd8af42ff71529b06ull);
}

// ---------------------------------------------------------------------
// Explore strategy: determinism and reachability
// ---------------------------------------------------------------------

TEST(Explore, DeterministicAcrossWorkerCountsAndFindsScopeViolation)
{
    // Same seed-scan as tools/predict_sweep --explore: perturb a
    // passing racy base run.
    std::uint64_t base_seed = 0;
    recordPassing(1, ScopeMode::Racy, 6, 8, &base_seed);

    ExploreOptions opts;
    opts.budget = 64;
    opts.maxFlipsPerTrace = 12;

    AdaptiveCampaignResult results[2];
    std::string aggregates[2];
    const unsigned jobs[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        ExploreSource source(
            racyPreset(base_seed, ScopeMode::Racy, 6, 8), opts);
        ASSERT_TRUE(source.baseTrace().result.passed);

        AdaptiveCampaignConfig cfg;
        cfg.jobs = jobs[i];
        // Spend the whole budget: the aggregate then covers the same
        // exploration at any worker count (and the failure-class set
        // below is the full schedule-reachable one).
        cfg.stopOnFailure = false;
        results[i] = runAdaptiveCampaign(source, cfg);
        aggregates[i] = adaptiveAggregatesJson(results[i], "gpu_tester");

        EXPECT_GT(source.issued(), 0u);
        if (i == 0) {
            // The acceptance bar: some explored interleaving of this
            // passing run manifests the reference scoped-sync bug.
            EXPECT_TRUE(source.failuresByClass().count(
                FailureClass::ScopeViolation))
                << "no ScopeViolation within budget " << opts.budget;
        }
        ASSERT_TRUE(results[i].predictTriage.has_value());
        EXPECT_GT(results[i].predictTriage->interleavings, 0u);
    }

    EXPECT_EQ(aggregates[0], aggregates[1])
        << "explore aggregates differ between jobs=1 and jobs=4";
    EXPECT_EQ(results[0].shardsRun, results[1].shardsRun);

    // The explore campaign JSON carries the populated triage block.
    std::string json = adaptiveCampaignToJson(results[0], "gpu_tester");
    EXPECT_NE(json.find("\"strategy\":\"explore\""), std::string::npos);
    EXPECT_NE(json.find("\"predicted_races\":{\"candidates\":"),
              std::string::npos);
}

TEST(Explore, PullAheadIssuesTheBarrierBatches)
{
    std::uint64_t base_seed = 0;
    recordPassing(1, ScopeMode::Racy, 6, 8, &base_seed);

    ExploreOptions opts;
    opts.budget = 24;
    opts.batchSize = 2;
    opts.maxFlipsPerTrace = 12;

    // At jobs 1 the loop pulls only with nothing running, which is the
    // barrier schedule; at jobs 4 two-shard batches leave workers free,
    // so batches are pulled while earlier ones still run.
    std::vector<std::vector<std::pair<std::string, std::uint64_t>>>
        batches[2];
    std::string aggregates[2];
    const unsigned jobs[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        ExploreSource source(
            racyPreset(base_seed, ScopeMode::Racy, 6, 8), opts);
        BatchLog log(source);
        AdaptiveCampaignConfig cfg;
        cfg.jobs = jobs[i];
        cfg.stopOnFailure = false;
        AdaptiveCampaignResult res = runAdaptiveCampaign(log, cfg);
        batches[i] = log.batches;
        aggregates[i] = adaptiveAggregatesJson(res, "gpu_tester");
        EXPECT_EQ(res.rounds, log.batches.size());
        if (i == 0)
            EXPECT_EQ(log.earlyPulls, 0u);
        else
            EXPECT_GE(log.earlyPulls, 1u) << "never pulled ahead";
    }
    ASSERT_GT(batches[0].size(), 2u);
    EXPECT_EQ(batches[0], batches[1]);
    EXPECT_EQ(aggregates[0], aggregates[1]);
}

TEST(Explore, StopOnFailureTriageIsJobsInvariant)
{
    std::uint64_t base_seed = 0;
    recordPassing(1, ScopeMode::Racy, 6, 8, &base_seed);

    ExploreOptions opts;
    opts.budget = 64;
    opts.batchSize = 2;
    opts.maxFlipsPerTrace = 12;

    // Batches pulled ahead of the failing one are discarded, and so
    // must not count as explored interleavings.
    AdaptiveCampaignResult results[2];
    const unsigned jobs[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        ExploreSource source(
            racyPreset(base_seed, ScopeMode::Racy, 6, 8), opts);
        AdaptiveCampaignConfig cfg;
        cfg.jobs = jobs[i];
        cfg.stopOnFailure = true;
        results[i] = runAdaptiveCampaign(source, cfg);
        ASSERT_TRUE(results[i].firstFailure.has_value());
        ASSERT_TRUE(results[i].predictTriage.has_value());
    }
    EXPECT_EQ(results[0].firstFailure->seed, results[1].firstFailure->seed);
    EXPECT_EQ(results[0].firstFailure->name, results[1].firstFailure->name);
    EXPECT_EQ(results[0].rounds, results[1].rounds);
    EXPECT_EQ(results[0].predictTriage->interleavings,
              results[1].predictTriage->interleavings);
}

TEST(Explore, TesterOnlyRecorderHoldsTheFullTracesTesterMarkers)
{
    std::uint64_t base_seed = 0;
    const ReproTrace base =
        recordPassing(1, ScopeMode::Racy, 6, 8, &base_seed);
    ASSERT_FALSE(base.schedule.episodes.empty());
    SchedulePerturbation perturb;
    perturb.add(base.schedule.episodes.front().id, 40);

    // One perturbed replay, as an explore shard runs it.
    auto replay = [&](bool tester_only, TraceRecorder &rec) {
        ApuSystem sys(base.system);
        if (tester_only)
            sys.attachTesterTrace(rec);
        else
            sys.attachTrace(rec);
        GpuTesterConfig cfg = base.tester;
        cfg.replay = &base.schedule;
        cfg.perturb = &perturb;
        GpuTester tester(sys, cfg);
        return tester.run();
    };
    TraceRecorder full_rec, tester_rec;
    const TesterResult full = replay(false, full_rec);
    const TesterResult tester_only = replay(true, tester_rec);

    EXPECT_EQ(full.passed, tester_only.passed);
    EXPECT_EQ(full.events, tester_only.events);
    EXPECT_EQ(full.ticks, tester_only.ticks);
    EXPECT_EQ(full.episodes, tester_only.episodes);

    std::vector<TraceEvent> expected;
    for (const TraceEvent &ev : full_rec.events()) {
        if (isTesterMarker(ev))
            expected.push_back(ev);
    }
    ASSERT_LT(expected.size(), full_rec.events().size());
    const std::vector<TraceEvent> &got = tester_rec.events();
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_TRUE(sameEvent(got[i], expected[i])) << "event " << i;
    EXPECT_TRUE(std::any_of(got.begin(), got.end(), [](const TraceEvent &e) {
        return e.kind == TraceEventKind::SyncAcquire;
    }));
}

TEST(Explore, DependenceBitsetsMatchTheEpisodeScan)
{
    // An unscoped and a racy base schedule; both draw their acquires
    // and releases from 10 shared atomic sync variables.
    for (ScopeMode mode : {ScopeMode::None, ScopeMode::Racy}) {
        SCOPED_TRACE(scopeModeName(mode));
        const ReproTrace base = recordPassing(1, mode, 6, 8);
        const std::vector<Episode> &eps = base.schedule.episodes;
        ASSERT_GT(eps.size(), 1u);
        const DependenceIndex deps(base.schedule);

        std::size_t by_sync = 0, by_data = 0, independent = 0;
        for (std::size_t a = 0; a < eps.size(); ++a) {
            EXPECT_EQ(deps.indexOf(eps[a].id), a);
            for (std::size_t b = 0; b < eps.size(); ++b) {
                const bool want = scanDependent(eps[a], eps[b]);
                ASSERT_EQ(deps.dependent(a, b), want)
                    << "episodes " << eps[a].id << " and " << eps[b].id;
                if (!want)
                    ++independent;
                else if (eps[a].syncVar == eps[b].syncVar)
                    ++by_sync;
                else
                    ++by_data;
            }
        }
        // Every branch of the verdict is exercised.
        EXPECT_GT(by_sync, eps.size());
        EXPECT_GT(by_data, 0u);
        EXPECT_GT(independent, 0u);
        EXPECT_EQ(deps.indexOf(~std::uint64_t(0)), DependenceIndex::npos);
    }
}

TEST(Explore, MarkerOnlyBaseKeepsTheReportAndFrontier)
{
    std::uint64_t base_seed = 0;
    recordPassing(1, ScopeMode::Racy, 6, 8, &base_seed);
    const GpuTestPreset preset =
        racyPreset(base_seed, ScopeMode::Racy, 6, 8);
    RecordOptions rec;
    rec.captureEvents = true;
    const ReproTrace full = recordGpuRun(preset, rec);

    ExploreOptions opts;
    opts.batchSize = 2;
    opts.maxFlipsPerTrace = 12;
    ExploreSource source(preset, opts);
    const ReproTrace &base = source.baseTrace();

    // The same run, whose events are the full trace's sync markers and
    // nothing else.
    EXPECT_EQ(base.presetName, full.presetName);
    EXPECT_TRUE(base.result.passed);
    EXPECT_EQ(base.result.ticks, full.result.ticks);
    EXPECT_EQ(base.result.events, full.result.events);
    ASSERT_EQ(base.schedule.size(), full.schedule.size());
    for (std::size_t i = 0; i < base.schedule.size(); ++i)
        EXPECT_EQ(base.schedule.episodes[i].id,
                  full.schedule.episodes[i].id);
    std::vector<TraceEvent> markers;
    for (const TraceEvent &ev : full.events) {
        if (isSyncMarker(ev))
            markers.push_back(ev);
    }
    ASSERT_LT(markers.size(), full.events.size());
    ASSERT_EQ(base.events.size(), markers.size());
    for (std::size_t i = 0; i < markers.size(); ++i)
        ASSERT_TRUE(sameEvent(base.events[i], markers[i])) << "event " << i;

    // The triage is the full-capture pass's, and so is the whole report
    // but for the number of events the HB build consumed.
    PredictReport want = predictRaces(full, opts.predict);
    PredictReport got = predictRaces(base, opts.predict);
    ASSERT_TRUE(source.predictTriage().has_value());
    const PredictTriage triage = *source.predictTriage();
    EXPECT_GT(want.candidates, 0u);
    EXPECT_EQ(triage.candidates, want.candidates);
    EXPECT_EQ(triage.confirmed, want.confirmedCount());
    EXPECT_EQ(triage.demoted, want.demotedCount());
    EXPECT_EQ(triage.interleavings, want.replays);
    ASSERT_FALSE(want.races.empty());
    EXPECT_EQ(triage.firstPair.find(
                  "episode " +
                  std::to_string(want.races.front().first.episodeId) +
                  " "),
              0u);
    EXPECT_EQ(got.eventsAnalyzed, markers.size());
    got.eventsAnalyzed = want.eventsAnalyzed = 0;
    EXPECT_EQ(predictReportJson(full, got), predictReportJson(full, want));

    // The frontier, and so the first batch, is the one the full trace's
    // markers give under the episode-scan dependence test.
    const std::vector<SchedulePerturbation> frontier =
        referenceFrontier(full, opts.maxFlipsPerTrace);
    ASSERT_GT(frontier.size(), opts.batchSize);
    ASSERT_EQ(source.frontier().size(), frontier.size());
    for (std::size_t i = 0; i < frontier.size(); ++i)
        EXPECT_TRUE(samePerturbation(source.frontier()[i], frontier[i]))
            << "perturbation " << i;
    EXPECT_EQ(source.nextBatch().size(), opts.batchSize);
    ASSERT_EQ(source.frontier().size(), frontier.size() - opts.batchSize);
    EXPECT_TRUE(samePerturbation(source.frontier().front(),
                                 frontier[opts.batchSize]));
}
