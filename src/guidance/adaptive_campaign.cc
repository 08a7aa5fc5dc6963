#include "guidance/adaptive_campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

#include "campaign/campaign_json.hh"
#include "campaign/thread_pool.hh"

namespace drf
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** FNV-1a over the two unions' active-set digests. */
std::uint64_t
combinedDigest(const std::optional<CoverageGrid> &l1,
               const std::optional<CoverageGrid> &l2)
{
    if (!l1 && !l2)
        return 0;
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(l1 ? l1->activeDigest() : 0);
    mix(l2 ? l2->activeDigest() : 0);
    return h;
}

/**
 * The feedback half of the campaign loop. Every outcome goes through
 * one ShardMerge, which builds the campaign aggregates (union
 * coverage, curve, totals, first failure, the failure and saturation
 * stop). This keeps only what a merge cannot know: the index-ordered
 * report() to the source with its ShardFeedback, the round count, the
 * failing shard's preset, the union digest, the decision log and the
 * predict triage. Call beginRound() for each batch, feed its outcomes
 * strictly in global shard-index order, then check stopRequested().
 * Because per-shard results are bit-exact functions of (configuration,
 * seed), the result is then identical however the outcomes were
 * actually computed — threads, worker processes, remote hosts, or a
 * resume journal.
 */
class FeedbackLoop
{
  public:
    /** @p merge_cfg is the merge policy (its jobs field is unused). */
    FeedbackLoop(ShardSource &source, const CampaignConfig &merge_cfg)
        : _source(source), _merge(merge_cfg, 0)
    {
    }

    /** Account one non-empty batch pulled from the source. */
    void beginRound() { ++_rounds; }

    /**
     * Feed one completed shard, global index order. @p wall_seconds
     * stamps the curve point (a per-run field, excluded from the
     * deterministic aggregate subset); @p resumed marks an outcome
     * adopted from a journal.
     */
    void
    onOutcome(const ShardOutcome &out, double wall_seconds, bool resumed)
    {
        const ShardDelta delta = _merge.add(out, wall_seconds, resumed);
        if (!out.result.passed && !_failed) {
            _failed = true;
            _failurePreset = _source.presetForSeed(out.seed);
        }

        ShardFeedback fb;
        fb.episodes = out.result.episodes;
        fb.actions = out.result.loadsChecked + out.result.storesRetired +
                     out.result.atomicsChecked;
        fb.newL1Cells = delta.newL1Cells;
        fb.newL2Cells = delta.newL2Cells;
        fb.unionL1Active = delta.unionL1Active;
        fb.unionL2Active = delta.unionL2Active;
        fb.passed = out.result.passed;
        _source.report(out, fb);
    }

    /** True once failure/saturation policy says to stop pulling. */
    bool stopRequested() const { return _merge.stopRequested(); }

    /** The campaign halted before its source ran dry. */
    void markInterrupted() { _merge.markInterrupted(); }

    /** Finalize: unions, digest, decision log. Call once. */
    AdaptiveCampaignResult
    take(double wall_seconds)
    {
        AdaptiveCampaignResult res;
        static_cast<CampaignResult &>(res) = _merge.take(wall_seconds);
        res.strategy = _source.strategy();
        res.rounds = _rounds;
        if (res.firstFailure)
            res.firstFailureClass = res.firstFailure->failureClass;
        res.failurePreset = std::move(_failurePreset);
        res.unionDigest = combinedDigest(res.l1Union, res.l2Union);
        res.decisions = _source.decisions();
        res.predictTriage = _source.predictTriage();
        return res;
    }

  private:
    ShardSource &_source;
    ShardMerge _merge;
    std::size_t _rounds = 0;
    std::optional<GpuTestPreset> _failurePreset;
    bool _failed = false;
};

/**
 * The in-process executor: shards run on one FIFO thread pool, in
 * submission order, started by the first submit, each through one
 * ShardRunner. Pool workers post finished shards to the driving thread;
 * a shard skipped after a stop posts nullopt, so its batch still
 * completes.
 */
class PoolExecutor final : public ShardExecutor
{
  public:
    explicit PoolExecutor(const SupervisorConfig &cfg)
        : _jobs(cfg.campaign.jobs != 0 ? cfg.campaign.jobs
                                       : ThreadPool::defaultThreads()),
          _runner(cfg, cfg.reproDir)
    {
        _runner.setStopCheck(
            [this] { return _stopped.load(std::memory_order_acquire); });
    }

    /** Shards of discarded batches may still be running: drop the
     *  queued ones, then the pool joins the rest. */
    ~PoolExecutor() override
    {
        if (_pool)
            _pool->cancelPending();
    }

    void
    submit(ShardSpec spec, std::size_t index) override
    {
        if (!_pool)
            _pool.emplace(_jobs);
        _pool->submit([this, index, spec = std::move(spec)]() mutable {
            if (_stopped.load(std::memory_order_acquire)) {
                post(index, std::nullopt);
                return;
            }
            post(index, _runner.run(std::move(spec), index));
        });
    }

    std::size_t capacity() override { return _jobs; }

    /** With @p poll, give up after 20 ms so the caller can check for a
     *  termination signal. */
    std::vector<Post>
    wait(bool poll) override
    {
        std::unique_lock<std::mutex> lock(_mutex);
        auto posted = [this] { return !_posts.empty(); };
        if (poll)
            _cv.wait_for(lock, std::chrono::milliseconds(20), posted);
        else
            _cv.wait(lock, posted);
        return std::exchange(_posts, {});
    }

    void
    stop() override
    {
        _stopped.store(true, std::memory_order_release);
    }

    /** Pool threads started; 0 when no shard was submitted. */
    unsigned threads() const { return _pool ? _pool->threadCount() : 0; }

  private:
    void
    post(std::size_t index, std::optional<ShardOutcome> out)
    {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _posts.emplace_back(index, std::move(out));
        }
        _cv.notify_one();
    }

    const unsigned _jobs;
    // Set by stop(): a shard that has not started skips itself. The
    // loop merges a stopping batch whole, as the fleet does, so no
    // failure skips the rest of its own batch.
    std::atomic<bool> _stopped{false};
    ShardRunner _runner;
    std::mutex _mutex;
    std::condition_variable _cv;
    std::vector<Post> _posts; ///< guarded by _mutex
    // Declared after everything its jobs touch, so it drains first.
    std::optional<ThreadPool> _pool;
};

/** Issues a fixed shard list, each spec as its own one-shard batch. */
class ShardListSource : public ShardSource
{
  public:
    explicit ShardListSource(std::vector<ShardSpec> shards)
        : _shards(std::move(shards))
    {
    }

    Strategy strategy() const override { return Strategy::Sweep; }

    std::vector<ShardSpec>
    nextBatch() override
    {
        std::vector<ShardSpec> batch;
        if (_next < _shards.size())
            batch.push_back(std::move(_shards[_next++]));
        return batch;
    }

  private:
    std::vector<ShardSpec> _shards;
    std::size_t _next = 0;
};

/** The campaign loop on a pool executor under @p cfg. */
AdaptiveCampaignResult
runPooled(ShardSource &source, const SupervisorConfig &cfg)
{
    PoolExecutor executor(cfg);
    AdaptiveCampaignResult res = runCampaignLoop(source, executor, cfg);
    res.jobs = executor.threads();
    return res;
}

} // namespace

CampaignConfig
mergePolicy(const AdaptiveCampaignConfig &cfg)
{
    CampaignConfig merge_cfg;
    merge_cfg.jobs = cfg.jobs;
    // The loop stops on the first failure of any class.
    merge_cfg.stopOnFailure = cfg.stopOnFailure;
    merge_cfg.stopOnHostFailure = cfg.stopOnFailure;
    merge_cfg.saturationPct = cfg.saturationPct;
    merge_cfg.coverageTestType = cfg.coverageTestType;
    return merge_cfg;
}

BatchWindow::BatchWindow(ShardSource &source, std::size_t max_batches)
    : _source(source), _maxBatches(max_batches)
{
}

bool
BatchWindow::mayPull(std::size_t in_flight, std::size_t capacity) const
{
    if (_exhausted || _waiting || capped())
        return false;
    return in_flight < capacity;
}

std::vector<ShardSpec>
BatchWindow::pull()
{
    std::vector<ShardSpec> batch = _source.nextBatch();
    if (batch.empty()) {
        // With batches still undrained, an empty answer only means the
        // source needs their feedback first: ask again after the next
        // drain. With nothing undrained it means the source is done.
        if (_batches.empty())
            _exhausted = true;
        else
            _waiting = true;
        return batch;
    }
    ++_pulled;
    _batches.push_back({_end, _end + batch.size()});
    _end += batch.size();
    return batch;
}

void
BatchWindow::popFront()
{
    _batches.pop_front();
    _waiting = false;
}

bool
BatchWindow::capped() const
{
    return !_exhausted && _maxBatches != 0 && _pulled >= _maxBatches;
}

AdaptiveCampaignResult
runCampaignLoop(ShardSource &source, ShardExecutor &executor,
                const SupervisorConfig &cfg, std::size_t max_batches,
                const CampaignJournal::Policy &journal_policy,
                JournalTriage *triage)
{
    FeedbackLoop loop(source, cfg.campaign);
    BatchWindow window(source, max_batches);

    // Damaged records (CRC failure, torn tail) are self-healed by
    // skipping: the counters say how much was lost, the shards re-run.
    JournalLoadStats resume_stats;
    std::map<std::size_t, ShardOutcome> adoptable;
    if (cfg.resume)
        adoptable = loadAdoptable(cfg.journalPath, &resume_stats);
    // Open for appending only after the resume pass read the file.
    CampaignJournal journal(cfg.journalPath, journal_policy);
    if (journal.ok()) {
        JsonWriter header;
        header.beginObject();
        header.key("v").value(1);
        header.key("kind").value("header");
        header.key("resumable")
            .value(static_cast<std::uint64_t>(adoptable.size()));
        header.endObject();
        journal.append(header.str());
    }
    SignalGuard signals(cfg.handleSignals);
    Clock::time_point start = Clock::now();

    // Outcomes of undrained batches, by global index: posted by the
    // executor (nullopt: the shard was skipped) or adopted from the
    // journal.
    struct Arrived
    {
        std::optional<ShardOutcome> out;
        bool resumed = false;
    };
    std::map<std::size_t, Arrived> arrived;
    std::size_t running = 0; ///< submitted shards not yet posted
    bool interrupted = false;
    bool stop = false;

    // Every ShardSource call below stays on this driving thread.
    auto submit = [&](std::vector<ShardSpec> batch) {
        std::size_t index = window.end() - batch.size();
        for (ShardSpec &spec : batch) {
            auto adopt = adoptable.find(index);
            if (adopt != adoptable.end() &&
                adopt->second.name == spec.name &&
                adopt->second.seed == spec.seed) {
                arrived[index++] = {std::move(adopt->second), true};
                continue;
            }
            executor.submit(std::move(spec), index++);
            ++running;
        }
    };

    auto posted = [&](std::size_t i) { return arrived.count(i) != 0; };
    for (;;) {
        // Drain complete batches in index order: the source sees the
        // same stream, the journal gets the same lines, and the stop
        // policy runs at the same batch boundaries, as under a barrier.
        // Each drained batch is synced to disk, so it is resumable
        // before the next shard is issued.
        while (!stop && window.frontDone(posted)) {
            const BatchWindow::Range batch = window.front();
            for (std::size_t i = batch.first; i < batch.end; ++i) {
                const Arrived &a = arrived[i];
                if (a.out && !a.resumed && journal.ok())
                    journal.append(shardOutcomeToJson(*a.out));
            }
            journal.flush(/*sync=*/true);
            loop.beginRound();
            const double wall = secondsSince(start);
            for (std::size_t i = batch.first; i < batch.end; ++i) {
                auto it = arrived.find(i);
                if (it->second.out)
                    loop.onOutcome(*it->second.out, wall,
                                   it->second.resumed);
                arrived.erase(it);
            }
            window.popFront();
            stop = loop.stopRequested();
        }
        if (stop) {
            // Batches pulled ahead are never reported or counted.
            executor.stop();
            break;
        }

        while (!interrupted &&
               window.mayPull(running, executor.capacity())) {
            std::vector<ShardSpec> batch = window.pull();
            if (batch.empty())
                break;
            submit(std::move(batch));
        }
        if (window.empty())
            break;
        if (window.frontDone(posted))
            continue; // completed by adopted outcomes alone

        for (ShardExecutor::Post &post : executor.wait(cfg.handleSignals)) {
            --running;
            arrived[post.first].out = std::move(post.second);
        }
        if (!interrupted && signals.caught()) {
            // Graceful shutdown: pull nothing more, let unstarted
            // shards be skipped and running ones finish, and drain
            // what completes.
            interrupted = true;
            executor.stop();
        }
    }
    // A signal that arrived after the last poll still counts, and so
    // does a batch cap that left the source undrained.
    if (signals.caught() || (window.capped() && !stop))
        loop.markInterrupted();
    journal.flush(/*sync=*/true);
    if (triage) {
        triage->resume = resume_stats;
        triage->writer = journal.status();
    }
    return loop.take(secondsSince(start));
}

AdaptiveCampaignResult
runAdaptiveCampaign(ShardSource &source, const AdaptiveCampaignConfig &cfg)
{
    SupervisorConfig supervised;
    supervised.campaign = mergePolicy(cfg);
    return runPooled(source, supervised);
}

CampaignResult
runSupervisedCampaign(std::vector<ShardSpec> shards,
                      const SupervisorConfig &cfg)
{
    const std::size_t planned = shards.size();
    SupervisorConfig capped = cfg;
    const unsigned jobs = cfg.campaign.jobs != 0
                              ? cfg.campaign.jobs
                              : ThreadPool::defaultThreads();
    capped.campaign.jobs =
        static_cast<unsigned>(std::min<std::size_t>(jobs, planned));
    ShardListSource source(std::move(shards));
    CampaignResult res = runPooled(source, capped);
    res.shardsPlanned = planned;
    res.shardsSkipped = planned - res.shardsRun;
    return res;
}

CampaignResult
runCampaign(std::vector<ShardSpec> shards, const CampaignConfig &cfg)
{
    SupervisorConfig supervised;
    supervised.campaign = cfg;
    return runSupervisedCampaign(std::move(shards), supervised);
}

namespace
{

void
writeGenome(JsonWriter &w, const ConfigGenome &g)
{
    w.beginObject();
    w.key("cache_class").value(cacheSizeClassName(g.cacheClass));
    w.key("actions_per_episode").value(g.actionsPerEpisode);
    w.key("episodes_per_wf").value(g.episodesPerWf);
    w.key("atomic_locs").value(g.atomicLocs);
    w.key("coloc_density").value(g.colocDensity);
    w.key("num_cus").value(g.numCus);
    w.key("protocol").value(protocolKindName(g.protocol));
    w.key("scope_mode").value(scopeModeName(g.scopeMode));
    w.endObject();
}

void
writeDecisions(JsonWriter &w,
               const std::vector<GuidanceDecision> &decisions)
{
    w.beginArray();
    for (const GuidanceDecision &d : decisions) {
        w.beginObject();
        w.key("round").value(static_cast<std::uint64_t>(d.round));
        w.key("arm").value(static_cast<std::uint64_t>(d.arm));
        w.key("mutant").value(d.mutant);
        w.key("probe").value(d.probe);
        w.key("genome");
        writeGenome(w, d.genome);
        w.key("seeds").beginArray();
        for (std::uint64_t seed : d.seeds)
            w.value(seed);
        w.endArray();
        w.key("episodes").value(d.episodes);
        w.key("actions").value(d.actions);
        w.key("new_cells").value(static_cast<std::uint64_t>(d.newCells));
        w.key("reward_per_kiloepisode").value(d.rewardPerKiloEpisode);
        w.endObject();
    }
    w.endArray();
}

} // namespace

std::string
guidanceDecisionsJson(const std::vector<GuidanceDecision> &decisions)
{
    JsonWriter w;
    writeDecisions(w, decisions);
    return w.str();
}

namespace
{

/**
 * Shared body of the two summary serializers. @p volatile_fields adds
 * the per-run fields (worker count, wall clock) that the deterministic
 * aggregate subset must exclude.
 */
std::string
writeCampaignJson(const AdaptiveCampaignResult &result,
                  const std::string &coverage_test_type,
                  bool volatile_fields)
{
    JsonWriter w;
    w.beginObject();
    w.key("strategy").value(strategyName(result.strategy));
    w.key("passed").value(result.passed);
    w.key("rounds").value(static_cast<std::uint64_t>(result.rounds));
    w.key("shards_run")
        .value(static_cast<std::uint64_t>(result.shardsRun));
    if (volatile_fields)
        w.key("jobs").value(result.jobs);
    w.key("total_episodes").value(result.totalEpisodes);
    w.key("total_actions").value(result.totalActions());
    w.key("total_events").value(result.totalEvents);
    if (volatile_fields) {
        w.key("wall_seconds").value(result.wallSeconds);
        w.key("busy_seconds").value(result.shardSecondsSum);
    }

    w.key("l1_union_pct");
    if (result.l1Union)
        w.value(result.l1Union->coveragePct(coverage_test_type));
    else
        w.nullValue();
    w.key("l2_union_pct");
    if (result.l2Union)
        w.value(result.l2Union->coveragePct(coverage_test_type));
    else
        w.nullValue();
    w.key("l1_union_active");
    if (result.l1Union)
        w.value(static_cast<std::uint64_t>(
            result.l1Union->activeCount(coverage_test_type)));
    else
        w.nullValue();
    w.key("l2_union_active");
    if (result.l2Union)
        w.value(static_cast<std::uint64_t>(
            result.l2Union->activeCount(coverage_test_type)));
    else
        w.nullValue();

    char digest[32];
    std::snprintf(digest, sizeof(digest), "0x%016llx",
                  static_cast<unsigned long long>(result.unionDigest));
    w.key("union_digest").value(digest);

    w.key("first_failure");
    if (result.firstFailure) {
        w.beginObject();
        w.key("name").value(result.firstFailure->name);
        w.key("seed").value(result.firstFailure->seed);
        w.key("failure_class")
            .value(failureClassName(result.firstFailureClass));
        w.key("report").value(result.firstFailure->report);
        w.endObject();
    } else {
        w.nullValue();
    }

    w.key("curve").beginArray();
    for (const CoveragePoint &p : result.saturationCurve) {
        w.beginObject();
        w.key("shards")
            .value(static_cast<std::uint64_t>(p.shardsCompleted));
        w.key("shard_name").value(p.shardName);
        w.key("shard_seed").value(p.shardSeed);
        w.key("shard_episodes").value(p.shardEpisodes);
        w.key("shard_actions").value(p.shardActions);
        w.key("cumulative_episodes").value(p.cumulativeEpisodes);
        w.key("cumulative_actions").value(p.cumulativeActions);
        w.key("new_cells").value(
            static_cast<std::uint64_t>(p.newL1Cells + p.newL2Cells));
        w.key("l1_pct").value(p.l1Pct);
        w.key("l2_pct").value(p.l2Pct);
        w.endObject();
    }
    w.endArray();

    w.key("guidance");
    if (result.strategy == Strategy::Guided)
        writeDecisions(w, result.decisions);
    else
        w.nullValue();

    // Always present (zeros for strategies without a predictive pass)
    // so aggregate strings stay structurally identical across
    // strategies — the fleet byte-compare tests rely on that.
    const PredictTriage triage =
        result.predictTriage.value_or(PredictTriage{});
    w.key("predicted_races").beginObject();
    w.key("candidates")
        .value(static_cast<std::uint64_t>(triage.candidates));
    w.key("confirmed")
        .value(static_cast<std::uint64_t>(triage.confirmed));
    w.key("demoted").value(static_cast<std::uint64_t>(triage.demoted));
    w.key("interleavings")
        .value(static_cast<std::uint64_t>(triage.interleavings));
    w.key("first_pair");
    if (triage.firstPair.empty())
        w.nullValue();
    else
        w.value(triage.firstPair);
    w.endObject();

    w.endObject();
    return w.str();
}

} // namespace

std::string
adaptiveCampaignToJson(const AdaptiveCampaignResult &result,
                       const std::string &coverage_test_type)
{
    return writeCampaignJson(result, coverage_test_type,
                             /*volatile_fields=*/true);
}

std::string
adaptiveAggregatesJson(const AdaptiveCampaignResult &result,
                       const std::string &coverage_test_type)
{
    return writeCampaignJson(result, coverage_test_type,
                             /*volatile_fields=*/false);
}

} // namespace drf
