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
#include "campaign/journal.hh"
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

/** The merge policy of an adaptive campaign. */
CampaignConfig
mergeConfig(const AdaptiveCampaignConfig &cfg)
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

} // namespace

FeedbackLoop::FeedbackLoop(ShardSource &source,
                           const CampaignConfig &merge_cfg)
    : _source(source), _merge(merge_cfg, 0)
{
}

FeedbackLoop::FeedbackLoop(ShardSource &source,
                           const AdaptiveCampaignConfig &cfg)
    : FeedbackLoop(source, mergeConfig(cfg))
{
}

void
FeedbackLoop::beginRound()
{
    ++_rounds;
}

void
FeedbackLoop::onOutcome(const ShardOutcome &out, double wall_seconds,
                        bool resumed)
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

AdaptiveCampaignResult
FeedbackLoop::take(double wall_seconds, unsigned jobs)
{
    _merge.setJobs(jobs);
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

namespace
{

/**
 * Pool workers hand finished shards to the driving thread through this
 * mailbox. A shard skipped after a stop posts nullopt, so its batch
 * still completes.
 */
class Mailbox
{
  public:
    using Post = std::pair<std::size_t, std::optional<ShardOutcome>>;

    void
    post(std::size_t index, std::optional<ShardOutcome> out)
    {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _posts.emplace_back(index, std::move(out));
        }
        _cv.notify_one();
    }

    /**
     * Take everything posted, blocking until something was. With
     * @p poll, give up after a short wait so the caller can check for
     * a termination signal; the result may then be empty.
     */
    std::vector<Post>
    wait(bool poll)
    {
        std::unique_lock<std::mutex> lock(_mutex);
        auto posted = [this] { return !_posts.empty(); };
        if (poll)
            _cv.wait_for(lock, std::chrono::milliseconds(20), posted);
        else
            _cv.wait(lock, posted);
        return std::exchange(_posts, {});
    }

  private:
    std::mutex _mutex;
    std::condition_variable _cv;
    std::vector<Post> _posts;
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

} // namespace

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
    _drained = _batches.front().end;
    _batches.pop_front();
    _waiting = false;
}

bool
BatchWindow::capped() const
{
    return !_exhausted && _maxBatches != 0 && _pulled >= _maxBatches;
}

namespace
{

/**
 * The one in-process campaign loop: @p source's shards run on one pool
 * through one ShardRunner, and cfg.campaign is the merge policy.
 */
AdaptiveCampaignResult
runLoop(ShardSource &source, const SupervisorConfig &cfg)
{
    FeedbackLoop loop(source, cfg.campaign);
    BatchWindow window(source);
    const unsigned jobs = cfg.campaign.jobs != 0
                              ? cfg.campaign.jobs
                              : ThreadPool::defaultThreads();

    std::map<std::size_t, ShardOutcome> adoptable;
    if (cfg.resume)
        adoptable = loadAdoptable(cfg.journalPath);
    // Open for appending only after the resume pass read the file.
    CampaignJournal journal(cfg.journalPath);
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

    // A shard whose global index is at or past this skips itself when
    // it would start: lowered past a shard whose failure stops the
    // merge (so everything up to it still runs, at any jobs), and to 0
    // once the loop stops or is interrupted.
    std::atomic<std::size_t> skipFrom{SIZE_MAX};
    ShardRunner runner(cfg);
    runner.setStopCheck([&skipFrom] {
        return skipFrom.load(std::memory_order_acquire) == 0;
    });
    Mailbox mailbox;
    // Outcomes of undrained batches, by global index: posted by a
    // worker (nullopt: the shard skipped itself) or adopted from the
    // journal.
    struct Arrived
    {
        std::optional<ShardOutcome> out;
        bool resumed = false;
    };
    std::map<std::size_t, Arrived> arrived;
    std::size_t running = 0; ///< submitted shards not yet posted
    bool interrupted = false;
    // Declared after everything its jobs touch, so it drains first.
    std::optional<ThreadPool> pool;

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
            if (!pool)
                pool.emplace(jobs);
            pool->submit([&, index = index++,
                          spec = std::move(spec)]() mutable {
                if (index >= skipFrom.load(std::memory_order_acquire)) {
                    mailbox.post(index, std::nullopt);
                    return;
                }
                ShardOutcome out = runner.run(std::move(spec), index);
                if (!out.result.passed &&
                    stopsCampaign(cfg.campaign, out.result.failureClass)) {
                    std::size_t cur = skipFrom.load();
                    while (index + 1 < cur &&
                           !skipFrom.compare_exchange_weak(cur,
                                                           index + 1)) {
                    }
                }
                mailbox.post(index, std::move(out));
            });
            ++running;
        }
    };

    auto posted = [&](std::size_t i) { return arrived.count(i) != 0; };
    for (;;) {
        // Drain complete batches in index order: the source sees the
        // same stream, the journal gets the same lines, and the stop
        // policy runs at the same batch boundaries, as under a barrier.
        bool stop = false;
        while (!stop && window.frontDone(posted)) {
            loop.beginRound();
            for (std::size_t i = window.front().first;
                 i < window.front().end; ++i) {
                auto it = arrived.find(i);
                if (const std::optional<ShardOutcome> &out = it->second.out) {
                    if (!it->second.resumed && journal.ok())
                        journal.append(shardOutcomeToJson(*out));
                    loop.onOutcome(*out, secondsSince(start),
                                   it->second.resumed);
                }
                arrived.erase(it);
            }
            window.popFront();
            stop = loop.stopRequested();
        }
        if (stop) {
            // Batches pulled ahead are never reported or counted.
            skipFrom.store(0, std::memory_order_release);
            if (pool)
                pool->cancelPending();
            break;
        }

        while (!interrupted && window.mayPull(running, jobs)) {
            std::vector<ShardSpec> batch = window.pull();
            if (batch.empty())
                break;
            submit(std::move(batch));
        }
        if (window.empty())
            break;
        if (window.frontDone(posted))
            continue; // completed by adopted outcomes alone

        for (Mailbox::Post &post : mailbox.wait(cfg.handleSignals)) {
            --running;
            arrived[post.first].out = std::move(post.second);
        }
        if (!interrupted && signals.caught()) {
            // Graceful shutdown: pull nothing more, let unstarted
            // shards skip themselves and running ones finish, and
            // drain what completes.
            interrupted = true;
            skipFrom.store(0, std::memory_order_release);
        }
    }
    // A signal that arrived after the last poll still counts.
    if (signals.caught())
        loop.markInterrupted();
    journal.flush(/*sync=*/true);

    const unsigned used = pool ? pool->threadCount() : 0;
    pool.reset(); // shards of discarded batches may still be running
    return loop.take(secondsSince(start), used);
}

} // namespace

AdaptiveCampaignResult
runAdaptiveCampaign(ShardSource &source, const AdaptiveCampaignConfig &cfg)
{
    SupervisorConfig supervised;
    supervised.campaign = mergeConfig(cfg);
    return runLoop(source, supervised);
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
    CampaignResult res = runLoop(source, capped);
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
