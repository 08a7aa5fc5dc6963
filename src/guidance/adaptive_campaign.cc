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
combinedDigest(const CoverageAccumulator &l1,
               const CoverageAccumulator &l2)
{
    if (l1.empty() && l2.empty())
        return 0;
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(l1.empty() ? 0 : l1.grid().activeDigest());
    mix(l2.empty() ? 0 : l2.grid().activeDigest());
    return h;
}

} // namespace

FeedbackLoop::FeedbackLoop(ShardSource &source,
                           const AdaptiveCampaignConfig &cfg)
    : _source(source), _cfg(cfg)
{
    _res.strategy = source.strategy();
}

void
FeedbackLoop::beginRound()
{
    ++_res.rounds;
}

void
FeedbackLoop::onOutcome(const ShardOutcome &out, double wall_seconds)
{
    ShardFeedback fb;
    fb.episodes = out.result.episodes;
    fb.actions = out.result.loadsChecked + out.result.storesRetired +
                 out.result.atomicsChecked;
    if (out.l1)
        fb.newL1Cells = _l1.add(*out.l1);
    if (out.l2)
        fb.newL2Cells = _l2.add(*out.l2);
    fb.unionL1Active = _l1.activeCount(_cfg.coverageTestType);
    fb.unionL2Active = _l2.activeCount(_cfg.coverageTestType);
    fb.passed = out.result.passed;

    ++_res.shardsRun;
    _res.totalEpisodes += fb.episodes;
    _res.totalActions += fb.actions;
    _res.totalEvents += out.result.events;
    _res.busySeconds += out.result.hostSeconds;

    CoveragePoint point;
    point.shardsCompleted = _res.shardsRun;
    point.l1Pct = _l1.coveragePct(_cfg.coverageTestType);
    point.l2Pct = _l2.coveragePct(_cfg.coverageTestType);
    point.cumulativeEvents = _res.totalEvents;
    point.wallSeconds = wall_seconds;
    point.shardName = out.name;
    point.shardSeed = out.seed;
    point.shardEpisodes = fb.episodes;
    point.shardActions = fb.actions;
    point.cumulativeEpisodes = _res.totalEpisodes;
    point.cumulativeActions = _res.totalActions;
    point.newCells = fb.newL1Cells + fb.newL2Cells;
    _res.curve.push_back(std::move(point));

    if (!out.result.passed && !_res.firstFailure) {
        _res.firstFailure = ShardFailure{out.name, out.seed, out.index,
                                         out.result.report};
        _res.firstFailureClass = out.result.failureClass;
        _res.failurePreset = _source.presetForSeed(out.seed);
    }

    _source.report(out, fb);
}

bool
FeedbackLoop::stopRequested() const
{
    if (_res.firstFailure && _cfg.stopOnFailure)
        return true;
    if (_cfg.saturationPct > 0.0 && (!_l1.empty() || !_l2.empty()) &&
        (_l1.empty() || _l1.coveragePct(_cfg.coverageTestType) >=
                            _cfg.saturationPct) &&
        (_l2.empty() || _l2.coveragePct(_cfg.coverageTestType) >=
                            _cfg.saturationPct)) {
        return true;
    }
    return false;
}

AdaptiveCampaignResult
FeedbackLoop::take(double wall_seconds, unsigned jobs)
{
    _res.passed = !_res.firstFailure.has_value();
    _res.wallSeconds = wall_seconds;
    _res.jobs = jobs;
    if (!_l1.empty())
        _res.l1Union = _l1.grid();
    if (!_l2.empty())
        _res.l2Union = _l2.grid();
    _res.unionDigest = combinedDigest(_l1, _l2);
    if (auto *guided = dynamic_cast<GuidedSource *>(&_source))
        _res.decisions = guided->decisions();
    _res.predictTriage = _source.predictTriage();
    return std::move(_res);
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

    /** Block until something was posted; take everything posted. */
    std::vector<Post>
    wait()
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _cv.wait(lock, [this] { return !_posts.empty(); });
        return std::exchange(_posts, {});
    }

  private:
    std::mutex _mutex;
    std::condition_variable _cv;
    std::vector<Post> _posts;
};

} // namespace

BatchWindow::BatchWindow(ShardSource &source, std::size_t max_batches)
    : _source(source), _streaming(feedbackFree(source.strategy())),
      _maxBatches(max_batches)
{
}

bool
BatchWindow::mayPull(std::size_t in_flight, std::size_t capacity) const
{
    if (_exhausted || capped())
        return false;
    return _streaming ? in_flight < capacity : _batches.empty();
}

std::vector<ShardSpec>
BatchWindow::pull()
{
    std::vector<ShardSpec> batch = _source.nextBatch();
    if (batch.empty()) {
        _exhausted = true;
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
}

bool
BatchWindow::capped() const
{
    return !_exhausted && _maxBatches != 0 && _pulled >= _maxBatches;
}

AdaptiveCampaignResult
runAdaptiveCampaign(ShardSource &source, const AdaptiveCampaignConfig &cfg)
{
    FeedbackLoop loop(source, cfg);
    BatchWindow window(source);
    const bool streaming = feedbackFree(source.strategy());
    const unsigned jobs =
        cfg.jobs != 0 ? cfg.jobs : ThreadPool::defaultThreads();
    Clock::time_point start = Clock::now();

    // A shard whose global index is above this skips itself when it
    // would start: lowered to a failing shard's index under
    // stopOnFailure (as a barrier skips the rest of a failing batch),
    // and to 0 once the loop stops.
    std::atomic<std::size_t> skipAfter{SIZE_MAX};
    Mailbox mailbox;
    // Posted outcomes of undrained batches, by global index (nullopt:
    // the shard skipped itself).
    std::map<std::size_t, std::optional<ShardOutcome>> arrived;
    std::size_t running = 0; ///< submitted shards not yet posted
    // Declared after everything its jobs touch, so it drains first.
    std::optional<ThreadPool> pool;

    // Every ShardSource call below stays on this driving thread.
    auto submit = [&](std::vector<ShardSpec> batch) {
        // A barrier runs one batch at a time, so its pool grows (idle,
        // between batches) only to the largest batch: a thread beyond
        // that would only take turns with the others, and each thread
        // that ran a shard keeps its own allocator arena resident.
        const unsigned want =
            streaming ? jobs
                      : static_cast<unsigned>(std::min<std::size_t>(
                            jobs, batch.size()));
        if (!pool || pool->threadCount() < want)
            pool.emplace(want);
        std::size_t index = window.end() - batch.size();
        for (ShardSpec &spec : batch) {
            pool->submit([&, index = index++, spec = std::move(spec)] {
                if (index > skipAfter.load(std::memory_order_acquire)) {
                    mailbox.post(index, std::nullopt);
                    return;
                }
                ShardOutcome out = runShardIsolated(spec, index);
                if (!out.result.passed && cfg.stopOnFailure &&
                    !isHostFailureClass(out.result.failureClass)) {
                    std::size_t cur = skipAfter.load();
                    while (index < cur &&
                           !skipAfter.compare_exchange_weak(cur, index)) {
                    }
                }
                mailbox.post(index, std::move(out));
            });
        }
        running += batch.size();
    };

    for (;;) {
        while (window.mayPull(running, jobs)) {
            std::vector<ShardSpec> batch = window.pull();
            if (batch.empty())
                break;
            submit(std::move(batch));
        }
        if (window.empty())
            break;

        for (Mailbox::Post &post : mailbox.wait()) {
            --running;
            arrived.emplace(post.first, std::move(post.second));
        }

        // Drain complete batches in index order: the source sees the
        // same stream, and the stop policy runs at the same batch
        // boundaries, as under a barrier.
        auto posted = [&](std::size_t i) { return arrived.count(i) != 0; };
        bool stop = false;
        while (!stop && window.frontDone(posted)) {
            loop.beginRound();
            for (std::size_t i = window.front().first;
                 i < window.front().end; ++i) {
                auto it = arrived.find(i);
                if (it->second)
                    loop.onOutcome(*it->second, secondsSince(start));
                arrived.erase(it);
            }
            window.popFront();
            stop = loop.stopRequested();
        }
        if (stop) {
            // Batches pulled ahead are never reported or counted.
            skipAfter.store(0, std::memory_order_release);
            pool->cancelPending();
            break;
        }
    }

    const unsigned used = pool ? pool->threadCount() : 0;
    pool.reset(); // shards of discarded batches may still be running
    return loop.take(secondsSince(start), used);
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
    w.key("total_actions").value(result.totalActions);
    w.key("total_events").value(result.totalEvents);
    if (volatile_fields) {
        w.key("wall_seconds").value(result.wallSeconds);
        w.key("busy_seconds").value(result.busySeconds);
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
    for (const CoveragePoint &p : result.curve) {
        w.beginObject();
        w.key("shards")
            .value(static_cast<std::uint64_t>(p.shardsCompleted));
        w.key("shard_name").value(p.shardName);
        w.key("shard_seed").value(p.shardSeed);
        w.key("shard_episodes").value(p.shardEpisodes);
        w.key("shard_actions").value(p.shardActions);
        w.key("cumulative_episodes").value(p.cumulativeEpisodes);
        w.key("cumulative_actions").value(p.cumulativeActions);
        w.key("new_cells").value(static_cast<std::uint64_t>(p.newCells));
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
