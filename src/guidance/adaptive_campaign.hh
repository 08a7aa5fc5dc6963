/**
 * @file
 * The one in-process campaign loop: ShardSource in, campaign batches
 * out.
 *
 * runAdaptiveCampaign() pulls batches from the source and runs their
 * shards on one work-stealing pool (src/campaign/) that lives for the
 * whole campaign, each through one ShardRunner (campaign/supervisor.hh)
 * — the shard barrier fleet workers use too. runCampaign and
 * runSupervisedCampaign run a fixed shard list on the same loop: the
 * list becomes a source that issues each shard as its own batch.
 * Finished shards wait in a reorder buffer; each batch is fed back
 * once it is complete, in global shard-index order, with its
 * newly-covered-cell counts computed against the cross-batch union.
 * The source is asked for its next batch as soon as a worker would
 * otherwise go idle, whatever its strategy; it answers with an empty
 * batch while that batch depends on feedback it has not received yet
 * (guided always, explore while its frontier is short), and is asked
 * again after the next batch drains. So a straggler idles the pool
 * only when the source itself has nothing to issue. That pull rule and
 * the reorder window live in BatchWindow, which the fleet coordinator
 * (src/fleet) schedules through as well.
 *
 * Checkpointing lives in the loop as well (SupervisorConfig): each
 * merged shard is appended to the journal at drain time, in index
 * order; on resume, a journaled outcome is adopted in place of running
 * its shard; and a caught SIGINT/SIGTERM stops the pulls, lets running
 * shards finish and drains them.
 *
 * Determinism contract: per-shard results are bit-exact functions of
 * (configuration, seed); the source only ever observes the
 * index-ordered outcome stream; and rounds are counted and the stop
 * policy checked at batch boundaries, however far ahead batches were
 * pulled. Outcomes of batches pulled ahead of a stop are discarded:
 * never reported, never counted. Therefore two runs with the same
 * master seed produce the identical shard schedule, decision log,
 * saturation curve and union-coverage digest at any worker count, and
 * a fixed list stops at the same shard. (After a failure that stops
 * the campaign, unstarted shards of the failing batch past the failure
 * are skipped; whether a higher-index shard of that batch had already
 * started is completion-order dependent at jobs > 1 — everything up to
 * and including the first failure is still reproducible.)
 */

#ifndef DRF_GUIDANCE_ADAPTIVE_CAMPAIGN_HH
#define DRF_GUIDANCE_ADAPTIVE_CAMPAIGN_HH

#include <deque>

#include "campaign/supervisor.hh"
#include "guidance/sources.hh"
#include "tester/tester_failure.hh"

namespace drf
{

/** Loop-level policy. */
struct AdaptiveCampaignConfig
{
    /** Campaign pool threads; 0 means ThreadPool::defaultThreads(). */
    unsigned jobs = 0;

    /** Stop pulling batches once any shard fails. */
    bool stopOnFailure = true;

    /** Test type used for coverage percentages. */
    std::string coverageTestType = "gpu_tester";

    /**
     * Early-stop on union coverage percent across L1 and L2, checked
     * after each batch; <= 0 disables.
     */
    double saturationPct = 0.0;
};

/**
 * Aggregated result of one adaptive (source-driven) campaign: the
 * merge's CampaignResult plus what only the loop and its source know.
 * The saturation curve is in deterministic feedback order, and
 * shardSecondsSum is the pool's busy time (jobs × wallSeconds −
 * shardSecondsSum is its idle time).
 */
struct AdaptiveCampaignResult : CampaignResult
{
    Strategy strategy = Strategy::Sweep;
    std::size_t rounds = 0;

    /** firstFailure's class (None when every shard passed). */
    FailureClass firstFailureClass = FailureClass::None;
    /** Preset of the first failing shard (for trace re-recording). */
    std::optional<GpuTestPreset> failurePreset;

    /**
     * Digest of both unions' active cell sets — the campaign's
     * reproducibility fingerprint (0 when no coverage was observed).
     */
    std::uint64_t unionDigest = 0;

    /** Guided mode only: the full decision log. */
    std::vector<GuidanceDecision> decisions;

    /**
     * Explore mode only: predictive-race triage from the source.
     * nullopt when the strategy never ran the predictive pass; the
     * campaign JSON renders that as an all-zero block, so aggregates
     * stay byte-comparable across strategies and runs.
     */
    std::optional<PredictTriage> predictTriage;
};

/**
 * The feedback half of the campaign loop, shared by the single-process
 * runner (runAdaptiveCampaign) and the fleet coordinator (src/fleet).
 * Every outcome goes through one ShardMerge, which builds the campaign
 * aggregates (union coverage, curve, totals, first failure, the
 * failure and saturation stop). The loop
 * keeps only what a merge cannot know: the index-ordered report() to
 * the source with its ShardFeedback, the round count, the failing
 * shard's preset, the union digest, the decision log and the predict
 * triage. Call beginRound() for each batch, feed its outcomes strictly
 * in global shard-index order, then check stopRequested(). Later
 * batches may already be running (pulled ahead under BatchWindow's
 * rule), but none of their outcomes may be fed before that check.
 * Because per-shard results are bit-exact functions of (configuration,
 * seed), the resulting AdaptiveCampaignResult is then identical however
 * the outcomes were actually computed — threads, worker processes,
 * remote hosts, or a resume journal.
 */
class FeedbackLoop
{
  public:
    /** @p merge_cfg is the merge policy (its jobs field is unused). */
    FeedbackLoop(ShardSource &source, const CampaignConfig &merge_cfg);
    FeedbackLoop(ShardSource &source, const AdaptiveCampaignConfig &cfg);

    /** Account one non-empty batch pulled from the source. */
    void beginRound();

    /**
     * Feed one completed shard, global index order. @p wall_seconds
     * stamps the curve point (a per-run field, excluded from the
     * deterministic aggregate subset); @p resumed marks an outcome
     * adopted from a journal.
     */
    void onOutcome(const ShardOutcome &out, double wall_seconds,
                   bool resumed = false);

    /** True once failure/saturation policy says to stop pulling. */
    bool stopRequested() const { return _merge.stopRequested(); }

    /** The campaign halted before its source ran dry. */
    void markInterrupted() { _merge.markInterrupted(); }

    /** Finalize: unions, digest, decision log. Call once. */
    AdaptiveCampaignResult take(double wall_seconds, unsigned jobs);

  private:
    ShardSource &_source;
    ShardMerge _merge;
    std::size_t _rounds = 0;
    std::optional<GpuTestPreset> _failurePreset;
    bool _failed = false;
};

/**
 * The scheduling half of the adaptive loop, shared by
 * runAdaptiveCampaign and the fleet coordinator (src/fleet): the pull
 * rule that decides when the source is asked for its next batch, and
 * the reorder window of batches pulled but not yet drained. Outcomes
 * themselves stay with the caller, keyed by global shard index; the
 * window only says which index range drains next.
 *
 * The pull rule asks the source whenever fewer shards are in flight
 * than the executors can hold, so no batch waits for its predecessor's
 * straggler, and lets the source's answer decide: an empty batch while
 * pulled batches are still undrained means "not yet" (its next batch
 * depends on their feedback), and the source is not asked again until
 * the next popFront(); an empty batch with nothing undrained means the
 * source ran dry. Batches drain strictly in pull order, each through
 * FeedbackLoop in global index order.
 */
class BatchWindow
{
  public:
    /** Global shard indices [first, end) of one pulled batch. */
    struct Range
    {
        std::size_t first = 0;
        std::size_t end = 0;
    };

    /** @p max_batches caps the batches ever pulled; 0 means no cap. */
    explicit BatchWindow(ShardSource &source, std::size_t max_batches = 0);

    /**
     * The pull rule: true if the next batch may be pulled while
     * @p in_flight shards are issued but unfinished and the executors
     * hold @p capacity.
     */
    bool mayPull(std::size_t in_flight, std::size_t capacity) const;

    /**
     * Pull the next batch; its shards take the global indices from
     * end() − size() on. An empty batch means "not yet" while batches
     * are undrained, and that the source ran dry otherwise.
     */
    std::vector<ShardSpec> pull();

    /** No pulled batch is waiting to drain. */
    bool empty() const { return _batches.empty(); }

    /** The oldest undrained batch: the only one that may drain. */
    const Range &front() const { return _batches.front(); }

    /** True if @p done(i) holds for every index i of the front batch
     *  (false when no batch is waiting). */
    template <typename Done>
    bool
    frontDone(Done done) const
    {
        if (_batches.empty())
            return false;
        for (std::size_t i = front().first; i < front().end; ++i) {
            if (!done(i))
                return false;
        }
        return true;
    }

    /** Retire the front batch after feeding it back. */
    void popFront();

    /** Every index below this has drained. */
    std::size_t drained() const { return _drained; }

    /** One past the last index pulled. */
    std::size_t end() const { return _end; }

    /** True if @p index was pulled and has not drained yet. */
    bool holds(std::size_t index) const
    {
        return index >= _drained && index < _end;
    }

    /** Pulls stopped at max_batches with the source not run dry. */
    bool capped() const;

  private:
    ShardSource &_source;
    const std::size_t _maxBatches;
    std::deque<Range> _batches;
    std::size_t _pulled = 0;
    std::size_t _drained = 0;
    std::size_t _end = 0;
    bool _exhausted = false;
    bool _waiting = false; ///< answered "not yet"; ask after popFront()
};

/** Drive @p source to completion under @p cfg. */
AdaptiveCampaignResult
runAdaptiveCampaign(ShardSource &source,
                    const AdaptiveCampaignConfig &cfg = {});

/**
 * Run a fixed shard list on the campaign loop under @p cfg's
 * supervision, journal and signal policy; blocks until every shard
 * ran, an early stop or an interrupt skipped the rest. Each shard is
 * its own batch, so the stop policy runs after every shard in index
 * order: the curve, the first failure and the skipped shards are the
 * same at any jobs. shardsPlanned is the list size, shardsSkipped the
 * shards that never merged, and jobs is capped at the list size.
 */
CampaignResult runSupervisedCampaign(std::vector<ShardSpec> shards,
                                     const SupervisorConfig &cfg);

/** runSupervisedCampaign with the default supervision and no journal. */
CampaignResult runCampaign(std::vector<ShardSpec> shards,
                           const CampaignConfig &cfg = {});

/** Decision log as a JSON array (embedded in campaign JSON/traces). */
std::string guidanceDecisionsJson(
    const std::vector<GuidanceDecision> &decisions);

/** Full adaptive campaign summary as one JSON object. */
std::string adaptiveCampaignToJson(const AdaptiveCampaignResult &result,
                                   const std::string &coverage_test_type);

/**
 * The deterministic subset of the campaign summary: everything in
 * adaptiveCampaignToJson except wall-clock fields and the worker
 * count. Two runs of the same source configuration and master seed —
 * whatever their thread count, worker fleet size, result arrival
 * order, or resume history — must produce byte-identical output here;
 * the fleet tests and CI compare these strings directly.
 */
std::string
adaptiveAggregatesJson(const AdaptiveCampaignResult &result,
                       const std::string &coverage_test_type);

} // namespace drf

#endif // DRF_GUIDANCE_ADAPTIVE_CAMPAIGN_HH
