/**
 * @file
 * The one campaign loop: ShardSource in, campaign batches out, on any
 * shard executor.
 *
 * runCampaignLoop() pulls batches from the source and hands their
 * shards to a ShardExecutor, which hides where they run. There are two
 * executors. The pool executor (runAdaptiveCampaign, and runCampaign
 * and runSupervisedCampaign, which run a fixed shard list as a source
 * that issues each shard as its own batch) runs shards on one FIFO
 * thread pool (src/campaign/) that lives for the whole
 * campaign, each through one ShardRunner (campaign/supervisor.hh) —
 * the shard barrier fleet workers use too. The fleet executor
 * (fleet/coordinator.hh) leases them to worker processes over TCP.
 *
 * Finished shards wait in a reorder buffer; each batch is fed back
 * once it is complete, in global shard-index order, with its
 * newly-covered-cell counts computed against the cross-batch union.
 * The source is asked for its next batch as soon as the executor would
 * otherwise go idle, whatever its strategy; it answers with an empty
 * batch while that batch depends on feedback it has not received yet
 * (guided always, explore while its frontier is short), and is asked
 * again after the next batch drains. So a straggler idles the
 * executor only when the source itself has nothing to issue. That pull
 * rule and the reorder window live in BatchWindow.
 *
 * Checkpointing lives in the loop as well (SupervisorConfig): each
 * drained batch is appended to the journal in index order and flushed
 * with an fsync; on resume, a journaled outcome is adopted in place of
 * running its shard; and a caught SIGINT/SIGTERM stops the pulls, lets
 * running shards finish and drains them.
 *
 * Determinism contract: per-shard results are bit-exact functions of
 * (configuration, seed); the source only ever observes the
 * index-ordered outcome stream; and rounds are counted and the stop
 * policy checked at batch boundaries, however far ahead batches were
 * pulled. Outcomes of batches pulled ahead of a stop are discarded:
 * never reported, never counted. Therefore two runs with the same
 * master seed produce the identical shard schedule, decision log,
 * saturation curve and union-coverage digest on any executor, at any
 * thread or worker count, and a fixed list stops at the same shard.
 */

#ifndef DRF_GUIDANCE_ADAPTIVE_CAMPAIGN_HH
#define DRF_GUIDANCE_ADAPTIVE_CAMPAIGN_HH

#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "campaign/journal.hh"
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
 * The scheduling half of the campaign loop: the pull rule that decides
 * when the source is asked for its next batch, and the reorder window
 * of batches pulled but not yet drained. Outcomes themselves stay with
 * the loop, keyed by global shard index; the window only says which
 * index range drains next.
 *
 * The pull rule asks the source whenever fewer shards are in flight
 * than the executor can hold, so no batch waits for its predecessor's
 * straggler, and lets the source's answer decide: an empty batch while
 * pulled batches are still undrained means "not yet" (its next batch
 * depends on their feedback), and the source is not asked again until
 * the next popFront(); an empty batch with nothing undrained means the
 * source ran dry. Batches drain strictly in pull order, each in global
 * index order.
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

    /** One past the last index pulled. */
    std::size_t end() const { return _end; }

    /** Pulls stopped at max_batches with the source not run dry. */
    bool capped() const;

  private:
    ShardSource &_source;
    const std::size_t _maxBatches;
    std::deque<Range> _batches;
    std::size_t _pulled = 0;
    std::size_t _end = 0;
    bool _exhausted = false;
    bool _waiting = false; ///< answered "not yet"; ask after popFront()
};

/**
 * Where a campaign's shards run. The loop hands every shard it does
 * not adopt from the journal to submit() and learns of finished ones
 * only through wait(), so it never sees threads, processes or sockets.
 * Every call comes from the loop's driving thread.
 */
class ShardExecutor
{
  public:
    /** A finished shard: its global index and outcome, or nullopt for
     *  a shard skipped after stop(). */
    using Post = std::pair<std::size_t, std::optional<ShardOutcome>>;

    ShardExecutor() = default;
    virtual ~ShardExecutor() = default;
    ShardExecutor(const ShardExecutor &) = delete;
    ShardExecutor &operator=(const ShardExecutor &) = delete;

    /** Run @p spec as global shard @p index. Exactly one post answers
     *  it, once its outcome is trusted. */
    virtual void submit(ShardSpec spec, std::size_t index) = 0;

    /** Shards the executor can hold at once: the pull rule's bound. */
    virtual std::size_t capacity() = 0;

    /**
     * Take the posts that arrived, blocking until one did. With
     * @p poll, or when the executor has upkeep of its own to do, it
     * returns after a short wait, possibly with nothing.
     */
    virtual std::vector<Post> wait(bool poll) = 0;

    /** Start nothing more: every submitted shard not yet started (or
     *  leased) posts nullopt; the rest finish and post their outcome. */
    virtual void stop() = 0;
};

/** What the loop's journal did: what the resume pass skipped, and the
 *  writer's health at the end of the campaign. */
struct JournalTriage
{
    JournalLoadStats resume;
    JournalStatus writer;
};

/**
 * The campaign loop: drive @p source to completion on @p executor.
 * cfg.campaign is the merge and stop policy; cfg.journalPath,
 * cfg.resume and cfg.handleSignals are the checkpoint and shutdown
 * policy (the rest of @p cfg is the executor's business). The journal
 * is written through @p journal_policy. @p max_batches caps the
 * batches pulled (0: none); a campaign stopped by the cap is
 * interrupted. The result's jobs is left 0 for the caller to fill in.
 * With @p triage, it receives the journal's load and write counters.
 */
AdaptiveCampaignResult
runCampaignLoop(ShardSource &source, ShardExecutor &executor,
                const SupervisorConfig &cfg, std::size_t max_batches = 0,
                const CampaignJournal::Policy &journal_policy = {},
                JournalTriage *triage = nullptr);

/** The merge and stop policy of an adaptive campaign under @p cfg. */
CampaignConfig mergePolicy(const AdaptiveCampaignConfig &cfg);

/** Drive @p source to completion on the pool executor under @p cfg. */
AdaptiveCampaignResult
runAdaptiveCampaign(ShardSource &source,
                    const AdaptiveCampaignConfig &cfg = {});

/**
 * Run a fixed shard list on the pool executor under @p cfg's
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
