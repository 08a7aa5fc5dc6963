/**
 * @file
 * Bounded stateless model checking: the `explore` campaign strategy.
 *
 * Where random/sweep/guided vary the *configuration*, ExploreSource
 * varies the *schedule*: it records one base run of a single preset
 * (its episode schedule plus the tester's sync markers, nothing else),
 * then systematically re-executes the same episode schedule under
 * issue-delay perturbations (trace/schedule.hh) that flip the order of
 * dependent synchronization operations — a DPOR-flavored walk over the
 * interleaving space, bounded by an explicit budget.
 *
 * From each executed interleaving the source derives the next frontier:
 * every adjacent pair of acquires from different wavefronts whose
 * episodes are dependent (conflict on a variable with at least one
 * write, or contend on the same sync variable) yields a child
 * perturbation that delays the earlier episode past the later one's
 * acquire. A sleep set of already-scheduled flips (keyed by the episode
 * pair) prunes re-exploration, and a per-trace flip cap keeps the
 * branching factor bounded. Dependence is tested on per-episode
 * variable bitsets built once from the base schedule
 * (DependenceIndex), so report() never scans an episode's accesses.
 *
 * Everything is deterministic at any worker count: shard bodies only
 * replay (bit-exact) and stash their sync markers — the tester's
 * acquire/release completions, all the frontier reads — in per-shard
 * slots; all frontier expansion happens in report(), which the
 * adaptive loop calls strictly in shard-index order. Because the
 * frontier is a FIFO that only report() appends to, the sequence of
 * perturbations it yields does not depend on when they are taken:
 * nextBatch() issues a batch while earlier shards still run whenever
 * the frontier already holds all of it, and answers "not yet" (an
 * empty batch) otherwise, so every batch is exactly the one a batch
 * barrier would issue. The source also runs the
 * predictive pass (predict/predict.hh) on the base trace and publishes
 * its triage through ShardSource::predictTriage(), so explore campaign
 * JSON carries the predicted-race block.
 */

#ifndef DRF_PREDICT_EXPLORE_HH
#define DRF_PREDICT_EXPLORE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "guidance/shard_source.hh"
#include "predict/predict.hh"
#include "trace/repro.hh"

namespace drf
{

/** Knobs for the explore strategy. */
struct ExploreOptions
{
    /** Interleaving budget: max perturbed replays issued as shards. */
    std::size_t budget = 64;
    /** Shards per adaptive-campaign batch. */
    std::size_t batchSize = 4;
    /** Frontier expansions taken from any one executed interleaving. */
    std::size_t maxFlipsPerTrace = 8;
    /** Predictive pass run on the base trace (triage block). */
    PredictOptions predict;
};

/**
 * One schedule indexed for frontier expansion, built once: episode id to
 * schedule index, and each episode's written and read variables as
 * bitsets over VarId, so a dependence test is a few word-wise ANDs
 * instead of scans of two episodes' access lists.
 */
class DependenceIndex
{
  public:
    /** indexOf() of an id the schedule does not hold. */
    static constexpr std::size_t npos = std::size_t(-1);

    explicit DependenceIndex(const EpisodeSchedule &schedule);

    /** Schedule index of episode @p id (its first occurrence), or npos. */
    std::size_t
    indexOf(std::uint64_t id) const
    {
        auto it = _index.find(id);
        return it == _index.end() ? npos : it->second;
    }

    /**
     * Schedule episodes @p a and @p b are dependent, so flipping their
     * order can change the outcome: they contend on the same sync
     * variable, or one writes a variable the other reads or writes.
     */
    bool dependent(std::size_t a, std::size_t b) const;

  private:
    std::unordered_map<std::uint64_t, std::size_t> _index;
    std::vector<VarId> _syncVar;       ///< by schedule index
    std::size_t _words = 0;            ///< bitset words per episode
    std::vector<std::uint64_t> _writes; ///< _words per episode
    std::vector<std::uint64_t> _reads;  ///< _words per episode
};

/** Schedule-exploration shard source (see file header). */
class ExploreSource : public ShardSource
{
  public:
    ExploreSource(const GpuTestPreset &preset,
                  const ExploreOptions &opts = {});

    Strategy strategy() const override { return Strategy::Explore; }
    std::vector<ShardSpec> nextBatch() override;
    void report(const ShardOutcome &outcome,
                const ShardFeedback &feedback) override;

    std::optional<GpuTestPreset>
    presetForSeed(std::uint64_t seed) const override;

    std::optional<PredictTriage> predictTriage() const override;

    /**
     * The recorded base run the exploration perturbs. Its events hold
     * the run's SyncAcquire/SyncRelease markers only: all that the
     * happens-before model and the frontier read.
     */
    const ReproTrace &baseTrace() const { return _base; }

    /** Perturbations not yet issued, in the order they will be. */
    const std::deque<SchedulePerturbation> &frontier() const
    {
        return _frontier;
    }

    /** Interleavings issued as shards so far. */
    std::size_t issued() const { return _issued; }

    /**
     * Failure classes observed across the explored interleavings (the
     * base run excluded). The explorer's product is this set — which
     * failure modes are schedule-reachable from the recorded run — not
     * just the lowest-index failure the campaign result keeps.
     */
    const std::map<FailureClass, std::size_t> &failuresByClass() const
    {
        return _failuresByClass;
    }

  private:
    /**
     * One issued interleaving, shared by its shard body (which fills
     * the markers) and _pending (which report() reads them from once
     * the outcome arrived); nothing else touches it.
     */
    struct Pending
    {
        SchedulePerturbation perturb;
        std::size_t batchEnd = 0; ///< _issued once its batch was issued
        std::vector<TraceEvent> markers; ///< sync markers, shard body
    };

    /**
     * Expand the frontier with the flips visible in the sync markers
     * of @p events, composed onto @p parent. Called from the ctor (base
     * trace) and report() (executed children) only — never from shard
     * bodies.
     */
    void expandFrontier(const std::vector<TraceEvent> &events,
                        const SchedulePerturbation &parent);

    GpuTestPreset _preset;
    ExploreOptions _opts;
    ReproTrace _base;
    DependenceIndex _deps; ///< over _base.schedule
    PredictReport _predict;

    std::deque<SchedulePerturbation> _frontier;
    std::set<std::pair<std::uint64_t, std::uint64_t>> _sleep;
    /** Issued, unreported interleavings by shard seed. */
    std::map<std::uint64_t, std::shared_ptr<Pending>> _pending;
    std::size_t _issued = 0;
    /** End of the last batch with a reported shard: the triage count,
     *  which leaves out batches pulled ahead of a stop. */
    std::size_t _reportedThrough = 0;
    std::map<FailureClass, std::size_t> _failuresByClass;
};

} // namespace drf

#endif // DRF_PREDICT_EXPLORE_HH
