/**
 * @file
 * Multi-seed / multi-configuration testing campaigns.
 *
 * The paper's headline result is a rate: the DRF tester reaches full
 * coherence coverage orders of magnitude faster than the application
 * suite. Every ApuSystem + tester pair is fully self-contained (its own
 * EventQueue, its own RNG) and deterministic, which makes N seeds x M
 * configurations embarrassingly parallel. The campaign runner shards
 * them across a work-stealing thread pool, merges per-shard coverage
 * grids and result statistics under one mutex, records the union
 * coverage saturation curve, and stops early when the union saturates
 * or a shard fails (preserving the first failure's seed and report for
 * deterministic single-threaded reproduction).
 *
 * Determinism contract: each shard's TesterResult is bit-for-bit
 * reproducible from its (configuration, seed) pair regardless of thread
 * count. Aggregates built from commutative operations (stat sums, grid
 * unions over a fixed shard set) are therefore thread-count invariant
 * too; only completion-order artifacts (the saturation curve, wall
 * times, and which shards got skipped after an early stop) vary.
 */

#ifndef DRF_CAMPAIGN_CAMPAIGN_HH
#define DRF_CAMPAIGN_CAMPAIGN_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "coverage/coverage.hh"
#include "tester/configs.hh"
#include "tester/gpu_tester.hh"

namespace drf
{

/** Everything one shard (one isolated simulation) produces. */
struct ShardOutcome
{
    ShardOutcome() = default;
    ShardOutcome(ShardOutcome &&) = default;
    ShardOutcome &operator=(ShardOutcome &&) = default;
    /** Deep copy, grids included. */
    ShardOutcome(const ShardOutcome &other);
    ShardOutcome &operator=(const ShardOutcome &other);

    std::string name;
    std::uint64_t seed = 0;
    std::size_t index = 0; ///< position in the campaign's shard list
    TesterResult result;

    /** Host attempts consumed (1 + transient retries; supervisor). */
    unsigned attempts = 1;

    // Coverage snapshots; null when the shard's system lacks the level.
    std::unique_ptr<CoverageGrid> l1;
    std::unique_ptr<CoverageGrid> l2;
    std::unique_ptr<CoverageGrid> dir;
};

/** A shard: a name, the seed that reproduces it, and how to run it. */
struct ShardSpec
{
    std::string name;
    std::uint64_t seed = 0;
    std::function<ShardOutcome()> run;

    /**
     * Preset provenance for GPU shards (set by gpuShard). The campaign
     * supervisor uses it to re-record a DRFTRC01 repro trace when the
     * shard fails and to apply its simulation event budget. Optional:
     * shards without it are still supervised, just without those two
     * features.
     */
    std::shared_ptr<const GpuTestPreset> gpuPreset;
};

/** Campaign-level policy knobs. */
struct CampaignConfig
{
    /** Worker threads; 0 means hardware concurrency. */
    unsigned jobs = 0;

    /** Stop launching new shards once any shard fails (protocol-level
     *  classes; host-level classes follow stopOnHostFailure). */
    bool stopOnFailure = true;

    /**
     * Stop launching new shards when a shard fails at *host* level
     * (HostCrash/HostTimeout/ResourceExhausted — produced by supervised
     * campaigns only; see src/campaign/supervisor.hh). Default off: a
     * resilient campaign triages host faults and keeps going.
     */
    bool stopOnHostFailure = false;

    /**
     * Early-stop threshold on union coverage, in percent; <= 0 disables.
     * The campaign stops launching shards once every observed coverage
     * level (L1 and L2) reaches this percentage.
     */
    double saturationPct = 0.0;

    /** Test type used for coverage percentages (Impsb handling). */
    std::string coverageTestType = "gpu_tester";

    /** Retain every shard's outcome in CampaignResult::outcomes. */
    bool keepOutcomes = false;
};

/** Reproduction handle for the first failing shard. */
struct ShardFailure
{
    std::string name;
    std::uint64_t seed = 0;
    std::size_t index = 0;
    std::string report;
    FailureClass failureClass = FailureClass::None;
};

/** One point of the union-coverage saturation curve. */
struct CoveragePoint
{
    std::size_t shardsCompleted = 0;
    double l1Pct = 0.0;
    double l2Pct = 0.0;
    std::uint64_t cumulativeEvents = 0;
    double wallSeconds = 0.0; ///< since campaign start

    // The shard that produced this point, with its episode and action
    // counts (actions = loads checked + stores retired + atomics
    // checked), so coverage-per-episode efficiency is computable
    // offline from the campaign JSON alone.
    std::string shardName;
    std::uint64_t shardSeed = 0;
    std::uint64_t shardEpisodes = 0;
    std::uint64_t shardActions = 0;
    std::uint64_t cumulativeEpisodes = 0;
    std::uint64_t cumulativeActions = 0;

    // Union cells this shard covered first, per level. Each writer
    // sums the levels it reports: the campaign JSON counts all three,
    // the adaptive campaign JSON L1 and L2.
    std::size_t newL1Cells = 0;
    std::size_t newL2Cells = 0;
    std::size_t newDirCells = 0;
};

/** Aggregated campaign summary. */
struct CampaignResult
{
    bool passed = true;
    std::size_t shardsPlanned = 0;
    std::size_t shardsRun = 0;
    std::size_t shardsSkipped = 0; ///< not launched due to early stop
    unsigned jobs = 0;             ///< worker threads actually used

    // Host-level triage, populated by supervised campaigns (see
    // src/campaign/supervisor.hh); all zero under plain runCampaign.
    std::size_t hostCrashes = 0;       ///< shards ending HostCrash
    std::size_t hostTimeouts = 0;      ///< shards reaped (deadline/budget)
    std::size_t resourceExhausted = 0; ///< shards that never got past
                                       ///< transient host failures
    std::uint64_t retriesPerformed = 0; ///< transient retries, total
    std::size_t shardsResumed = 0; ///< merged from the journal, not run
    bool interrupted = false;      ///< SIGINT/SIGTERM graceful shutdown

    /** Lowest-index failure observed (reproduce with its name/seed). */
    std::optional<ShardFailure> firstFailure;

    // Union coverage over all completed shards.
    std::optional<CoverageGrid> l1Union;
    std::optional<CoverageGrid> l2Union;
    std::optional<CoverageGrid> dirUnion;

    /** Union coverage after each completed shard, completion order. */
    std::vector<CoveragePoint> saturationCurve;

    /** Completed-shard count at which saturationPct was first met. */
    std::optional<std::size_t> shardsToSaturation;

    // Sums over completed shards.
    Tick totalTicks = 0;
    std::uint64_t totalEvents = 0;
    std::uint64_t totalEpisodes = 0;
    std::uint64_t totalLoadsChecked = 0;
    std::uint64_t totalStoresRetired = 0;
    std::uint64_t totalAtomicsChecked = 0;

    /** Loads checked + stores retired + atomics checked. */
    std::uint64_t
    totalActions() const
    {
        return totalLoadsChecked + totalStoresRetired + totalAtomicsChecked;
    }

    /** Sum of per-shard host seconds (serial-equivalent cost). */
    double shardSecondsSum = 0.0;
    /** Campaign wall-clock seconds. */
    double wallSeconds = 0.0;
    /** Aggregate throughput: episodes retired per wall-clock second. */
    double episodesPerSec = 0.0;
    /** Aggregate throughput: simulation events per wall-clock second. */
    double eventsPerSec = 0.0;

    /** Per-shard outcomes, shard-index order (keepOutcomes only). */
    std::vector<ShardOutcome> outcomes;
};

/** What merging one shard changed, for feedback-driven callers. */
struct ShardDelta
{
    // Union cells the shard covered first, per level.
    std::size_t newL1Cells = 0;
    std::size_t newL2Cells = 0;
    std::size_t newDirCells = 0;
    // Active cells of the L1 and L2 unions after the merge.
    std::size_t unionL1Active = 0;
    std::size_t unionL2Active = 0;
};

/**
 * Thread-safe cross-shard merge: the one place campaign aggregates are
 * built. runCampaign, the supervisor (supervisor.cc) and the adaptive
 * loop's FeedbackLoop (guidance/adaptive_campaign.hh, which the fleet
 * coordinator drives too) all funnel every completed ShardOutcome
 * through add(), so stat sums, union coverage, the saturation curve,
 * first-failure bookkeeping, host triage counters, and the early-stop
 * policy have exactly one implementation — which is what makes a
 * resumed campaign's aggregates bit-identical to an uninterrupted
 * run's, and an adaptive campaign's identical at any executor count.
 */
class ShardMerge
{
  public:
    ShardMerge(const CampaignConfig &cfg, std::size_t shards_planned);

    /** Record the worker-thread count for the summary. */
    void setJobs(unsigned jobs);

    /** True once a failure/saturation/shutdown stop was requested. */
    bool stopRequested() const;

    /** Stop launching further shards (sticky). */
    void requestStop();

    /** Flag a SIGINT/SIGTERM graceful shutdown; implies requestStop. */
    void markInterrupted();

    /** Account shards skipped by an early stop. */
    void addSkipped(std::size_t count = 1);

    /**
     * Merge one completed shard (thread-safe). @p wall_seconds is the
     * campaign-relative completion time for the saturation curve;
     * @p resumed marks outcomes replayed from a journal rather than
     * executed (they count into shardsRun *and* shardsResumed). A
     * copy of the outcome is kept only under keepOutcomes.
     */
    ShardDelta add(const ShardOutcome &out, double wall_seconds,
                   bool resumed = false);

    /** Finalize and return the result. Call once, no concurrent adds. */
    CampaignResult take(double wall_seconds);

  private:
    bool saturatedLocked() const;

    const CampaignConfig _cfg;
    std::mutex _mutex;
    CampaignResult _result;
    CoverageAccumulator _l1;
    CoverageAccumulator _l2;
    CoverageAccumulator _dir;
    std::atomic<bool> _stop{false};
};

/**
 * Run one shard on the calling thread. Shard isolation: an exception
 * the shard failed to convert itself becomes a FailureClass::Other
 * failure instead of escaping into a pool thread. The outcome carries
 * the spec's name (when the shard left it empty), its seed and
 * @p index.
 */
ShardOutcome runShardIsolated(const ShardSpec &spec, std::size_t index);

/** Run @p shards under @p cfg; blocks until done or early-stopped. */
CampaignResult runCampaign(std::vector<ShardSpec> shards,
                           const CampaignConfig &cfg = {});

/** Shard running one Table III GPU tester preset. */
ShardSpec gpuShard(const GpuTestPreset &preset);

/** Shard running one CPU tester preset. */
ShardSpec cpuShard(const CpuTestPreset &preset);

/**
 * N-seed campaign over one GPU preset: shard i runs @p base with seed
 * first_seed + i.
 */
std::vector<ShardSpec> gpuSeedSweep(const GpuTestPreset &base,
                                    std::uint64_t first_seed,
                                    std::size_t num_seeds);

} // namespace drf

#endif // DRF_CAMPAIGN_CAMPAIGN_HH
