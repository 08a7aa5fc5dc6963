/**
 * @file
 * Shard sources: pluggable strategies that feed the campaign loop.
 *
 * runAdaptiveCampaign (adaptive_campaign.hh) closes the
 * coverage-feedback loop: it repeatedly asks a ShardSource for the
 * next batch of shards, runs the shards on one FIFO campaign thread
 * pool, merges coverage, and reports each shard's outcome — including
 * how many union cells it covered first — back to the source, which
 * uses the signal (or ignores it) to choose the next batch.
 *
 * Feedback is delivered in global shard-index order, never in thread
 * completion order. Because per-shard results are bit-exact functions
 * of (configuration, seed), the feedback stream a source observes —
 * and therefore every decision it makes — is identical across thread
 * counts and re-runs with the same master seed. Any source may be asked
 * for its next batch while earlier shards still run; one whose next
 * batch depends on feedback it has not received yet answers with an
 * empty batch and is asked again once the oldest outstanding batch was
 * reported (ShardSource::nextBatch). Sweep and random never need to;
 * guided always does; explore does only while its frontier is too
 * short to fill the batch.
 *
 * Strategies:
 *  - sweep:  the Table III presets in order (the status quo);
 *  - random: blind uniform sampling of the preset arms;
 *  - guided: UCB1 over the preset arms + bounded mutation of the best
 *            genome, rewarded by newly covered cells per kilo-episode.
 */

#ifndef DRF_GUIDANCE_SHARD_SOURCE_HH
#define DRF_GUIDANCE_SHARD_SOURCE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "guidance/genome.hh"

namespace drf
{

/** Campaign scheduling strategy. */
enum class Strategy
{
    Random,
    Sweep,
    Guided,
    Explore, ///< bounded schedule exploration (src/predict/explore.hh)
};

const char *strategyName(Strategy s);
std::optional<Strategy> parseStrategy(const std::string &name);

/**
 * Triage summary of a predictive race pass (src/predict/). Lives here —
 * not in src/predict/ — so the campaign JSON writer can always emit the
 * block (zeros for strategies that never run the pass) without the
 * guidance library depending on the predict library; sources that do
 * run the pass override ShardSource::predictTriage().
 */
struct PredictTriage
{
    std::size_t candidates = 0; ///< HB-unordered conflicting pairs
    std::size_t confirmed = 0;  ///< witness replay manifested a failure
    std::size_t demoted = 0;    ///< survived every witness probe
    std::size_t interleavings = 0; ///< witness/exploration replays run
    /** First finding's access pair, human-readable; empty when none. */
    std::string firstPair;
};

/**
 * A wire-serializable shard description: everything a remote worker
 * needs to execute one shard bit-identically to a local run. The
 * genome is the one *as issued* (a guided probe's episode cap already
 * applied), so genomeToPreset(genome, scale, seed) reconstructs the
 * exact GpuTestPreset — including its name — that a local campaign
 * would have run. The index is the shard's global position in the
 * campaign (assigned by the driving loop, not the source).
 */
struct ShardLease
{
    std::size_t index = 0;
    std::string name;
    std::uint64_t seed = 0;
    ConfigGenome genome;
    GenomeScale scale;
};

/** One guided-scheduler decision, fully reproducible from the seed. */
struct GuidanceDecision
{
    std::size_t round = 0;
    std::size_t arm = 0;
    bool mutant = false; ///< arm was bred, not a preset
    bool probe = false;  ///< first play, episodes/WF capped
    ConfigGenome genome; ///< as issued (probe cap applied)
    std::vector<std::uint64_t> seeds;

    // Filled once the round's shards all reported back:
    std::uint64_t episodes = 0;
    std::uint64_t actions = 0;
    std::size_t newCells = 0;
    double rewardPerKiloEpisode = 0.0;
};

/** What the adaptive runner reports back for one completed shard. */
struct ShardFeedback
{
    std::uint64_t episodes = 0;
    std::uint64_t actions = 0;
    std::size_t newL1Cells = 0; ///< union cells this shard covered first
    std::size_t newL2Cells = 0;
    std::size_t unionL1Active = 0; ///< union actives after the merge
    std::size_t unionL2Active = 0;
    bool passed = true;
};

/** A strategy feeding shards to the adaptive campaign loop. */
class ShardSource
{
  public:
    virtual ~ShardSource() = default;

    virtual Strategy strategy() const = 0;

    /**
     * Next batch of shards to run. May be called while issued shards
     * are still unreported: a source whose next batch depends on their
     * feedback then returns an empty batch ("not yet") and is asked
     * again after the oldest outstanding batch was reported. With
     * every issued shard reported, an empty batch means the campaign
     * is done. A decorating source that forwards this call keeps its
     * inner source's scheduling.
     */
    virtual std::vector<ShardSpec> nextBatch() = 0;

    /**
     * Outcome of one issued shard, in global shard-index order. Later
     * batches may already have been pulled.
     */
    virtual void
    report(const ShardOutcome &outcome, const ShardFeedback &feedback)
    {
        (void)outcome;
        (void)feedback;
    }

    /**
     * The full preset a previously issued shard ran (looked up by its
     * unique seed), for re-recording a failing shard as a trace.
     */
    virtual std::optional<GpuTestPreset>
    presetForSeed(std::uint64_t seed) const
    {
        (void)seed;
        return std::nullopt;
    }

    /**
     * The wire-serializable description of a previously issued shard
     * (fleet coordinator; lease.index is left for the caller to fill).
     * Sources that cannot describe their shards as genomes return
     * nullopt, which makes them local-only.
     */
    virtual std::optional<ShardLease>
    leaseForSeed(std::uint64_t seed) const
    {
        (void)seed;
        return std::nullopt;
    }

    /**
     * Predictive-race triage accumulated by this source, if it runs
     * the predictive pass (Strategy::Explore). nullopt — rendered as a
     * zero block in the campaign JSON — for strategies that don't.
     */
    virtual std::optional<PredictTriage> predictTriage() const
    {
        return std::nullopt;
    }

    /**
     * The scheduling decisions made so far, for the campaign JSON and
     * trace headers. Empty for strategies that make none (every one but
     * Strategy::Guided).
     */
    virtual const std::vector<GuidanceDecision> &decisions() const
    {
        static const std::vector<GuidanceDecision> none;
        return none;
    }
};

} // namespace drf

#endif // DRF_GUIDANCE_SHARD_SOURCE_HH
