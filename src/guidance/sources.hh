/**
 * @file
 * The three ShardSource strategies: sweep, random, guided.
 *
 * All three draw from one arm list (config genomes; by default the 24
 * Table III presets) and one GenomeScale, issue globally unique seeds
 * from a single counter starting at the master seed, and remember the
 * full preset behind every issued shard so a failure can be
 * re-recorded as a self-contained trace.
 *
 * GuidedSource is the tentpole: a deterministic UCB1 bandit over the
 * arms, rewarded with newly covered union cells per kilo-episode. An
 * arm's first play is a cheap probe (episodes/WF capped) so the whole
 * arm space can be scored for a fraction of a blind campaign's
 * episode budget; exploitation then replays profitable arms at full
 * budget and occasionally adds a bounded mutation of the current best
 * genome as a fresh arm. Every decision is logged (GuidanceDecision)
 * for the campaign JSON and the trace header.
 */

#ifndef DRF_GUIDANCE_SOURCES_HH
#define DRF_GUIDANCE_SOURCES_HH

#include <map>

#include "guidance/bandit.hh"
#include "guidance/shard_source.hh"

namespace drf
{

/** Knobs shared by every source strategy. */
struct SourceConfig
{
    /** Bandit arms / sampling pool; empty = the Table III sweep. */
    std::vector<ConfigGenome> arms;
    GenomeScale scale;
    std::uint64_t masterSeed = 1;
    std::size_t batchSize = 4;
    /** Hard cap on shards issued (the sweep/random campaign length). */
    std::size_t maxShards = 32;
};

/** Genomes of the 24 Table III presets, sweep order. */
std::vector<ConfigGenome> tableIIIArms();

/** Base: arm bookkeeping + unique seeds + preset memory. */
class ArmSourceBase : public ShardSource
{
  public:
    explicit ArmSourceBase(const SourceConfig &cfg);

    std::optional<GpuTestPreset>
    presetForSeed(std::uint64_t seed) const override;

    std::optional<ShardLease>
    leaseForSeed(std::uint64_t seed) const override;

    std::size_t shardsIssued() const { return _shardsIssued; }

  protected:
    /** Build one shard of @p genome, assigning the next unique seed. */
    ShardSpec makeShard(const ConfigGenome &genome);

    SourceConfig _cfg;
    std::size_t _shardsIssued = 0;

  private:
    struct Issued
    {
        GpuTestPreset preset;
        ConfigGenome genome; ///< as issued (probe cap applied)
    };

    std::uint64_t _nextSeed;
    std::map<std::uint64_t, Issued> _issued;
};

/** The status quo: the arm list in order, wrapping, maxShards total. */
class SweepSource : public ArmSourceBase
{
  public:
    explicit SweepSource(const SourceConfig &cfg) : ArmSourceBase(cfg) {}

    Strategy strategy() const override { return Strategy::Sweep; }
    std::vector<ShardSpec> nextBatch() override;
};

/** Blind baseline: uniform arm choice per shard, maxShards total. */
class RandomSource : public ArmSourceBase
{
  public:
    explicit RandomSource(const SourceConfig &cfg)
        : ArmSourceBase(cfg), _rng(cfg.masterSeed)
    {
    }

    Strategy strategy() const override { return Strategy::Random; }
    std::vector<ShardSpec> nextBatch() override;

  private:
    Random _rng;
};

/** Guided-mode policy knobs. */
struct GuidedOptions
{
    // Stop conditions (0 = disabled), checked between rounds:
    std::size_t targetL1Active = 0; ///< stop at this union L1 active
    std::size_t targetL2Active = 0; ///< ... and this union L2 active
    std::uint64_t episodeBudget = 0; ///< stop when episodes exceed this
};

/** The coverage-guided scheduler (see file header). */
class GuidedSource : public ArmSourceBase
{
  public:
    GuidedSource(const SourceConfig &cfg, const GuidedOptions &opts = {});

    Strategy strategy() const override { return Strategy::Guided; }
    std::vector<ShardSpec> nextBatch() override;
    void report(const ShardOutcome &outcome,
                const ShardFeedback &feedback) override;

    const std::vector<GuidanceDecision> &decisions() const override
    {
        return _decisions;
    }

    /** Total episodes reported back so far. */
    std::uint64_t episodesObserved() const { return _episodesTotal; }

  private:
    struct Arm
    {
        ConfigGenome genome;
        bool mutant = false;
    };

    bool done() const;
    std::size_t bestArm() const;
    void maybeBreedMutant();

    GuidedOptions _opts;
    Random _rng;
    Ucb1Bandit _bandit;
    std::vector<Arm> _arms;
    std::size_t _numPresetArms = 0;
    std::size_t _mutants = 0;

    std::vector<GuidanceDecision> _decisions;
    std::uint64_t _episodesTotal = 0;
    std::size_t _unionL1Active = 0;
    std::size_t _unionL2Active = 0;

    // In-flight round state.
    std::size_t _pendingArm = 0;
    std::size_t _pendingExpected = 0;
    std::size_t _pendingReceived = 0;
};

} // namespace drf

#endif // DRF_GUIDANCE_SOURCES_HH
