#include "guidance/sources.hh"

#include <algorithm>
#include <cassert>

namespace drf
{

namespace
{

/** Episodes/WF cap applied to an arm's first (probe) play. */
constexpr unsigned kProbeEpisodesPerWf = 10;
/** UCB1 exploration constant (scaled by the max observed reward). */
constexpr double kExploration = 0.5;
/** Chance per round of adding a mutant of the best genome. */
constexpr unsigned kMutationPct = 25;
/** Cap on mutant arms added over the campaign. */
constexpr std::size_t kMaxMutants = 16;

} // namespace

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::Random: return "random";
      case Strategy::Sweep: return "sweep";
      case Strategy::Guided: return "guided";
      case Strategy::Explore: return "explore";
    }
    return "?";
}

std::optional<Strategy>
parseStrategy(const std::string &name)
{
    for (Strategy s : {Strategy::Random, Strategy::Sweep,
                       Strategy::Guided, Strategy::Explore}) {
        if (name == strategyName(s))
            return s;
    }
    return std::nullopt;
}

std::vector<ConfigGenome>
tableIIIArms()
{
    std::vector<ConfigGenome> arms;
    for (const GpuTestPreset &preset : makeGpuTestSweep())
        arms.push_back(genomeFromPreset(preset));
    return arms;
}

ArmSourceBase::ArmSourceBase(const SourceConfig &cfg)
    : _cfg(cfg), _nextSeed(cfg.masterSeed)
{
    if (_cfg.arms.empty())
        _cfg.arms = tableIIIArms();
}

std::optional<GpuTestPreset>
ArmSourceBase::presetForSeed(std::uint64_t seed) const
{
    auto it = _issued.find(seed);
    if (it == _issued.end())
        return std::nullopt;
    return it->second.preset;
}

std::optional<ShardLease>
ArmSourceBase::leaseForSeed(std::uint64_t seed) const
{
    auto it = _issued.find(seed);
    if (it == _issued.end())
        return std::nullopt;
    ShardLease lease;
    lease.name = it->second.preset.name;
    lease.seed = seed;
    lease.genome = it->second.genome;
    lease.scale = _cfg.scale;
    return lease;
}

ShardSpec
ArmSourceBase::makeShard(const ConfigGenome &genome)
{
    std::uint64_t seed = _nextSeed++;
    GpuTestPreset preset = genomeToPreset(genome, _cfg.scale, seed);
    _issued.emplace(seed, Issued{preset, genome});
    ++_shardsIssued;
    return gpuShard(preset);
}

std::vector<ShardSpec>
SweepSource::nextBatch()
{
    std::vector<ShardSpec> batch;
    while (_shardsIssued < _cfg.maxShards &&
           batch.size() < _cfg.batchSize) {
        batch.push_back(
            makeShard(_cfg.arms[_shardsIssued % _cfg.arms.size()]));
    }
    return batch;
}

std::vector<ShardSpec>
RandomSource::nextBatch()
{
    std::vector<ShardSpec> batch;
    while (_shardsIssued < _cfg.maxShards &&
           batch.size() < _cfg.batchSize) {
        batch.push_back(
            makeShard(_cfg.arms[_rng.below(_cfg.arms.size())]));
    }
    return batch;
}

GuidedSource::GuidedSource(const SourceConfig &cfg,
                           const GuidedOptions &opts)
    : ArmSourceBase(cfg), _opts(opts), _rng(cfg.masterSeed ^
                                            0x9e3779b97f4a7c15ull),
      _bandit(kExploration)
{
    for (const ConfigGenome &genome : _cfg.arms) {
        _arms.push_back({genome, false});
        _bandit.addArm();
    }
    _numPresetArms = _arms.size();
}

bool
GuidedSource::done() const
{
    if (_shardsIssued >= _cfg.maxShards)
        return true;
    if (_opts.episodeBudget != 0 &&
        _episodesTotal >= _opts.episodeBudget)
        return true;
    if (_opts.targetL1Active != 0 && _opts.targetL2Active != 0 &&
        _unionL1Active >= _opts.targetL1Active &&
        _unionL2Active >= _opts.targetL2Active)
        return true;
    return false;
}

std::size_t
GuidedSource::bestArm() const
{
    std::size_t best = 0;
    double best_mean = -1.0;
    for (std::size_t i = 0; i < _arms.size(); ++i) {
        if (_bandit.plays(i) == 0)
            continue;
        double m = _bandit.mean(i);
        if (m > best_mean) {
            best = i;
            best_mean = m;
        }
    }
    return best;
}

void
GuidedSource::maybeBreedMutant()
{
    // Only once every preset arm has been scored: mutating before the
    // probe sweep finished would just dilute exploration.
    if (_bandit.totalPlays() < _numPresetArms ||
        _mutants >= kMaxMutants || !_rng.pct(kMutationPct))
        return;
    ConfigGenome bred = mutateGenome(_arms[bestArm()].genome, _rng);
    // Skip exact duplicates of an existing arm.
    for (const Arm &arm : _arms) {
        if (arm.genome == bred)
            return;
    }
    _arms.push_back({bred, true});
    _bandit.addArm();
    ++_mutants;
}

std::vector<ShardSpec>
GuidedSource::nextBatch()
{
    // The next arm choice needs the previous batch's reward: not yet.
    if (_pendingReceived != _pendingExpected)
        return {};
    if (done())
        return {};

    maybeBreedMutant();
    std::size_t arm = _bandit.select();
    bool probe = _bandit.plays(arm) == 0;
    ConfigGenome genome = _arms[arm].genome;
    if (probe) {
        genome.episodesPerWf = std::min(genome.episodesPerWf,
                                        kProbeEpisodesPerWf);
    }

    GuidanceDecision decision;
    decision.round = _decisions.size();
    decision.arm = arm;
    decision.mutant = _arms[arm].mutant;
    decision.probe = probe;
    decision.genome = genome;

    std::vector<ShardSpec> batch;
    while (_shardsIssued < _cfg.maxShards &&
           batch.size() < _cfg.batchSize) {
        ShardSpec shard = makeShard(genome);
        decision.seeds.push_back(shard.seed);
        batch.push_back(std::move(shard));
    }
    _decisions.push_back(std::move(decision));

    _pendingArm = arm;
    _pendingExpected = batch.size();
    _pendingReceived = 0;
    return batch;
}

void
GuidedSource::report(const ShardOutcome &outcome,
                     const ShardFeedback &feedback)
{
    (void)outcome;
    assert(!_decisions.empty() && _pendingReceived < _pendingExpected);
    GuidanceDecision &decision = _decisions.back();
    decision.episodes += feedback.episodes;
    decision.actions += feedback.actions;
    decision.newCells += feedback.newL1Cells + feedback.newL2Cells;
    _episodesTotal += feedback.episodes;
    _unionL1Active = feedback.unionL1Active;
    _unionL2Active = feedback.unionL2Active;

    if (++_pendingReceived == _pendingExpected) {
        decision.rewardPerKiloEpisode =
            decision.episodes > 0
                ? static_cast<double>(decision.newCells) * 1000.0 /
                      static_cast<double>(decision.episodes)
                : 0.0;
        _bandit.update(_pendingArm, decision.rewardPerKiloEpisode);
    }
}

} // namespace drf
