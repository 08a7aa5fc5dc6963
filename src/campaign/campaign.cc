#include "campaign/campaign.hh"

#include <algorithm>
#include <chrono>
#include <exception>

#include "campaign/thread_pool.hh"
#include "system/apu_system.hh"
#include "tester/cpu_tester.hh"

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

std::unique_ptr<CoverageGrid>
cloneGrid(const std::unique_ptr<CoverageGrid> &grid)
{
    return grid ? std::make_unique<CoverageGrid>(*grid) : nullptr;
}

} // namespace

ShardOutcome::ShardOutcome(const ShardOutcome &other)
    : name(other.name), seed(other.seed), index(other.index),
      result(other.result), attempts(other.attempts),
      l1(cloneGrid(other.l1)), l2(cloneGrid(other.l2)),
      dir(cloneGrid(other.dir))
{
}

ShardOutcome &
ShardOutcome::operator=(const ShardOutcome &other)
{
    return *this = ShardOutcome(other);
}

ShardMerge::ShardMerge(const CampaignConfig &cfg,
                       std::size_t shards_planned)
    : _cfg(cfg)
{
    _result.shardsPlanned = shards_planned;
}

void
ShardMerge::setJobs(unsigned jobs)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _result.jobs = jobs;
}

bool
ShardMerge::stopRequested() const
{
    return _stop.load(std::memory_order_acquire);
}

void
ShardMerge::requestStop()
{
    _stop.store(true, std::memory_order_release);
}

void
ShardMerge::markInterrupted()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _result.interrupted = true;
    }
    requestStop();
}

void
ShardMerge::addSkipped(std::size_t count)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _result.shardsSkipped += count;
}

bool
ShardMerge::saturatedLocked() const
{
    if (_cfg.saturationPct <= 0.0)
        return false;
    if (_l1.empty() && _l2.empty())
        return false;
    if (!_l1.empty() &&
        _l1.coveragePct(_cfg.coverageTestType) < _cfg.saturationPct)
        return false;
    if (!_l2.empty() &&
        _l2.coveragePct(_cfg.coverageTestType) < _cfg.saturationPct)
        return false;
    return true;
}

ShardDelta
ShardMerge::add(const ShardOutcome &out, double wall_seconds, bool resumed)
{
    std::lock_guard<std::mutex> lock(_mutex);
    CampaignResult &res = _result;
    ++res.shardsRun;
    if (resumed)
        ++res.shardsResumed;
    res.totalTicks += out.result.ticks;
    res.totalEvents += out.result.events;
    res.totalEpisodes += out.result.episodes;
    res.totalLoadsChecked += out.result.loadsChecked;
    res.totalStoresRetired += out.result.storesRetired;
    res.totalAtomicsChecked += out.result.atomicsChecked;
    res.shardSecondsSum += out.result.hostSeconds;
    res.retriesPerformed += out.attempts - 1;
    switch (out.result.failureClass) {
      case FailureClass::HostCrash: ++res.hostCrashes; break;
      case FailureClass::HostTimeout: ++res.hostTimeouts; break;
      case FailureClass::ResourceExhausted:
        ++res.resourceExhausted;
        break;
      default: break;
    }

    ShardDelta delta;
    if (out.l1)
        delta.newL1Cells = _l1.add(*out.l1);
    if (out.l2)
        delta.newL2Cells = _l2.add(*out.l2);
    if (out.dir)
        delta.newDirCells = _dir.add(*out.dir);
    delta.unionL1Active = _l1.activeCount(_cfg.coverageTestType);
    delta.unionL2Active = _l2.activeCount(_cfg.coverageTestType);

    CoveragePoint point;
    point.shardsCompleted = res.shardsRun;
    point.l1Pct = _l1.coveragePct(_cfg.coverageTestType);
    point.l2Pct = _l2.coveragePct(_cfg.coverageTestType);
    point.cumulativeEvents = res.totalEvents;
    point.wallSeconds = wall_seconds;
    point.shardName = out.name;
    point.shardSeed = out.seed;
    point.shardEpisodes = out.result.episodes;
    point.shardActions = out.result.loadsChecked +
                         out.result.storesRetired +
                         out.result.atomicsChecked;
    point.cumulativeEpisodes = res.totalEpisodes;
    point.cumulativeActions = res.totalActions();
    point.newL1Cells = delta.newL1Cells;
    point.newL2Cells = delta.newL2Cells;
    point.newDirCells = delta.newDirCells;
    res.saturationCurve.push_back(std::move(point));

    if (!out.result.passed) {
        if (!res.firstFailure || out.index < res.firstFailure->index) {
            res.firstFailure = ShardFailure{
                out.name, out.seed, out.index, out.result.report,
                out.result.failureClass};
        }
        bool host = isHostFailureClass(out.result.failureClass);
        if (host ? _cfg.stopOnHostFailure : _cfg.stopOnFailure)
            requestStop();
    }
    if (!res.shardsToSaturation && saturatedLocked()) {
        res.shardsToSaturation = res.shardsRun;
        requestStop();
    }
    if (_cfg.keepOutcomes)
        res.outcomes.push_back(out);
    return delta;
}

CampaignResult
ShardMerge::take(double wall_seconds)
{
    CampaignResult &res = _result;
    res.passed = !res.firstFailure.has_value();
    res.wallSeconds = wall_seconds;
    if (res.wallSeconds > 0.0) {
        res.episodesPerSec =
            static_cast<double>(res.totalEpisodes) / res.wallSeconds;
        res.eventsPerSec =
            static_cast<double>(res.totalEvents) / res.wallSeconds;
    }
    if (!_l1.empty())
        res.l1Union = _l1.grid();
    if (!_l2.empty())
        res.l2Union = _l2.grid();
    if (!_dir.empty())
        res.dirUnion = _dir.grid();
    std::sort(res.outcomes.begin(), res.outcomes.end(),
              [](const ShardOutcome &a, const ShardOutcome &b) {
                  return a.index < b.index;
              });
    return std::move(_result);
}

ShardOutcome
runShardIsolated(const ShardSpec &spec, std::size_t index)
{
    ShardOutcome out;
    try {
        out = spec.run();
    } catch (const std::exception &e) {
        // Shard isolation: anything a tester failed to convert itself
        // becomes a structured failure here.
        out.result.passed = false;
        out.result.failureClass = FailureClass::Other;
        out.result.report = e.what();
    } catch (...) {
        out.result.passed = false;
        out.result.failureClass = FailureClass::Other;
        out.result.report = "unknown shard exception";
    }
    if (out.name.empty())
        out.name = spec.name;
    out.seed = spec.seed;
    out.index = index;
    return out;
}

CampaignResult
runCampaign(std::vector<ShardSpec> shards, const CampaignConfig &cfg)
{
    ShardMerge merge(cfg, shards.size());
    if (shards.empty())
        return merge.take(0.0);

    unsigned jobs = cfg.jobs != 0 ? cfg.jobs : ThreadPool::defaultThreads();
    jobs = std::min<unsigned>(jobs,
                              static_cast<unsigned>(shards.size()));
    merge.setJobs(jobs);

    Clock::time_point start = Clock::now();
    {
        ThreadPool pool(jobs);
        for (std::size_t i = 0; i < shards.size(); ++i) {
            // The spec is moved into the job; the pool owns it until run.
            pool.submit([&merge, start, i,
                         spec = std::move(shards[i])] {
                if (merge.stopRequested()) {
                    merge.addSkipped();
                    return;
                }

                merge.add(runShardIsolated(spec, i), secondsSince(start));
            });
        }
        pool.waitIdle();
    }

    return merge.take(secondsSince(start));
}

ShardSpec
gpuShard(const GpuTestPreset &preset)
{
    ShardSpec spec;
    spec.name = preset.name;
    spec.seed = preset.tester.seed;
    spec.gpuPreset = std::make_shared<const GpuTestPreset>(preset);
    spec.run = [p = spec.gpuPreset]() {
        const GpuTestPreset &preset = *p;
        ApuSystem sys(preset.system);
        GpuTester tester(sys, preset.tester);
        ShardOutcome out;
        out.name = preset.name;
        out.result = tester.run();
        out.l1 = std::make_unique<CoverageGrid>(sys.l1CoverageUnion());
        out.l2 = std::make_unique<CoverageGrid>(sys.l2CoverageUnion());
        out.dir =
            std::make_unique<CoverageGrid>(sys.directory().coverage());
        return out;
    };
    return spec;
}

ShardSpec
cpuShard(const CpuTestPreset &preset)
{
    ShardSpec spec;
    spec.name = preset.name;
    spec.seed = preset.tester.seed;
    spec.run = [preset]() {
        ApuSystem sys(preset.system);
        CpuTester tester(sys, preset.tester);
        ShardOutcome out;
        out.name = preset.name;
        out.result = tester.run();
        out.dir =
            std::make_unique<CoverageGrid>(sys.directory().coverage());
        return out;
    };
    return spec;
}

std::vector<ShardSpec>
gpuSeedSweep(const GpuTestPreset &base, std::uint64_t first_seed,
             std::size_t num_seeds)
{
    std::vector<ShardSpec> shards;
    shards.reserve(num_seeds);
    for (std::size_t i = 0; i < num_seeds; ++i) {
        GpuTestPreset preset = base;
        preset.tester.seed = first_seed + i;
        preset.name =
            base.name + "/seed" + std::to_string(preset.tester.seed);
        shards.push_back(gpuShard(preset));
    }
    return shards;
}

} // namespace drf
