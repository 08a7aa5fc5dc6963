#include "predict/explore.hh"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace drf
{

namespace
{

/** Dependent episodes: flipping their order can change the outcome. */
bool
dependent(const Episode &a, const Episode &b)
{
    if (a.syncVar == b.syncVar)
        return true;
    for (const Episode::WriteEntry &w : a.writes) {
        if (b.writesVar(w.var) || b.readsVar(w.var))
            return true;
    }
    for (const Episode::WriteEntry &w : b.writes) {
        if (a.readsVar(w.var))
            return true;
    }
    return false;
}

std::string
describeSite(const AccessSite &s)
{
    std::ostringstream os;
    os << "episode " << s.episodeId << " wf " << s.wavefront << " "
       << (s.isWrite ? "write" : "read") << " var " << s.var;
    return os.str();
}

} // namespace

ExploreSource::ExploreSource(const GpuTestPreset &preset,
                             const ExploreOptions &opts)
    : _preset(preset), _opts(opts)
{
    RecordOptions rec;
    rec.captureEvents = true;
    _base = recordGpuRun(preset, rec);
    if (_opts.runPredict)
        _predict = predictRaces(_base, _opts.predict);
    expandFrontier(_base.events, SchedulePerturbation{});
}

void
ExploreSource::expandFrontier(const std::vector<TraceEvent> &events,
                              const SchedulePerturbation &parent)
{
    // Index the base schedule by episode id (ids survive subsetting and
    // perturbation; the schedule itself never changes).
    std::unordered_map<std::uint64_t, const Episode *> by_id;
    by_id.reserve(_base.schedule.size());
    for (const Episode &e : _base.schedule.episodes)
        by_id.emplace(e.id, &e);

    // Observed acquire order and per-episode sync ticks.
    struct Ticks
    {
        Tick acq = 0;
        Tick rel = 0;
    };
    std::unordered_map<std::uint64_t, Ticks> ticks;
    std::vector<std::uint64_t> acquire_order;
    for (const TraceEvent &ev : events) {
        if (ev.kind == TraceEventKind::SyncAcquire) {
            ticks[ev.a].acq = ev.tick;
            acquire_order.push_back(ev.a);
        } else if (ev.kind == TraceEventKind::SyncRelease) {
            ticks[ev.a].rel = ev.tick;
        }
    }

    std::size_t flips = 0;
    for (std::size_t k = 0;
         k + 1 < acquire_order.size() && flips < _opts.maxFlipsPerTrace;
         ++k) {
        const std::uint64_t id1 = acquire_order[k];
        const std::uint64_t id2 = acquire_order[k + 1];
        auto e1 = by_id.find(id1), e2 = by_id.find(id2);
        if (e1 == by_id.end() || e2 == by_id.end())
            continue;
        if (e1->second->wavefrontId == e2->second->wavefrontId)
            continue;
        if (!dependent(*e1->second, *e2->second))
            continue;
        if (!_sleep.insert({id1, id2}).second)
            continue;

        // Delay the earlier acquire past the later one, landing in the
        // middle of the later episode's span so the flip actually
        // overlaps (not merely reorders) the dependent work.
        const Ticks t1 = ticks[id1], t2 = ticks[id2];
        if (t2.acq <= t1.acq)
            continue;
        const Tick span = t2.rel > t2.acq ? t2.rel - t2.acq : 0;
        const Tick delay = (t2.acq - t1.acq) + span / 2 + 1;

        SchedulePerturbation child = parent;
        child.add(id1, delay);
        _frontier.push_back(std::move(child));
        ++flips;
    }
}

std::vector<ShardSpec>
ExploreSource::nextBatch()
{
    // Children of unreported shards will join the frontier's back, so
    // its front is final: if it already holds the whole batch, issue
    // it now; otherwise the batch still depends on their feedback.
    const std::size_t want =
        std::min(_opts.batchSize, _opts.budget - _issued);
    if (!_pending.empty() && _frontier.size() < want)
        return {};

    std::vector<ShardSpec> batch;
    const std::size_t batch_end =
        _issued + std::min(want, _frontier.size());
    while (_issued < batch_end) {
        auto slot = std::make_shared<Pending>();
        slot->perturb = std::move(_frontier.front());
        slot->batchEnd = batch_end;
        _frontier.pop_front();

        ShardSpec spec;
        spec.name = "explore/" + std::to_string(_issued);
        spec.seed = _preset.tester.seed + 1 + _issued;
        spec.run = [this, slot, name = spec.name]() {
            ApuSystem sys(_base.system);
            // Only the tester records: the frontier reads nothing else.
            TraceRecorder rec;
            sys.attachTesterTrace(rec);

            GpuTesterConfig run_cfg = _base.tester;
            run_cfg.record = nullptr;
            run_cfg.replay = &_base.schedule;
            run_cfg.perturb = &slot->perturb;
            GpuTester tester(sys, run_cfg);

            ShardOutcome out;
            out.name = name;
            out.result = tester.run();
            out.l1 =
                std::make_unique<CoverageGrid>(sys.l1CoverageUnion());
            out.l2 =
                std::make_unique<CoverageGrid>(sys.l2CoverageUnion());
            out.dir = std::make_unique<CoverageGrid>(
                sys.directory().coverage());

            for (const TraceEvent &ev : rec.events()) {
                if (ev.kind == TraceEventKind::SyncAcquire ||
                    ev.kind == TraceEventKind::SyncRelease)
                    slot->markers.push_back(ev);
            }
            return out;
        };
        _pending.emplace(spec.seed, std::move(slot));
        batch.push_back(std::move(spec));
        ++_issued;
    }
    return batch;
}

void
ExploreSource::report(const ShardOutcome &outcome,
                      const ShardFeedback &feedback)
{
    (void)feedback;
    auto it = _pending.find(outcome.seed);
    if (it == _pending.end())
        return;
    const std::shared_ptr<Pending> slot = std::move(it->second);
    _pending.erase(it);
    if (!outcome.result.passed)
        ++_failuresByClass[outcome.result.failureClass];
    _reportedThrough = slot->batchEnd;
    // Frontier expansion happens here — in the adaptive loop's
    // index-ordered feedback stream — so the exploration order is
    // identical at any worker count.
    expandFrontier(slot->markers, slot->perturb);
}

std::optional<GpuTestPreset>
ExploreSource::presetForSeed(std::uint64_t seed) const
{
    (void)seed;
    return _preset;
}

std::optional<PredictTriage>
ExploreSource::predictTriage() const
{
    PredictTriage triage;
    triage.candidates = _predict.candidates;
    triage.confirmed = _predict.confirmedCount();
    triage.demoted = _predict.demotedCount();
    triage.interleavings = _predict.replays + _reportedThrough;
    if (!_predict.races.empty()) {
        triage.firstPair = describeSite(_predict.races.front().first) +
                           " <-> " +
                           describeSite(_predict.races.front().second);
    }
    return triage;
}

} // namespace drf
