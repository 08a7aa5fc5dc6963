#include "predict/explore.hh"

#include <algorithm>
#include <sstream>

namespace drf
{

namespace
{

/**
 * Run @p cfg on a fresh @p sys_cfg system with only the tester
 * recording, and append the run's SyncAcquire/SyncRelease markers (all
 * that HbModel and the frontier read) to @p markers. Recording never
 * perturbs the run. When @p out is given it takes the coverage grids.
 */
TesterResult
runKeepingSyncMarkers(const ApuSystemConfig &sys_cfg,
                      const GpuTesterConfig &cfg,
                      std::vector<TraceEvent> &markers,
                      ShardOutcome *out = nullptr)
{
    ApuSystem sys(sys_cfg);
    TraceRecorder rec;
    sys.attachTesterTrace(rec);
    GpuTester tester(sys, cfg);
    TesterResult result = tester.run();
    if (out != nullptr) {
        out->l1 = std::make_unique<CoverageGrid>(sys.l1CoverageUnion());
        out->l2 = std::make_unique<CoverageGrid>(sys.l2CoverageUnion());
        out->dir =
            std::make_unique<CoverageGrid>(sys.directory().coverage());
    }
    for (const TraceEvent &ev : rec.events()) {
        if (ev.kind == TraceEventKind::SyncAcquire ||
            ev.kind == TraceEventKind::SyncRelease)
            markers.push_back(ev);
    }
    return result;
}

/** recordGpuRun(preset) with the sync markers as its only events. */
ReproTrace
recordBase(const GpuTestPreset &preset)
{
    ReproTrace base;
    base.presetName = preset.name;
    base.system = preset.system;
    base.tester = preset.tester;
    base.tester.record = nullptr;
    base.tester.replay = nullptr;
    GpuTesterConfig cfg = base.tester;
    cfg.record = &base.schedule;
    base.result = runKeepingSyncMarkers(base.system, cfg, base.events);
    return base;
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

DependenceIndex::DependenceIndex(const EpisodeSchedule &schedule)
{
    const std::size_t n = schedule.size();
    VarId max_var = 0;
    _index.reserve(n);
    _syncVar.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Episode &e = schedule.episodes[i];
        _index.emplace(e.id, i);
        _syncVar.push_back(e.syncVar);
        for (const Episode::WriteEntry &w : e.writes)
            max_var = std::max(max_var, w.var);
        for (VarId v : e.reads)
            max_var = std::max(max_var, v);
    }
    _words = std::size_t(max_var) / 64 + 1;
    _writes.assign(n * _words, 0);
    _reads.assign(n * _words, 0);
    auto set = [this](std::vector<std::uint64_t> &bits, std::size_t i,
                      VarId v) {
        bits[i * _words + v / 64] |= std::uint64_t(1) << (v % 64);
    };
    for (std::size_t i = 0; i < n; ++i) {
        const Episode &e = schedule.episodes[i];
        for (const Episode::WriteEntry &w : e.writes)
            set(_writes, i, w.var);
        for (VarId v : e.reads)
            set(_reads, i, v);
    }
}

bool
DependenceIndex::dependent(std::size_t a, std::size_t b) const
{
    if (_syncVar[a] == _syncVar[b])
        return true;
    const std::uint64_t *wa = &_writes[a * _words];
    const std::uint64_t *ra = &_reads[a * _words];
    const std::uint64_t *wb = &_writes[b * _words];
    const std::uint64_t *rb = &_reads[b * _words];
    for (std::size_t k = 0; k < _words; ++k) {
        if ((wa[k] & (wb[k] | rb[k])) | (wb[k] & ra[k]))
            return true;
    }
    return false;
}

ExploreSource::ExploreSource(const GpuTestPreset &preset,
                             const ExploreOptions &opts)
    : _preset(preset), _opts(opts), _base(recordBase(preset)),
      _deps(_base.schedule)
{
    _predict = predictRaces(_base, _opts.predict);
    expandFrontier(_base.events, SchedulePerturbation{});
}

void
ExploreSource::expandFrontier(const std::vector<TraceEvent> &events,
                              const SchedulePerturbation &parent)
{
    // Observed acquire order (schedule indices; ids survive subsetting
    // and perturbation, and the schedule itself never changes) and
    // per-episode sync ticks. An id the schedule lacks stays in the
    // order as npos: it still separates its neighbours.
    struct Ticks
    {
        Tick acq = 0;
        Tick rel = 0;
    };
    const std::size_t npos = DependenceIndex::npos;
    std::vector<Ticks> ticks(_base.schedule.size());
    std::vector<std::size_t> acquire_order;
    for (const TraceEvent &ev : events) {
        const std::size_t idx = _deps.indexOf(ev.a);
        if (ev.kind == TraceEventKind::SyncAcquire) {
            if (idx != npos)
                ticks[idx].acq = ev.tick;
            acquire_order.push_back(idx);
        } else if (ev.kind == TraceEventKind::SyncRelease && idx != npos) {
            ticks[idx].rel = ev.tick;
        }
    }

    std::size_t flips = 0;
    for (std::size_t k = 0;
         k + 1 < acquire_order.size() && flips < _opts.maxFlipsPerTrace;
         ++k) {
        const std::size_t i1 = acquire_order[k];
        const std::size_t i2 = acquire_order[k + 1];
        if (i1 == npos || i2 == npos)
            continue;
        const Episode &e1 = _base.schedule.episodes[i1];
        const Episode &e2 = _base.schedule.episodes[i2];
        if (e1.wavefrontId == e2.wavefrontId)
            continue;
        if (!_deps.dependent(i1, i2))
            continue;
        if (!_sleep.insert({e1.id, e2.id}).second)
            continue;

        // Delay the earlier acquire past the later one, landing in the
        // middle of the later episode's span so the flip actually
        // overlaps (not merely reorders) the dependent work.
        const Ticks t1 = ticks[i1], t2 = ticks[i2];
        if (t2.acq <= t1.acq)
            continue;
        const Tick span = t2.rel > t2.acq ? t2.rel - t2.acq : 0;
        const Tick delay = (t2.acq - t1.acq) + span / 2 + 1;

        SchedulePerturbation child = parent;
        child.add(e1.id, delay);
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
            GpuTesterConfig cfg = _base.tester;
            cfg.replay = &_base.schedule;
            cfg.perturb = &slot->perturb;
            ShardOutcome out;
            out.name = name;
            out.result = runKeepingSyncMarkers(_base.system, cfg,
                                               slot->markers, &out);
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
