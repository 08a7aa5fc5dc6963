#include "predict/predict.hh"

#include <algorithm>
#include <utility>

#include "campaign/campaign_json.hh"

namespace drf
{

namespace
{

/** The episodes accessing one variable, by schedule index, in
 *  schedule order. An episode that writes the variable is a writer
 *  only. */
struct VarAccesses
{
    std::vector<std::size_t> writes;
    std::vector<std::size_t> reads;
};

AccessSite
makeSite(const ReproTrace &trace, const HbModel &model, std::size_t idx,
         VarId var, bool is_write)
{
    const Episode &e = trace.schedule.episodes[idx];
    AccessSite site;
    site.scheduleIndex = idx;
    site.episodeId = e.id;
    site.wavefront = e.wavefrontId;
    site.cu = model.cuOf(idx);
    site.scope = e.scope;
    site.var = var;
    site.isWrite = is_write;
    return site;
}

void
writeSite(JsonWriter &w, const AccessSite &s)
{
    w.beginObject();
    w.key("episode_id").value(s.episodeId);
    w.key("schedule_index").value(std::uint64_t(s.scheduleIndex));
    w.key("wavefront").value(s.wavefront);
    w.key("cu").value(s.cu);
    w.key("scope").value(scopeName(s.scope));
    w.key("var").value(std::uint64_t(s.var));
    w.key("access").value(s.isWrite ? "write" : "read");
    w.endObject();
}

/** Verify one candidate in place; returns replays executed. */
std::size_t
verifyRace(const ReproTrace &trace, PredictedRace &race,
           const PredictOptions &opts)
{
    std::size_t replays = 0;
    const EpisodeSchedule wit = witnessSchedule(trace, race);

    // The pair-prefix may already fail on its own: dropping unrelated
    // episodes changes the timing enough that no perturbation is even
    // needed.
    TraceRecorder rec;
    TesterResult base = replayGpuRun(trace, wit, true, &rec);
    ++replays;
    race.verified = true;
    if (base.failureClass != FailureClass::None) {
        race.confirmed = true;
        race.witnessClass = base.failureClass;
        race.witnessDelay = 0;
        race.witnessReport = base.report;
        return replays;
    }

    // Delay ladder: push the earlier episode's acquire to (and then
    // past) the later episode's acquire, in steps that stride across
    // the later episode's span. All ticks come from the witness
    // replay's own sync markers, so the probes track the subsequence's
    // actual timing, not the full trace's.
    Tick acq1 = 0, acq2 = 0, rel2 = 0;
    for (const TraceEvent &ev : rec.events()) {
        if (ev.kind == TraceEventKind::SyncAcquire) {
            if (ev.a == race.first.episodeId)
                acq1 = ev.tick;
            else if (ev.a == race.second.episodeId)
                acq2 = ev.tick;
        } else if (ev.kind == TraceEventKind::SyncRelease &&
                   ev.a == race.second.episodeId) {
            rel2 = ev.tick;
        }
    }
    const Tick span = rel2 > acq2 ? rel2 - acq2 : 0;
    const Tick quantum =
        std::max<Tick>(1, opts.maxProbes == 0
                              ? span
                              : span / opts.maxProbes);
    const Tick base_delay = acq2 > acq1 ? acq2 - acq1 : 0;

    for (unsigned k = 0; k < opts.maxProbes; ++k) {
        const Tick delay = base_delay + k * quantum;
        if (delay == 0)
            continue;
        SchedulePerturbation perturb;
        perturb.add(race.first.episodeId, delay);
        TesterResult r = replayGpuRun(trace, wit, true, nullptr, &perturb);
        ++replays;
        if (r.failureClass != FailureClass::None) {
            race.confirmed = true;
            race.witnessClass = r.failureClass;
            race.witnessDelay = delay;
            race.witnessReport = r.report;
            return replays;
        }
    }
    return replays;
}

} // namespace

std::size_t
PredictReport::confirmedCount() const
{
    std::size_t n = 0;
    for (const PredictedRace &r : races)
        n += r.confirmed ? 1 : 0;
    return n;
}

std::size_t
PredictReport::demotedCount() const
{
    std::size_t n = 0;
    for (const PredictedRace &r : races)
        n += (r.verified && !r.confirmed) ? 1 : 0;
    return n;
}

EpisodeSchedule
witnessSchedule(const ReproTrace &trace, const PredictedRace &race)
{
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < trace.schedule.size(); ++i) {
        const Episode &e = trace.schedule.episodes[i];
        if (e.wavefrontId == race.first.wavefront &&
            i <= race.first.scheduleIndex) {
            keep.push_back(i);
        } else if (e.wavefrontId == race.second.wavefront &&
                   i <= race.second.scheduleIndex) {
            keep.push_back(i);
        }
    }
    return trace.schedule.subset(keep);
}

PredictReport
predictRaces(const ReproTrace &trace, const PredictOptions &opts)
{
    PredictReport report;
    const HbModel model = HbModel::build(trace);
    report.orderSource = model.orderSource();
    report.eventsAnalyzed = model.eventsAnalyzed();

    // Group accesses by variable, indexed by VarId so the pairs below
    // are visited in VarId order; each list is in schedule order.
    const std::size_t n = trace.schedule.size();
    std::vector<VarAccesses> by_var;
    auto accesses_of = [&by_var](VarId v) -> VarAccesses & {
        if (v >= by_var.size())
            by_var.resize(std::size_t(v) + 1);
        return by_var[v];
    };
    for (std::size_t i = 0; i < n; ++i) {
        const Episode &e = trace.schedule.episodes[i];
        for (const Episode::WriteEntry &w : e.writes)
            accesses_of(w.var).writes.push_back(i);
        for (VarId v : e.reads) {
            // A lane re-reading its own store is one access site, not
            // a conflict with itself.
            VarAccesses &acc = accesses_of(v);
            if (acc.writes.empty() || acc.writes.back() != i)
                acc.reads.push_back(i);
        }
    }

    // Enumerate conflicting pairs (a write and a write or read); each
    // episode pair is checked once, on its first conflicting variable
    // in VarId order. seen is an n x n bitmap over (lower, higher)
    // schedule index.
    std::vector<bool> seen(n * n, false);
    auto first_visit = [&](std::size_t x, std::size_t y) {
        if (model.agentOf(x) == model.agentOf(y))
            return false;
        const std::size_t key = x < y ? x * n + y : y * n + x;
        if (seen[key])
            return false;
        seen[key] = true;
        return true;
    };
    std::vector<PredictedRace> found;
    auto check = [&](VarId var, std::size_t x, bool x_write, std::size_t y,
                     bool y_write) {
        ++report.pairsChecked;
        if (model.ordered(x, y))
            return;
        ++report.candidates;
        // Observed sync order decides which side the witness
        // perturbation delays.
        const Tick acq_x = model.sync(x).acqTick;
        const Tick acq_y = model.sync(y).acqTick;
        if (acq_x != acq_y ? acq_y < acq_x : y < x) {
            std::swap(x, y);
            std::swap(x_write, y_write);
        }
        PredictedRace race;
        race.first = makeSite(trace, model, x, var, x_write);
        race.second = makeSite(trace, model, y, var, y_write);
        race.syncPath = model.explainUnordered(x, y, trace);
        found.push_back(std::move(race));
    };
    for (std::size_t v = 0; v < by_var.size(); ++v) {
        const VarId var = VarId(v);
        const VarAccesses &acc = by_var[v];
        for (std::size_t p = 0; p < acc.writes.size(); ++p) {
            const std::size_t w = acc.writes[p];
            for (std::size_t q = p + 1; q < acc.writes.size(); ++q) {
                if (first_visit(w, acc.writes[q]))
                    check(var, w, true, acc.writes[q], true);
            }
            for (std::size_t r : acc.reads) {
                if (first_visit(w, r))
                    check(var, w, true, r, false);
            }
        }
    }

    std::sort(found.begin(), found.end(),
              [](const PredictedRace &l, const PredictedRace &r) {
                  if (l.first.scheduleIndex != r.first.scheduleIndex)
                      return l.first.scheduleIndex < r.first.scheduleIndex;
                  return l.second.scheduleIndex < r.second.scheduleIndex;
              });
    if (found.size() > kMaxPredictCandidates)
        found.resize(kMaxPredictCandidates);
    report.races = std::move(found);

    for (PredictedRace &race : report.races)
        report.replays += verifyRace(trace, race, opts);
    return report;
}

std::string
predictReportJson(const ReproTrace &trace, const PredictReport &report)
{
    JsonWriter w;
    w.beginObject();
    w.key("preset").value(trace.presetName);
    w.key("seed").value(trace.tester.seed);
    w.key("scope_mode").value(scopeModeName(trace.tester.scopeMode));
    w.key("recorded_failure")
        .value(failureClassName(trace.result.failureClass));
    w.key("order_source").value(hbOrderSourceName(report.orderSource));
    w.key("events_analyzed").value(std::uint64_t(report.eventsAnalyzed));
    w.key("pairs_checked").value(std::uint64_t(report.pairsChecked));
    w.key("candidates").value(std::uint64_t(report.candidates));
    w.key("confirmed").value(std::uint64_t(report.confirmedCount()));
    w.key("demoted").value(std::uint64_t(report.demotedCount()));
    w.key("replays").value(std::uint64_t(report.replays));
    w.key("races").beginArray();
    for (const PredictedRace &r : report.races) {
        w.beginObject();
        w.key("first");
        writeSite(w, r.first);
        w.key("second");
        writeSite(w, r.second);
        w.key("sync_path").value(r.syncPath);
        w.key("verified").value(r.verified);
        w.key("confirmed").value(r.confirmed);
        w.key("witness").beginObject();
        w.key("failure_class").value(failureClassName(r.witnessClass));
        w.key("delay_ticks").value(r.witnessDelay);
        w.key("report").value(r.witnessReport);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace drf
