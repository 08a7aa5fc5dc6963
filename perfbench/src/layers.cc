#include "layers.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "campaign/campaign_json.hh"
#include "chaos/chaos.hh"

namespace perfbench
{

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

SpanRecorder::SpanRecorder(bool enabled)
    : _enabled(enabled), _epoch(Clock::now())
{
}

void
SpanRecorder::add(Span span)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(std::move(span));
}

double
SpanRecorder::now() const
{
    return secondsBetween(_epoch, Clock::now());
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

std::string
SpanRecorder::chromeJson() const
{
    drf::JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (const Span &s : spans()) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("ph").value("X");
        w.key("pid").value(1);
        w.key("tid").value(s.thread);
        w.key("ts").raw(jsonNumber(s.start * 1e6));
        w.key("dur").raw(jsonNumber((s.end - s.start) * 1e6));
        w.key("args").beginObject();
        w.key("id").value(s.id);
        w.key("parent").value(s.parent);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

namespace
{

std::atomic<unsigned> threadCounter{0};
thread_local unsigned tlThreadNumber = 0;
thread_local std::uint64_t tlCurrentSpan = 0;

/** Small stable number of the calling thread, in first-use order. */
unsigned
threadNumber()
{
    if (tlThreadNumber == 0)
        tlThreadNumber = threadCounter.fetch_add(1) + 1;
    return tlThreadNumber;
}

} // namespace

ScopedSpan::ScopedSpan(SpanRecorder &rec, std::string name)
    : ScopedSpan(rec, std::move(name), tlCurrentSpan)
{
}

ScopedSpan::ScopedSpan(SpanRecorder &rec, std::string name,
                       std::uint64_t parent)
    : _rec(rec)
{
    if (!_rec.enabled())
        return;
    _span.id = _rec.nextId();
    _span.parent = parent;
    _span.name = std::move(name);
    _span.thread = threadNumber();
    _saved = tlCurrentSpan;
    tlCurrentSpan = _span.id;
    _span.start = _rec.now();
}

ScopedSpan::~ScopedSpan()
{
    if (!_rec.enabled())
        return;
    _span.end = _rec.now();
    tlCurrentSpan = _saved;
    _rec.add(std::move(_span));
}

std::uint64_t
ScopedSpan::current()
{
    return tlCurrentSpan;
}

TracedSource::TracedSource(drf::ShardSource &inner, SpanRecorder &rec)
    : _inner(inner), _rec(rec)
{
}

drf::Strategy
TracedSource::strategy() const
{
    return _inner.strategy();
}

std::vector<drf::ShardSpec>
TracedSource::nextBatch()
{
    const Clock::time_point start = Clock::now();
    std::vector<drf::ShardSpec> batch;
    {
        ScopedSpan span(_rec, "guidance.next_batch");
        batch = _inner.nextBatch();
    }
    const Clock::time_point end = Clock::now();
    _nextBatchSeconds += secondsBetween(start, end);
    if (!_firstBatchIssued)
        _firstBatchIssued = end;

    // Shard bodies run on pool threads: parent them to whatever span
    // was open where the batch was pulled (the campaign).
    const std::uint64_t parent = ScopedSpan::current();
    for (drf::ShardSpec &spec : batch) {
        spec.run = [this, parent, name = spec.name,
                    body = std::move(spec.run)]() {
            const Clock::time_point t0 = Clock::now();
            {
                std::lock_guard<std::mutex> lock(_mutex);
                if (!_firstShardStart)
                    _firstShardStart = t0;
            }
            drf::ShardOutcome out;
            {
                ScopedSpan span(_rec, "shard.run " + name, parent);
                out = body();
            }
            const double secs = secondsBetween(t0, Clock::now());
            std::lock_guard<std::mutex> lock(_mutex);
            _runSeconds.push_back(secs);
            return out;
        };
    }
    return batch;
}

void
TracedSource::report(const drf::ShardOutcome &outcome,
                     const drf::ShardFeedback &feedback)
{
    const Clock::time_point start = Clock::now();
    {
        ScopedSpan span(_rec, "guidance.report");
        _inner.report(outcome, feedback);
    }
    const Clock::time_point end = Clock::now();
    _reportSeconds += secondsBetween(start, end);

    Reported r;
    r.at = end;
    r.hostSeconds = outcome.result.hostSeconds;
    r.events = outcome.result.events;
    r.episodes = outcome.result.episodes;
    r.loadsChecked = outcome.result.loadsChecked;
    r.atomicsChecked = outcome.result.atomicsChecked;
    r.newCells = feedback.newL1Cells + feedback.newL2Cells;
    r.passed = outcome.result.passed;
    _reported.push_back(r);
    if (outcome.dir)
        _dir.add(*outcome.dir);
}

std::optional<Clock::time_point>
TracedSource::lastCoverageGrowth() const
{
    for (auto it = _reported.rbegin(); it != _reported.rend(); ++it)
        if (it->newCells > 0)
            return it->at;
    return std::nullopt;
}

std::size_t
TracedSource::dirActive() const
{
    return _dir.empty() ? 0 : _dir.grid().activeCount();
}

std::optional<drf::GpuTestPreset>
TracedSource::presetForSeed(std::uint64_t seed) const
{
    return _inner.presetForSeed(seed);
}

std::optional<drf::ShardLease>
TracedSource::leaseForSeed(std::uint64_t seed) const
{
    return _inner.leaseForSeed(seed);
}

std::optional<drf::PredictTriage>
TracedSource::predictTriage() const
{
    return _inner.predictTriage();
}

std::optional<Clock::time_point>
TracedSource::firstShardStart() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _firstShardStart;
}

std::optional<Clock::time_point>
TracedSource::firstBatchIssued() const
{
    return _firstBatchIssued;
}

std::vector<double>
TracedSource::shardRunSeconds() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _runSeconds;
}

Quantile
quantile(std::vector<double> samples, double q)
{
    Quantile out;
    out.n = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    const double clamped = std::clamp(q, 0.0, 1.0);
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(clamped * double(out.n)));
    rank = std::clamp<std::size_t>(rank, 1, out.n);
    out.value = samples[rank - 1];
    return out;
}

Quantile
median(std::vector<double> samples)
{
    Quantile out;
    out.n = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = out.n / 2;
    out.value = out.n % 2 ? samples[mid]
                          : (samples[mid - 1] + samples[mid]) / 2.0;
    return out;
}

CapacityUse
capacityUse(double busy, unsigned lanes, double wall)
{
    CapacityUse use;
    use.capacity = double(lanes) * wall;
    use.busy = busy;
    use.idle = std::max(0.0, use.capacity - busy);
    use.utilization = ratio(busy, use.capacity);
    return use;
}

double
ratio(double num, double base)
{
    return base != 0.0 ? num / base : 0.0;
}

void
MetricSet::add(const std::string &name, double value,
               const std::string &unit)
{
    addMetric({name, value, unit, "", 0});
}

void
MetricSet::addMetric(const Metric &metric)
{
    if (!find(metric.name))
        _metrics.push_back(metric);
}

void
MetricSet::addQuantile(const std::string &name, const Quantile &q,
                       const std::string &unit)
{
    addMetric({name, q.value, unit, "", q.n});
}

void
MetricSet::addRatio(const std::string &name, double num, double base,
                    const std::string &base_name,
                    const std::string &base_unit, const std::string &unit)
{
    add(base_name, base, base_unit);
    addMetric({name, ratio(num, base), unit, base_name, 0});
}

const Metric *
MetricSet::find(const std::string &name) const
{
    for (const Metric &m : _metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

std::string
MetricSet::json() const
{
    drf::JsonWriter w;
    w.beginObject();
    for (const Metric &m : _metrics) {
        w.key(m.name).beginObject();
        w.key("value").raw(jsonNumber(m.value));
        w.key("unit").value(m.unit);
        if (!m.base.empty())
            w.key("base").value(m.base);
        if (m.n != 0)
            w.key("n").value(std::uint64_t(m.n));
        w.endObject();
    }
    w.endObject();
    return w.str();
}

MetricSet
medianOf(const std::vector<MetricSet> &reps)
{
    MetricSet out;
    for (const MetricSet &rep : reps) {
        for (const Metric &m : rep.all()) {
            if (out.find(m.name))
                continue;
            std::vector<double> values;
            for (const MetricSet &r : reps)
                if (const Metric *x = r.find(m.name))
                    values.push_back(x->value);
            Metric med = m;
            med.value = median(values).value;
            out.addMetric(med);
        }
    }
    return out;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

std::string
digestHex(const std::string &text)
{
    return hex64(drf::chaos::fnv1a64(text));
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace perfbench
