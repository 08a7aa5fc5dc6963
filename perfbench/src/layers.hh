/**
 * @file
 * Measurement plumbing of the end-to-end benchmark: in-memory spans
 * recorded around calls into the tester's layers, a ShardSource
 * decorator that times every source call and shard body, and the
 * arithmetic that turns raw samples into reported metrics.
 *
 * Everything here sits outside src/: layers are timed from the
 * outside, at their public entry points. Spans are kept in memory and
 * written once, when the benchmark ends.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "guidance/shard_source.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p from to @p to. */
double secondsBetween(Clock::time_point from, Clock::time_point to);

/** One finished span. Times are seconds since the recorder's epoch. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::string name;
    unsigned thread = 0; ///< small per-process thread number
    double start = 0.0;
    double end = 0.0;
};

/**
 * Thread-safe in-memory span store. A disabled recorder records
 * nothing, so the untraced runs pay one branch per span site.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return _enabled; }

    /** Fresh span id (never 0). */
    std::uint64_t nextId() { return _nextId.fetch_add(1); }

    void add(Span span);

    /** Seconds since this recorder was created. */
    double now() const;

    std::vector<Span> spans() const;

    /** Chrome trace-event JSON (ts/dur in microseconds). */
    std::string chromeJson() const;

  private:
    const bool _enabled;
    const Clock::time_point _epoch;
    std::atomic<std::uint64_t> _nextId{1};
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

/**
 * RAII span. Its parent defaults to the innermost span open on the
 * calling thread; pass one explicitly for work handed to another
 * thread (shard bodies on the campaign pool).
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name);
    ScopedSpan(SpanRecorder &rec, std::string name, std::uint64_t parent);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return _span.id; }

    /** Id of the innermost span open on this thread (0 if none). */
    static std::uint64_t current();

  private:
    SpanRecorder &_rec;
    Span _span;
    std::uint64_t _saved = 0;
};

/**
 * Decorator over any ShardSource. It forwards every call unchanged,
 * wraps each issued ShardSpec::run so its execution is timed (and
 * spanned when tracing), and times nextBatch() and report().
 * presetForSeed, leaseForSeed and predictTriage pass straight through,
 * so a campaign or fleet driven through it behaves exactly as one
 * driven through the inner source.
 */
class TracedSource : public drf::ShardSource
{
  public:
    TracedSource(drf::ShardSource &inner, SpanRecorder &rec);

    drf::Strategy strategy() const override;
    std::vector<drf::ShardSpec> nextBatch() override;
    void report(const drf::ShardOutcome &outcome,
                const drf::ShardFeedback &feedback) override;
    std::optional<drf::GpuTestPreset>
    presetForSeed(std::uint64_t seed) const override;
    std::optional<drf::ShardLease>
    leaseForSeed(std::uint64_t seed) const override;
    std::optional<drf::PredictTriage> predictTriage() const override;

    /** When the first shard body started (nullopt if none ran here). */
    std::optional<Clock::time_point> firstShardStart() const;
    /** When the first nextBatch() returned (nullopt before that). */
    std::optional<Clock::time_point> firstBatchIssued() const;

    /** Wall seconds of each shard body run in this process. */
    std::vector<double> shardRunSeconds() const;

    /** What report() saw for one shard, in report order. */
    struct Reported
    {
        Clock::time_point at;
        double hostSeconds = 0.0; ///< as measured by the program
        std::uint64_t events = 0;
        std::uint64_t episodes = 0;
        std::uint64_t loadsChecked = 0;
        std::uint64_t atomicsChecked = 0;
        std::size_t newCells = 0; ///< L1 + L2 union cells covered first
        bool passed = true;
    };
    const std::vector<Reported> &reported() const { return _reported; }

    /** When a report last grew the L1/L2 union (nullopt if never). */
    std::optional<Clock::time_point> lastCoverageGrowth() const;

    /** Directory-coverage union over the reported shards. */
    std::size_t dirActive() const;

    double nextBatchSeconds() const { return _nextBatchSeconds; }
    double reportSeconds() const { return _reportSeconds; }

  private:
    drf::ShardSource &_inner;
    SpanRecorder &_rec;

    mutable std::mutex _mutex; ///< guards the two fields below
    std::optional<Clock::time_point> _firstShardStart;
    std::vector<double> _runSeconds;

    std::optional<Clock::time_point> _firstBatchIssued;
    std::vector<Reported> _reported;
    drf::CoverageAccumulator _dir;
    double _nextBatchSeconds = 0.0;
    double _reportSeconds = 0.0;
};

/** A sample statistic together with the sample count behind it. */
struct Quantile
{
    double value = 0.0;
    std::size_t n = 0;
};

/**
 * Nearest-rank quantile @p q in [0, 1] of @p samples: the smallest
 * sample with at least q*n samples at or below it. Empty input gives
 * {0, 0}.
 */
Quantile quantile(std::vector<double> samples, double q);

/** Median (mean of the middle two for an even count), with the count. */
Quantile median(std::vector<double> samples);

/**
 * How a pool of @p lanes executors spent @p wall seconds when shards
 * kept them busy for @p busy seconds in total.
 */
struct CapacityUse
{
    double capacity = 0.0;    ///< lanes * wall
    double busy = 0.0;
    double idle = 0.0;        ///< capacity - busy, floored at 0
    double utilization = 0.0; ///< busy / capacity (0 when capacity is 0)
};

CapacityUse capacityUse(double busy, unsigned lanes, double wall);

/** @p num / @p base, 0 when the base is 0. */
double ratio(double num, double base);

/** One reported metric. A ratio names the metric that is its base. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string base;  ///< name of the base metric (ratios only)
    std::size_t n = 0; ///< sample count (quantiles only)
};

/** Ordered, name-unique metric list with JSON rendering. */
class MetricSet
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    void addMetric(const Metric &metric);
    void addQuantile(const std::string &name, const Quantile &q,
                     const std::string &unit);
    /**
     * Emit the ratio @p num / @p base as @p name and, unless already
     * present, its base as @p base_name, so no ratio is reported
     * without the number it divides by.
     */
    void addRatio(const std::string &name, double num, double base,
                  const std::string &base_name,
                  const std::string &base_unit,
                  const std::string &unit = "ratio");

    const std::vector<Metric> &all() const { return _metrics; }
    const Metric *find(const std::string &name) const;

    /** {"name": {"value": v, "unit": u[, "base": b][, "n": n]}, ...} */
    std::string json() const;

  private:
    std::vector<Metric> _metrics;
};

/**
 * Metric-wise median over the repetitions that report each metric
 * (unit, base and n come from the first that does).
 */
MetricSet medianOf(const std::vector<MetricSet> &reps);

/** @p v as 16 hex digits. */
std::string hex64(std::uint64_t v);

/** 64-bit FNV-1a of @p text, as 16 hex digits. */
std::string digestHex(const std::string &text);

/**
 * JSON number with every significant digit (JsonWriter keeps six);
 * non-finite values render as 0.
 */
std::string jsonNumber(double value);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
