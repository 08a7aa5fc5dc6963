/**
 * @file
 * Tests for the benchmark's metric derivations and its ShardSource
 * decorator. Build and run with
 *   cmake --build .bench_build/perfbench --target perfbench_tests && \
 *   .bench_build/perfbench/perfbench_tests
 */

#include <gtest/gtest.h>

#include <thread>

#include "layers.hh"

using namespace perfbench;

TEST(Quantile, NearestRankWithSampleCount)
{
    const std::vector<double> v = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
    Quantile p90 = quantile(v, 0.9);
    EXPECT_EQ(p90.n, 10u);
    EXPECT_DOUBLE_EQ(p90.value, 9.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0).value, 10.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.0).value, 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.5).value, 5.0);
    EXPECT_DOUBLE_EQ(quantile({7}, 0.9).value, 7.0);
}

TEST(Quantile, MedianAveragesMiddlePairAndEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}).value, 2.5);
    EXPECT_EQ(median({4, 1, 3, 2}).n, 4u);
    EXPECT_DOUBLE_EQ(median({3, 1, 2}).value, 2.0);
    Quantile none = median({});
    EXPECT_EQ(none.n, 0u);
    EXPECT_DOUBLE_EQ(none.value, 0.0);
}

TEST(CapacityUse, BarrierIdleAndUtilization)
{
    // 4 lanes for 2.5 s offer 10 lane-seconds; shards used 6.
    CapacityUse use = capacityUse(6.0, 4, 2.5);
    EXPECT_DOUBLE_EQ(use.capacity, 10.0);
    EXPECT_DOUBLE_EQ(use.busy, 6.0);
    EXPECT_DOUBLE_EQ(use.idle, 4.0);
    EXPECT_DOUBLE_EQ(use.utilization, 0.6);
}

TEST(CapacityUse, IdleNeverNegativeAndZeroCapacityIsSafe)
{
    // Per-shard clocks can overlap the campaign wall slightly.
    EXPECT_DOUBLE_EQ(capacityUse(3.2, 3, 1.0).idle, 0.0);
    CapacityUse none = capacityUse(0.0, 3, 0.0);
    EXPECT_DOUBLE_EQ(none.utilization, 0.0);
    EXPECT_DOUBLE_EQ(none.idle, 0.0);
}

TEST(MetricSet, EveryRatioCarriesItsBase)
{
    MetricSet m;
    m.add("fleet.leases", 30, "count");
    m.addRatio("fleet.useful_lease_ratio", 24, 30, "fleet.leases", "count");
    m.addRatio("campaign.utilization", 6, 10, "campaign.capacity_s", "s");
    m.addRatio("sim.events_per_busy_s", 100, 0, "campaign.busy_s", "s",
               "1/s");

    for (const Metric &x : m.all()) {
        if (x.base.empty())
            continue;
        const Metric *base = m.find(x.base);
        ASSERT_NE(base, nullptr) << x.name << " lacks " << x.base;
    }
    EXPECT_DOUBLE_EQ(m.find("fleet.useful_lease_ratio")->value, 0.8);
    EXPECT_DOUBLE_EQ(m.find("campaign.capacity_s")->value, 10.0);
    EXPECT_DOUBLE_EQ(m.find("sim.events_per_busy_s")->value, 0.0);
    EXPECT_EQ(m.find("sim.events_per_busy_s")->unit, "1/s");

    const std::string json = m.json();
    EXPECT_NE(json.find("\"unit\":\"ratio\",\"base\":\"fleet.leases\""),
              std::string::npos)
        << json;
}

TEST(MetricSet, QuantileReportsNAndNamesAreUnique)
{
    MetricSet m;
    m.addQuantile("campaign.shard_s.p50", Quantile{0.25, 24}, "s");
    m.add("campaign.shard_s.p50", 99, "s");
    ASSERT_EQ(m.all().size(), 1u);
    EXPECT_EQ(m.all()[0].n, 24u);
    EXPECT_NE(m.json().find("\"n\":24"), std::string::npos);
}

TEST(MetricSet, MedianOfRepetitionsKeepsMetricsSeenOnlyLater)
{
    MetricSet a, b, c;
    a.add("wall_s", 3.0, "s");
    b.add("wall_s", 1.0, "s");
    c.add("wall_s", 2.0, "s");
    c.add("system.build_s", 0.5, "s");
    MetricSet med = medianOf({a, b, c});
    EXPECT_DOUBLE_EQ(med.find("wall_s")->value, 2.0);
    ASSERT_NE(med.find("system.build_s"), nullptr);
    EXPECT_DOUBLE_EQ(med.find("system.build_s")->value, 0.5);
}

namespace
{

/** A source with distinctive answers for every pass-through call. */
class FakeSource : public drf::ShardSource
{
  public:
    drf::Strategy strategy() const override { return drf::Strategy::Guided; }

    std::vector<drf::ShardSpec>
    nextBatch() override
    {
        std::vector<drf::ShardSpec> batch;
        if (_issued++ > 0)
            return batch;
        for (std::uint64_t seed : {11u, 12u}) {
            drf::ShardSpec spec;
            spec.name = "fake" + std::to_string(seed);
            spec.seed = seed;
            spec.run = [seed] {
                drf::ShardOutcome out;
                out.seed = seed;
                out.result.passed = seed != 12;
                out.result.events = seed * 100;
                return out;
            };
            batch.push_back(std::move(spec));
        }
        return batch;
    }

    void
    report(const drf::ShardOutcome &outcome,
           const drf::ShardFeedback &feedback) override
    {
        reportedSeeds.push_back(outcome.seed);
        reportedNewCells.push_back(feedback.newL1Cells +
                                   feedback.newL2Cells);
    }

    std::optional<drf::GpuTestPreset>
    presetForSeed(std::uint64_t seed) const override
    {
        if (seed != 11)
            return std::nullopt;
        drf::GpuTestPreset p;
        p.name = "preset-11";
        return p;
    }

    std::optional<drf::ShardLease>
    leaseForSeed(std::uint64_t seed) const override
    {
        if (seed != 12)
            return std::nullopt;
        drf::ShardLease lease;
        lease.name = "lease-12";
        lease.seed = 12;
        lease.genome.numCus = 5;
        lease.scale.lanes = 4;
        return lease;
    }

    std::optional<drf::PredictTriage>
    predictTriage() const override
    {
        drf::PredictTriage t;
        t.candidates = 7;
        t.confirmed = 3;
        t.firstPair = "a<->b";
        return t;
    }

    std::vector<std::uint64_t> reportedSeeds;
    std::vector<std::size_t> reportedNewCells;

  private:
    int _issued = 0;
};

} // namespace

TEST(TracedSource, ForwardsLookupsUnchanged)
{
    FakeSource inner;
    SpanRecorder rec(false);
    TracedSource ts(inner, rec);

    EXPECT_EQ(ts.strategy(), drf::Strategy::Guided);
    ASSERT_TRUE(ts.presetForSeed(11));
    EXPECT_EQ(ts.presetForSeed(11)->name, "preset-11");
    EXPECT_FALSE(ts.presetForSeed(12));

    ASSERT_TRUE(ts.leaseForSeed(12));
    EXPECT_EQ(ts.leaseForSeed(12)->name, "lease-12");
    EXPECT_EQ(ts.leaseForSeed(12)->genome, inner.leaseForSeed(12)->genome);
    EXPECT_EQ(ts.leaseForSeed(12)->scale.lanes, 4u);
    EXPECT_FALSE(ts.leaseForSeed(11));

    ASSERT_TRUE(ts.predictTriage());
    EXPECT_EQ(ts.predictTriage()->candidates, 7u);
    EXPECT_EQ(ts.predictTriage()->confirmed, 3u);
    EXPECT_EQ(ts.predictTriage()->firstPair, "a<->b");
}

TEST(TracedSource, WrapsShardBodiesAndForwardsReports)
{
    FakeSource inner;
    SpanRecorder rec(true);
    TracedSource ts(inner, rec);

    std::vector<drf::ShardSpec> batch;
    {
        ScopedSpan campaign(rec, "campaign");
        batch = ts.nextBatch();
    }
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].name, "fake11");
    EXPECT_EQ(batch[1].seed, 12u);
    EXPECT_FALSE(ts.firstShardStart());
    ASSERT_TRUE(ts.firstBatchIssued());

    // Bodies run on another thread, as on the campaign pool.
    std::vector<drf::ShardOutcome> outs(2);
    std::thread worker([&] {
        outs[0] = batch[0].run();
        outs[1] = batch[1].run();
    });
    worker.join();
    EXPECT_EQ(outs[0].result.events, 1100u);
    EXPECT_FALSE(outs[1].result.passed);
    EXPECT_TRUE(ts.firstShardStart());
    EXPECT_EQ(ts.shardRunSeconds().size(), 2u);

    drf::ShardFeedback fb;
    fb.newL1Cells = 2;
    ts.report(outs[0], fb);
    fb.newL1Cells = 0;
    ts.report(outs[1], fb);
    EXPECT_EQ(inner.reportedSeeds, (std::vector<std::uint64_t>{11, 12}));
    EXPECT_EQ(inner.reportedNewCells, (std::vector<std::size_t>{2, 0}));
    ASSERT_EQ(ts.reported().size(), 2u);
    EXPECT_EQ(ts.reported()[1].events, 1200u);
    EXPECT_FALSE(ts.reported()[1].passed);
    ASSERT_TRUE(ts.lastCoverageGrowth());
    EXPECT_EQ(*ts.lastCoverageGrowth(), ts.reported()[0].at);
    EXPECT_TRUE(ts.nextBatch().empty());

    // Shard spans hang off the span open where the batch was pulled.
    std::uint64_t campaign_id = 0;
    std::size_t shard_spans = 0;
    for (const Span &s : rec.spans())
        if (s.name == "campaign")
            campaign_id = s.id;
    for (const Span &s : rec.spans()) {
        if (s.name.rfind("shard.run", 0) == 0) {
            ++shard_spans;
            EXPECT_EQ(s.parent, campaign_id);
            EXPECT_LE(s.start, s.end);
        }
    }
    EXPECT_EQ(shard_spans, 2u);
}

TEST(SpanRecorder, DisabledRecordsNothing)
{
    SpanRecorder rec(false);
    {
        ScopedSpan outer(rec, "outer");
        ScopedSpan inner(rec, "inner");
    }
    EXPECT_TRUE(rec.spans().empty());
}

TEST(SpanRecorder, NestedSpansNameTheirParent)
{
    SpanRecorder rec(true);
    std::uint64_t outer_id = 0;
    {
        ScopedSpan outer(rec, "outer");
        outer_id = outer.id();
        ScopedSpan inner(rec, "inner");
        EXPECT_EQ(ScopedSpan::current(), inner.id());
    }
    EXPECT_EQ(ScopedSpan::current(), 0u);
    const std::vector<Span> spans = rec.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].parent, outer_id);
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_NE(rec.chromeJson().find("\"name\":\"inner\""),
              std::string::npos);
}
