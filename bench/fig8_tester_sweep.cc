/**
 * @file
 * Fig. 8: the 24 Table III GPU tester permutations ("Test 0" .. "Test
 * 23"): per-test GPU L1/L2 transition coverage and testing time, plus
 * the UNION row (the union of all coverage and the cumulative time).
 *
 * The sweep runs as a parallel campaign (all presets are independent);
 * pass --jobs N (or set DRF_JOBS) to pick the worker count. Per-test
 * numbers are identical to a serial run — only the wall clock changes.
 */

#include <cstdio>

#include "bench_util.hh"
#include "guidance/adaptive_campaign.hh"

using namespace drf;
using namespace drf::bench;

int
main(int argc, char **argv)
{
    std::printf("Fig. 8 — GPU tester sweep: coverage and testing time\n");

    std::vector<ShardSpec> shards;
    for (const auto &preset : makeGpuTestSweep(/*base_seed=*/7))
        shards.push_back(gpuShard(preset));

    CampaignConfig cfg;
    cfg.jobs = parseJobs(argc, argv);
    cfg.stopOnFailure = false; // always print the full table
    cfg.keepOutcomes = true;
    CampaignResult res = runCampaign(std::move(shards), cfg);

    std::printf("\n%-12s %8s %8s %13s %9s\n", "test", "L1 cov",
                "L2 cov", "sim ticks", "host (s)");
    for (const ShardOutcome &out : res.outcomes) {
        printCoverageRow(out.name, out.l1->coveragePct("gpu_tester"),
                         out.l2->coveragePct("gpu_tester"),
                         out.result.ticks, out.result.hostSeconds);
        if (!out.result.passed)
            std::fprintf(stderr, "%s FAILED: %s\n", out.name.c_str(),
                         out.result.report.c_str());
    }

    std::printf("%s\n", std::string(56, '-').c_str());
    printCoverageRow("(UNION)",
                     res.l1Union->coveragePct("gpu_tester"),
                     res.l2Union->coveragePct("gpu_tester"),
                     res.totalTicks, res.shardSecondsSum);
    std::printf("\n%u worker(s): %.3f s wall for %.3f s of testing "
                "(%.2fx)\n",
                res.jobs, res.wallSeconds, res.shardSecondsSum,
                res.wallSeconds > 0.0
                    ? res.shardSecondsSum / res.wallSeconds
                    : 0.0);
    std::printf("paper: union reaches 94%% (L1) and 100%% (L2) of "
                "reachable transitions\n");
    return res.passed ? 0 : 1;
}
