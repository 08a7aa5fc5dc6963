/**
 * @file
 * Fig. 9: transition coverage and testing time of every application
 * (reported in run-time order like the paper), plus the UNION row.
 *
 * Expected shape: the atomic-heavy applications (Interac, CM, the
 * HeteroSync family) dominate the union coverage; total time is far
 * larger than the tester sweep's.
 *
 * Applications shard across the campaign runner exactly like tester
 * presets (each gets a fresh system and a deterministic trace); pass
 * --jobs N or set DRF_JOBS to control the worker count.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "guidance/adaptive_campaign.hh"

using namespace drf;
using namespace drf::bench;

int
main(int argc, char **argv)
{
    std::printf("Fig. 9 — application coverage and testing time\n");

    std::vector<ShardSpec> shards;
    for (const AppProfile &profile : makeAppSuite())
        shards.push_back(appShard(profile));

    CampaignConfig cfg;
    cfg.jobs = parseJobs(argc, argv);
    cfg.stopOnFailure = false; // always print the full table
    cfg.keepOutcomes = true;
    CampaignResult res = runCampaign(std::move(shards), cfg);

    // Report in run-time order, like the paper.
    std::vector<const ShardOutcome *> rows;
    for (const ShardOutcome &out : res.outcomes)
        rows.push_back(&out);
    std::sort(rows.begin(), rows.end(),
              [](const ShardOutcome *a, const ShardOutcome *b) {
                  return a->result.ticks < b->result.ticks;
              });

    std::printf("\n%-12s %8s %8s %13s %9s\n", "app", "L1 cov", "L2 cov",
                "sim ticks", "host (s)");
    for (const ShardOutcome *row : rows) {
        printCoverageRow(row->name, row->l1->coveragePct("gpu_tester"),
                         row->l2->coveragePct("gpu_tester"),
                         row->result.ticks, row->result.hostSeconds);
        if (!row->result.passed)
            std::fprintf(stderr, "%s\n", row->result.report.c_str());
    }
    std::printf("%s\n", std::string(56, '-').c_str());
    printCoverageRow("(UNION)",
                     res.l1Union->coveragePct("gpu_tester"),
                     res.l2Union->coveragePct("gpu_tester"),
                     res.totalTicks, res.shardSecondsSum);
    std::printf("\n%u worker(s): %.3f s wall for %.3f s of testing\n",
                res.jobs, res.wallSeconds, res.shardSecondsSum);
    std::printf("paper: the application union trails the tester by "
                "6.25%% (L1) and 25%% (L2)\n");
    return res.passed ? 0 : 1;
}
