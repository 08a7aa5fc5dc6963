/**
 * @file
 * Fig. 7: classification maps (Undef / Inact / Active / Impsb) of the
 * GPU L1 and L2 transitions, comparing the GPU tester's union coverage
 * against the union of all 26 applications.
 *
 * Expected shape: identical Undef cells in both maps; the tester
 * activates more cells; the L2 PrbInv column is Impsb for the tester
 * but reachable (and partly Active) for applications.
 *
 * Both unions are computed by the campaign runner (--jobs / DRF_JOBS
 * control the worker count); the merged grids are order-independent,
 * so the maps match a serial run exactly.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "guidance/adaptive_campaign.hh"

using namespace drf;
using namespace drf::bench;

int
main(int argc, char **argv)
{
    std::printf("Fig. 7 — GPU L1/L2 transitions covered by GPU tester "
                "vs applications\n");

    CampaignConfig cfg;
    cfg.jobs = parseJobs(argc, argv);
    cfg.stopOnFailure = false;

    // Tester union over a compact configuration set: all three cache
    // classes x both atomic-location counts, with a dense address range
    // so transient-state collisions (the rare cells) appear quickly.
    std::vector<ShardSpec> tester_shards;
    unsigned run_idx = 0;
    for (auto cache_class :
         {CacheSizeClass::Small, CacheSizeClass::Large,
          CacheSizeClass::Mixed}) {
        for (unsigned locs : {10u, 100u}) {
            GpuTestPreset preset;
            preset.name = "fig7-" +
                          std::string(cacheSizeClassName(cache_class)) +
                          "-" + std::to_string(locs);
            preset.cacheClass = cache_class;
            preset.system = makeGpuSystemConfig(cache_class);
            preset.tester = makeGpuTesterConfig(
                /*actions=*/200, /*episodes=*/30, locs,
                /*seed=*/42 + run_idx);
            preset.tester.variables.addrRangeBytes = 1 << 16;
            tester_shards.push_back(gpuShard(preset));
            ++run_idx;
        }
    }
    CampaignResult tester = runCampaign(std::move(tester_shards), cfg);

    // Application union over the whole suite.
    std::vector<ShardSpec> app_shards;
    for (const AppProfile &profile : makeAppSuite())
        app_shards.push_back(appShard(profile));
    CampaignResult apps = runCampaign(std::move(app_shards), cfg);

    header("(a) GPU tester");
    tester.l1Union->renderClassMap(std::cout, "gpu_tester");
    std::printf("\n");
    tester.l2Union->renderClassMap(std::cout, "gpu_tester");
    std::printf("\nL1 coverage: %.1f%%   L2 coverage: %.1f%% (of "
                "tester-reachable transitions)\n",
                tester.l1Union->coveragePct("gpu_tester"),
                tester.l2Union->coveragePct("gpu_tester"));

    header("(b) all applications");
    apps.l1Union->renderClassMap(std::cout);
    std::printf("\n");
    apps.l2Union->renderClassMap(std::cout);
    std::printf("\nL1 coverage: %.1f%%   L2 coverage: %.1f%% (same "
                "denominator as the tester)\n",
                apps.l1Union->coveragePct("gpu_tester"),
                apps.l2Union->coveragePct("gpu_tester"));

    header("summary");
    std::printf("L1: tester %.1f%% vs apps %.1f%% (paper: 94%% vs "
                "~88%%)\n",
                tester.l1Union->coveragePct("gpu_tester"),
                apps.l1Union->coveragePct("gpu_tester"));
    std::printf("L2: tester %.1f%% vs apps %.1f%% (paper: 100%% vs "
                "75%%)\n",
                tester.l2Union->coveragePct("gpu_tester"),
                apps.l2Union->coveragePct("gpu_tester"));
    return (tester.passed && apps.passed) ? 0 : 1;
}
