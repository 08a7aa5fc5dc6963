/**
 * @file
 * Configuration-space exploration (Section IV.A): shows how the
 * tester's knobs — cache size class, address range, episode length —
 * steer it toward different subsets of the transition space, which is
 * why a sweep of cheap configurations beats one long run.
 *
 * The variants run as one campaign (they are independent simulations);
 * pass --jobs N to run them on N worker threads. Per-variant numbers
 * are identical either way.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "guidance/adaptive_campaign.hh"
#include "system/apu_system.hh"
#include "tester/configs.hh"
#include "tester/gpu_tester.hh"

using namespace drf;

namespace
{

struct Variant
{
    const char *label;
    CacheSizeClass cacheClass;
    std::uint64_t addrRange;
    unsigned actionsPerEpisode;
};

GpuTestPreset
variantPreset(const Variant &v)
{
    GpuTestPreset preset;
    preset.name = v.label;
    preset.cacheClass = v.cacheClass;
    preset.system = makeGpuSystemConfig(v.cacheClass, 8);
    preset.tester = makeGpuTesterConfig(v.actionsPerEpisode,
                                        /*episodes=*/15,
                                        /*atomic_locs=*/10,
                                        /*seed=*/77);
    preset.tester.variables.addrRangeBytes = v.addrRange;
    // Keep the variable count below the tightest range's capacity.
    preset.tester.variables.numNormalVars = 2048;
    return preset;
}

unsigned
parseJobs(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--jobs")
            return static_cast<unsigned>(std::atoi(argv[i + 1]));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("Tester configuration-space exploration\n");
    std::printf("(same seed and test length; only the knobs below "
                "change)\n\n");

    const Variant variants[] = {
        {"baseline", CacheSizeClass::Small, 1 << 20, 100},
        {"large caches (hits)", CacheSizeClass::Large, 1 << 20, 100},
        {"mixed caches", CacheSizeClass::Mixed, 1 << 20, 100},
        {"tight addresses (sharing)", CacheSizeClass::Small, 1 << 14,
         100},
        {"long episodes", CacheSizeClass::Small, 1 << 20, 200},
        {"tight + long", CacheSizeClass::Small, 1 << 14, 200},
    };

    std::vector<ShardSpec> shards;
    std::vector<CacheSizeClass> classes;
    for (const Variant &v : variants) {
        shards.push_back(gpuShard(variantPreset(v)));
        classes.push_back(v.cacheClass);
    }

    CampaignConfig cfg;
    cfg.jobs = parseJobs(argc, argv);
    cfg.stopOnFailure = false; // show every variant, even on failure
    cfg.keepOutcomes = true;
    CampaignResult res = runCampaign(std::move(shards), cfg);

    for (const ShardOutcome &out : res.outcomes) {
        std::printf("%-26s %-6s L1 %5.1f%%  L2 %5.1f%%  "
                    "[Repl,V]=%-7llu [Load,V]=%-8llu stalls=%llu  %s\n",
                    out.name.c_str(),
                    cacheSizeClassName(classes[out.index]),
                    out.l1->coveragePct("gpu_tester"),
                    out.l2->coveragePct("gpu_tester"),
                    (unsigned long long)out.l1->count(GpuL1Cache::EvRepl,
                                                      GpuL1Cache::StV),
                    (unsigned long long)out.l1->count(GpuL1Cache::EvLoad,
                                                      GpuL1Cache::StV),
                    (unsigned long long)out.l2->count(GpuL2Cache::EvRdBlk,
                                                      GpuL2Cache::StIV),
                    out.result.passed ? "ok" : "FAILED");
    }

    std::printf("\nsmall caches stress replacements; large caches "
                "stress hits; tight address ranges stress transient "
                "collisions (stalls) — combine configurations to cover "
                "the whole space.\n");
    return res.passed ? 0 : 1;
}
