/**
 * @file
 * Fig. 10: system-directory transition coverage of (a) all
 * applications, (b) the CPU tester, and (c) the union of the GPU and
 * CPU testers run serially.
 *
 * Expected shape (Section IV.C): the combined testers beat the
 * applications (paper: 56.6% vs 35.2% of all defined transitions), the
 * testers run an order of magnitude faster, and only applications
 * activate the DMA transitions.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace drf;
using namespace drf::bench;

namespace
{

double
pctOfDefined(const CoverageGrid &grid)
{
    return 100.0 * static_cast<double>(grid.activeCount("")) /
           static_cast<double>(grid.spec().definedCount());
}

} // namespace

int
main()
{
    std::printf("Fig. 10 — system directory coverage by test type\n");

    // (a) applications.
    CoverageGrid apps(Directory::spec());
    double apps_host = 0.0;
    for (const AppProfile &profile : makeAppSuite()) {
        ShardOutcome out = appShard(profile).run();
        apps.merge(*out.dir);
        apps_host += out.result.hostSeconds;
    }

    // (b) the CPU tester sweep.
    CoverageGrid cpu(Directory::spec());
    double cpu_host = 0.0;
    for (const auto &preset : makeCpuTestSweep(/*base_seed=*/3)) {
        ShardOutcome out = cpuShard(preset).run();
        cpu.merge(*out.dir);
        cpu_host += out.result.hostSeconds;
    }

    // (c) union with the GPU tester (run serially, as in the paper).
    // The GPU-side directory transitions saturate within the first few
    // episodes, so one short run per cache class suffices.
    CoverageGrid gpu(Directory::spec());
    double gpu_host = 0.0;
    unsigned gpu_idx = 0;
    for (auto cache_class :
         {CacheSizeClass::Small, CacheSizeClass::Large,
          CacheSizeClass::Mixed}) {
        GpuTestPreset preset;
        preset.name = std::string("fig10-gpu-") +
                      cacheSizeClassName(cache_class);
        preset.cacheClass = cache_class;
        preset.system = makeGpuSystemConfig(cache_class);
        preset.tester = makeGpuTesterConfig(
            /*actions=*/100, /*episodes=*/20, /*atomic_locs=*/100,
            /*seed=*/11 + gpu_idx++);
        // A dense address range maximizes same-line collisions at the
        // directory (busy-state and AtomicND transitions).
        preset.tester.variables.addrRangeBytes = 1 << 16;
        ShardOutcome out = gpuShard(preset).run();
        gpu.merge(*out.dir);
        gpu_host += out.result.hostSeconds;
    }
    CoverageGrid testers(Directory::spec());
    testers.merge(gpu);
    testers.merge(cpu);

    header("(a) applications");
    apps.renderClassMap(std::cout);
    std::printf("coverage: %.1f%% of defined directory transitions, "
                "%.1f s host time\n",
                pctOfDefined(apps), apps_host);

    header("(b) CPU tester");
    cpu.renderClassMap(std::cout, "cpu_tester");
    std::printf("coverage: %.1f%% of defined directory transitions, "
                "%.1f s host time\n",
                pctOfDefined(cpu), cpu_host);

    header("(c) GPU tester + CPU tester (serial union)");
    testers.renderClassMap(std::cout, "tester_union");
    std::printf("coverage: %.1f%% of defined directory transitions, "
                "%.1f s host time\n",
                pctOfDefined(testers), gpu_host + cpu_host);

    header("summary");
    std::printf("testers union %.1f%% vs applications %.1f%% (paper: "
                "56.6%% vs 35.2%%)\n",
                pctOfDefined(testers), pctOfDefined(apps));
    std::printf("tester speedup over applications: %.1fx (paper: "
                "~12.6x)\n",
                apps_host / std::max(1e-9, gpu_host + cpu_host));

    // DMA transitions: apps-only.
    std::uint64_t apps_dma = 0, testers_dma = 0;
    for (auto ev : {Directory::EvDmaRead, Directory::EvDmaWrite}) {
        for (auto st : {Directory::StU, Directory::StCS, Directory::StCM,
                        Directory::StB}) {
            apps_dma += apps.count(ev, st);
            testers_dma += testers.count(ev, st);
        }
    }
    std::printf("DMA transitions hit: apps=%llu, testers=%llu (paper: "
                "DMA is apps-only)\n",
                (unsigned long long)apps_dma,
                (unsigned long long)testers_dma);
    return 0;
}
