/**
 * @file
 * Fig. 5: GPU L1 and L2 transition hit-frequency heat maps under the
 * small-cache and large-cache tester configurations (identical test
 * length, episode length, and seed).
 *
 * Expected shape (Section IV.A): the large-cache run hits the cache-hit
 * transitions ([Load,V] in L1, [RdBlk,V] in L2) more often; the
 * small-cache run stresses the replacement transitions ([Repl,V] in L1,
 * [L2_Repl,V] in L2).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace drf;
using namespace drf::bench;

namespace
{

ShardOutcome
runClass(CacheSizeClass cache_class)
{
    GpuTestPreset preset;
    preset.name = std::string("fig5-") + cacheSizeClassName(cache_class);
    preset.cacheClass = cache_class;
    preset.system = makeGpuSystemConfig(cache_class);
    preset.tester = makeGpuTesterConfig(/*actions=*/100,
                                        /*episodes=*/20,
                                        /*atomic_locs=*/10,
                                        /*seed=*/1234);
    return gpuShard(preset).run();
}

} // namespace

int
main()
{
    std::printf("Fig. 5 — transition hit frequency, small vs large GPU "
                "caches\n");

    ShardOutcome small = runClass(CacheSizeClass::Small);
    ShardOutcome large = runClass(CacheSizeClass::Large);

    header("(a) small caches: 256B 2-way L1, 1KB 2-way L2");
    small.l1->renderHeatMap(std::cout);
    std::printf("\n");
    small.l2->renderHeatMap(std::cout);

    header("(b) large caches: 256KB 16-way L1, 1MB 16-way L2");
    large.l1->renderHeatMap(std::cout);
    std::printf("\n");
    large.l2->renderHeatMap(std::cout);

    // The shape checks the paper calls out, as explicit numbers.
    header("shape checks (paper Section IV.A)");
    auto l1_load_v = [](const ShardOutcome &o) {
        return o.l1->count(GpuL1Cache::EvLoad, GpuL1Cache::StV);
    };
    auto l1_repl = [](const ShardOutcome &o) {
        return o.l1->count(GpuL1Cache::EvRepl, GpuL1Cache::StV);
    };
    auto l2_rd_v = [](const ShardOutcome &o) {
        return o.l2->count(GpuL2Cache::EvRdBlk, GpuL2Cache::StV);
    };
    auto l2_repl = [](const ShardOutcome &o) {
        return o.l2->count(GpuL2Cache::EvL2Repl, GpuL2Cache::StV);
    };
    std::printf("[Load,V] hits   : small=%llu large=%llu  (large should "
                "win)\n",
                (unsigned long long)l1_load_v(small),
                (unsigned long long)l1_load_v(large));
    std::printf("[RdBlk,V] hits  : small=%llu large=%llu  (large should "
                "win)\n",
                (unsigned long long)l2_rd_v(small),
                (unsigned long long)l2_rd_v(large));
    std::printf("[Repl,V] hits   : small=%llu large=%llu  (small should "
                "win)\n",
                (unsigned long long)l1_repl(small),
                (unsigned long long)l1_repl(large));
    std::printf("[L2_Repl,V] hits: small=%llu large=%llu  (small should "
                "win)\n",
                (unsigned long long)l2_repl(small),
                (unsigned long long)l2_repl(large));
    return 0;
}
