/**
 * @file
 * System builder: wires CUs (GPU L1s), the shared GPU L2, CPU core-pair
 * caches, the APU directory, DRAM and the crossbar into one simulated
 * machine (the right half of the paper's Fig. 1).
 *
 * The same builder produces every Table III configuration: GPU-tester
 * systems (8 CUs, no CPU), CPU-tester systems (2-8 CPU caches, no GPU),
 * and full APU systems for application-based testing (GPU + CPU + DMA).
 */

#ifndef DRF_SYSTEM_APU_SYSTEM_HH
#define DRF_SYSTEM_APU_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "mem/memory.hh"
#include "mem/network.hh"
#include "proto/cpu_cache.hh"
#include "proto/directory.hh"
#include "proto/fault.hh"
#include "proto/gpu_l1.hh"
#include "proto/gpu_l2.hh"
#include "sim/event_queue.hh"

namespace drf
{

/** Whole-system configuration. */
struct ApuSystemConfig
{
    unsigned numCus = 8;        ///< GPU compute units (0 = no GPU)
    unsigned numGpuL2s = 1;     ///< GPU L2 slices (>1 = multi-GPU)
    unsigned numCpuCaches = 0;  ///< CPU core-pair caches (0 = no CPU)
    unsigned lineBytes = 64;

    GpuL1Config l1;
    GpuL2Config l2;
    CpuCacheConfig cpu;
    DirectoryConfig dir;

    Tick xbarLatency = 4;
    Tick memLatency = 50;

    /** Armed protocol bug (None = correct protocol). */
    FaultKind fault = FaultKind::None;
    unsigned faultTriggerPct = 100;
    std::uint64_t faultSeed = 7;
};

/**
 * One simulated APU. Owns every component plus the event queue.
 */
class ApuSystem
{
  public:
    /** Crossbar endpoint numbering. */
    static constexpr int l1Endpoint(unsigned cu) { return int(cu); }
    static constexpr int l2Endpoint(unsigned g = 0)
    {
        return 1000 + int(g);
    }
    static constexpr int dirEndpoint = 2000;
    static constexpr int cpuEndpoint(unsigned i) { return 3000 + int(i); }
    static constexpr int dmaEndpoint = 4000;

    explicit ApuSystem(const ApuSystemConfig &cfg);

    const ApuSystemConfig &config() const { return _cfg; }

    EventQueue &eventq() { return _eq; }
    Crossbar &xbar() { return *_xbar; }
    SimpleMemory &memory() { return *_mem; }
    Directory &directory() { return *_dir; }
    GpuL2Cache &l2(unsigned g = 0) { return *_l2s.at(g); }
    GpuL1Cache &l1(unsigned cu) { return *_l1s.at(cu); }
    CpuCache &cpuCache(unsigned i) { return *_cpus.at(i); }

    unsigned numCus() const { return static_cast<unsigned>(_l1s.size()); }
    unsigned numGpuL2s() const
    {
        return static_cast<unsigned>(_l2s.size());
    }
    unsigned numCpuCaches() const
    {
        return static_cast<unsigned>(_cpus.size());
    }
    bool hasGpu() const { return !_l2s.empty(); }

    /** The L2 slice serving a compute unit (contiguous split). */
    unsigned
    l2ForCu(unsigned cu) const
    {
        return cu * numGpuL2s() / numCus();
    }

    FaultInjector *fault() { return _fault.get(); }

    /**
     * Attach a trace recorder: the crossbar (message sends/deliveries)
     * and all four controller types (transitions) start recording into
     * it. The testers pick it up via trace() for episode markers.
     * Recording never perturbs the simulation schedule.
     */
    void attachTrace(TraceRecorder &trace);

    /**
     * Attach a recorder that only the testers write to: episode and
     * sync markers, no crossbar or controller events. For callers that
     * read nothing else (schedule exploration), at a small fraction of
     * attachTrace's recording cost; it equally never perturbs the
     * simulation schedule.
     */
    void attachTesterTrace(TraceRecorder &trace) { _trace = &trace; }

    /** The attached recorder, or nullptr when not tracing. */
    TraceRecorder *trace() const { return _trace; }

    /** Union of GPU L1 coverage over all CUs. */
    CoverageGrid l1CoverageUnion() const;

    /** Union of GPU L2 coverage over all L2 slices. */
    CoverageGrid l2CoverageUnion() const;

  private:
    ApuSystemConfig _cfg;
    EventQueue _eq;
    std::unique_ptr<FaultInjector> _fault;
    std::unique_ptr<Crossbar> _xbar;
    std::unique_ptr<SimpleMemory> _mem;
    std::vector<std::unique_ptr<GpuL2Cache>> _l2s;
    std::unique_ptr<Directory> _dir;
    std::vector<std::unique_ptr<GpuL1Cache>> _l1s;
    std::vector<std::unique_ptr<CpuCache>> _cpus;
    TraceRecorder *_trace = nullptr;
};

} // namespace drf

#endif // DRF_SYSTEM_APU_SYSTEM_HH
