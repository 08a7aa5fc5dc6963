/**
 * @file
 * The benchmark's four workloads. Each is a closed loop driven from
 * this one process: a source issues its next batch only after the
 * previous batch's feedback was merged.
 *
 *  - sweep:   the 24 Table III arms through SweepSource and
 *             runAdaptiveCampaign, jobs 4, batch 4;
 *  - fleet:   the same shards and seed through runLocalFleet with 3
 *             forked workers, batch 4, journal on, no chaos;
 *  - explore: passes of 512 interleavings by ExploreSource over
 *             unscoped base runs, budget 64 each, jobs 4;
 *  - bughunt: 16 seeded sets of one guided campaign per injected
 *             fault, each run to the first failure, then recorded,
 *             shrunk and replay-verified.
 *
 * A workload repeats its unit of work until the measuring window is
 * used up and reports medians over the repetitions.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layers.hh"

namespace perfbench
{

/** Executors the workloads use: campaign threads and fleet workers. */
constexpr unsigned campaignJobs = 4;
constexpr unsigned fleetWorkers = 3;

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir; ///< scratch space (fleet journal, span file)
};

/** One correctness check and what it compared. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

struct RunResult
{
    std::vector<Check> checks;
    /** Digests the caller may compare against pinned values. */
    std::map<std::string, std::string> digests;
    std::uint64_t attempted = 0; ///< shards, leases and shrink replays
    std::uint64_t failed = 0;    ///< host failures, re-runs, failed checks
    std::vector<double> repSeconds; ///< duration of every repetition
    unsigned threads = 0;   ///< executor threads the workload used
    unsigned processes = 0; ///< worker processes the workload forked
    MetricSet endToEnd;
    MetricSet perLayer;
};

/** Threads + worker processes @p workload runs (0: no such workload). */
unsigned workloadExecutors(const std::string &workload);

/** Run one workload; @p spans receives the traced repetitions' spans. */
RunResult runWorkload(const RunConfig &cfg, SpanRecorder &spans);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
