/**
 * @file
 * CI resilience drill for the campaign supervisor.
 *
 * Runs a small multi-seed GPU campaign under runSupervisedCampaign with
 * host faults deliberately armed on designated shard indices — a crash
 * (SIGSEGV), a hang (infinite sleep), a transient failure that succeeds
 * on retry — then asserts the supervisor's triage against expectations
 * passed on the command line. A second invocation with --resume (and no
 * faults armed) replays the journal, re-runs only the shards that ended
 * at host level, and must complete the campaign.
 *
 *   campaign_drill --seeds 6 --jobs 2 --fork --shard-timeout 5
 *                  --crash 1 --hang 3 --transient 4
 *                  --journal drill.jsonl --repro-dir drill-repros
 *                  --expect-crashes 1 --expect-timeouts 1
 *                  --expect-retries-min 1
 *   campaign_drill --seeds 6 --jobs 2 --shard-timeout 5
 *                  --journal drill.jsonl --resume --expect-complete
 *
 * Exit codes: 0 expectations met, 1 triage mismatch or campaign
 * problem, 2 usage error.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign_json.hh"
#include "campaign/host_fault.hh"
#include "guidance/adaptive_campaign.hh"
#include "tester/configs.hh"

using namespace drf;

namespace
{

struct Args
{
    std::size_t seeds = 6;
    unsigned jobs = 2;
    bool fork = false;
    double shardTimeout = 0.0;
    std::uint64_t eventBudget = 0;
    long crash = -1;
    long hang = -1;
    long transient = -1;
    unsigned transientAttempts = 1;
    unsigned maxRetries = 2;
    std::string journal;
    std::string reproDir;
    std::string outJson;
    bool resume = false;

    long expectCrashes = -1;
    long expectTimeouts = -1;
    long expectRetriesMin = -1;
    bool expectComplete = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--seeds")
            a.seeds = std::strtoull(need(i), nullptr, 10);
        else if (flag == "--jobs")
            a.jobs = unsigned(std::strtoul(need(i), nullptr, 10));
        else if (flag == "--fork")
            a.fork = true;
        else if (flag == "--shard-timeout")
            a.shardTimeout = std::strtod(need(i), nullptr);
        else if (flag == "--event-budget")
            a.eventBudget = std::strtoull(need(i), nullptr, 10);
        else if (flag == "--crash")
            a.crash = std::strtol(need(i), nullptr, 10);
        else if (flag == "--hang")
            a.hang = std::strtol(need(i), nullptr, 10);
        else if (flag == "--transient")
            a.transient = std::strtol(need(i), nullptr, 10);
        else if (flag == "--transient-attempts")
            a.transientAttempts =
                unsigned(std::strtoul(need(i), nullptr, 10));
        else if (flag == "--max-retries")
            a.maxRetries = unsigned(std::strtoul(need(i), nullptr, 10));
        else if (flag == "--journal")
            a.journal = need(i);
        else if (flag == "--repro-dir")
            a.reproDir = need(i);
        else if (flag == "--out")
            a.outJson = need(i);
        else if (flag == "--resume")
            a.resume = true;
        else if (flag == "--expect-crashes")
            a.expectCrashes = std::strtol(need(i), nullptr, 10);
        else if (flag == "--expect-timeouts")
            a.expectTimeouts = std::strtol(need(i), nullptr, 10);
        else if (flag == "--expect-retries-min")
            a.expectRetriesMin = std::strtol(need(i), nullptr, 10);
        else if (flag == "--expect-complete")
            a.expectComplete = true;
        else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            std::exit(2);
        }
    }
    return a;
}

/** Small, fast preset: the drill tests the supervisor, not the sim. */
GpuTestPreset
drillPreset()
{
    GpuTestPreset preset;
    preset.name = "drill";
    preset.cacheClass = CacheSizeClass::Small;
    preset.system = makeGpuSystemConfig(CacheSizeClass::Small, 2);
    preset.tester = makeGpuTesterConfig(10, 2, 4, 1);
    return preset;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);

    std::vector<ShardSpec> shards =
        gpuSeedSweep(drillPreset(), 1, a.seeds);

    HostFaultInjector faults;
    if (a.crash >= 0)
        faults.arm(std::size_t(a.crash), HostFaultKind::Crash);
    if (a.hang >= 0)
        faults.arm(std::size_t(a.hang), HostFaultKind::Hang);
    if (a.transient >= 0)
        faults.arm(std::size_t(a.transient), HostFaultKind::Transient,
                   a.transientAttempts);
    faults.armShards(shards);

    if ((a.hang >= 0 || a.crash >= 0) && !a.fork &&
        a.shardTimeout <= 0.0) {
        std::fprintf(stderr,
                     "refusing to arm crash/hang faults without --fork "
                     "or --shard-timeout\n");
        return 2;
    }

    SupervisorConfig cfg;
    cfg.campaign.jobs = a.jobs;
    cfg.campaign.stopOnFailure = false;
    cfg.forkIsolation = a.fork;
    cfg.shardTimeoutSeconds = a.shardTimeout;
    cfg.shardEventBudget = a.eventBudget;
    cfg.maxRetries = a.maxRetries;
    cfg.journalPath = a.journal;
    cfg.resume = a.resume;
    cfg.reproDir = a.reproDir;
    cfg.handleSignals = true;

    CampaignResult res = runSupervisedCampaign(std::move(shards), cfg);

    std::printf("campaign: %zu planned, %zu run (%zu resumed, %zu "
                "skipped)\n",
                res.shardsPlanned, res.shardsRun, res.shardsResumed,
                res.shardsSkipped);
    std::printf("triage: %zu crashes, %zu timeouts, %zu exhausted, "
                "%llu retries%s\n",
                res.hostCrashes, res.hostTimeouts, res.resourceExhausted,
                (unsigned long long)res.retriesPerformed,
                res.interrupted ? ", INTERRUPTED" : "");
    if (res.firstFailure) {
        std::printf("first failure: %s (seed %llu, %s)\n",
                    res.firstFailure->name.c_str(),
                    (unsigned long long)res.firstFailure->seed,
                    failureClassName(res.firstFailure->failureClass));
    }

    if (!a.outJson.empty()) {
        std::ofstream out(a.outJson);
        out << campaignToJson(res, "gpu_tester") << "\n";
        if (out)
            std::printf("wrote %s\n", a.outJson.c_str());
    }

    bool ok = true;
    auto check = [&](const char *what, bool cond) {
        if (!cond) {
            std::fprintf(stderr, "EXPECTATION FAILED: %s\n", what);
            ok = false;
        }
    };
    if (a.expectCrashes >= 0)
        check("host crash count",
              res.hostCrashes == std::size_t(a.expectCrashes));
    if (a.expectTimeouts >= 0)
        check("host timeout count",
              res.hostTimeouts == std::size_t(a.expectTimeouts));
    if (a.expectRetriesMin >= 0)
        check("retry count minimum",
              res.retriesPerformed >=
                  std::uint64_t(a.expectRetriesMin));
    if (a.expectComplete) {
        check("campaign completed all shards",
              res.shardsRun == res.shardsPlanned);
        check("campaign passed", res.passed);
        check("no shards exhausted retries", res.resourceExhausted == 0);
    }
    // A transiently failing shard must end up succeeding (never counted
    // as ResourceExhausted) as long as retries cover its fail budget.
    if (a.transient >= 0 && a.transientAttempts <= a.maxRetries)
        check("transient shard recovered", res.resourceExhausted == 0);

    std::printf("drill: %s\n", ok ? "expectations met" : "FAILED");
    return ok ? 0 : 1;
}
