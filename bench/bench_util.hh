/**
 * @file
 * Shared helpers for the per-figure bench binaries: the application
 * system and its campaign shard, --jobs parsing, plus table-printing
 * utilities. One preset or application runs as its shard's body
 * (gpuShard(p).run(), cpuShard(p).run(), appShard(profile).run()).
 */

#ifndef DRF_BENCH_BENCH_UTIL_HH
#define DRF_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_runner.hh"
#include "apps/app_suite.hh"
#include "campaign/campaign.hh"
#include "campaign/campaign_json.hh"
#include "proto/protocol_kind.hh"
#include "sim/build_info.hh"
#include "system/apu_system.hh"
#include "tester/configs.hh"
#include "tester/cpu_tester.hh"
#include "tester/gpu_tester.hh"

namespace drf::bench
{

/** The Table III application-testing system: 16 KB L1s, 256 KB L2. */
inline ApuSystemConfig
appSystemConfig(unsigned num_cus = 8)
{
    ApuSystemConfig cfg;
    cfg.numCus = num_cus;
    cfg.numCpuCaches = 1;
    cfg.l1.sizeBytes = 16 * 1024;
    cfg.l1.assoc = 16;
    cfg.l2.sizeBytes = 256 * 1024;
    cfg.l2.assoc = 16;
    return cfg;
}

/**
 * Worker-thread count for a bench binary: `--jobs N` (or `--jobs=N`)
 * on the command line, else the DRF_JOBS environment variable, else 0
 * (which lets the campaign runner use ThreadPool::defaultThreads()).
 */
inline unsigned
parseJobs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc)
            return static_cast<unsigned>(std::atoi(argv[i + 1]));
        if (arg.rfind("--jobs=", 0) == 0)
            return static_cast<unsigned>(std::atoi(arg.c_str() + 7));
    }
    if (const char *env = std::getenv("DRF_JOBS"))
        return static_cast<unsigned>(std::atoi(env));
    return 0;
}

/**
 * Campaign shard running one application on a fresh app system.
 * Application traces are generated deterministically from the profile,
 * so these shards parallelize exactly like tester shards. Lives here
 * rather than in src/campaign/ because the campaign library does not
 * depend on the application suite.
 */
inline ShardSpec
appShard(const AppProfile &profile, unsigned num_cus = 8)
{
    ShardSpec spec;
    spec.name = profile.name;
    spec.run = [profile, num_cus]() {
        ApuSystemConfig sys_cfg = appSystemConfig(num_cus);
        ApuSystem sys(sys_cfg);
        AppTrace trace = generateAppTrace(profile, num_cus, 0x10'0000,
                                          sys_cfg.lineBytes);
        AppRunner runner(sys, std::move(trace));
        AppResult r = runner.run();

        ShardOutcome out;
        out.name = profile.name;
        out.result.passed = r.completed;
        out.result.ticks = r.ticks;
        out.result.events = r.events;
        out.result.hostSeconds = r.hostSeconds;
        if (!r.completed)
            out.result.report = profile.name + " did not complete";
        out.l1 = std::make_unique<CoverageGrid>(sys.l1CoverageUnion());
        out.l2 = std::make_unique<CoverageGrid>(sys.l2CoverageUnion());
        out.dir =
            std::make_unique<CoverageGrid>(sys.directory().coverage());
        return out;
    };
    return spec;
}

/** Host CPU model from /proc/cpuinfo, or "unknown" where unavailable. */
inline std::string
hostCpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::size_t start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "unknown"
                                          : line.substr(start);
    }
    return "unknown";
}

/**
 * Emit the provenance keys every bench JSON record carries: cpu_model,
 * git_sha, build_type and the L1 protocol the benches measure (the
 * VIPER default). Records are only comparable between like machines,
 * like builds, and like protocols. Call inside an open JSON object.
 */
inline void
jsonProvenance(JsonWriter &w)
{
    w.key("cpu_model").value(hostCpuModel());
    w.key("git_sha").value(buildGitSha());
    w.key("build_type").value(buildType());
    w.key("protocol").value(protocolKindName(ProtocolKind::Viper));
}

/** Write @p content to @p path, reporting the outcome on stdout. */
inline void
writeFileReport(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    out << content << "\n";
    if (out)
        std::printf("wrote %s\n", path.c_str());
    else
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
}

/** Print one row of a coverage/time table. */
inline void
printCoverageRow(const std::string &name, double l1_pct, double l2_pct,
                 Tick ticks, double host_s)
{
    std::printf("%-12s  %6.1f%%  %6.1f%%  %12llu  %8.3f\n", name.c_str(),
                l1_pct, l2_pct, (unsigned long long)ticks, host_s);
}

/** Print a section header. */
inline void
header(const std::string &title)
{
    std::printf("\n==== %s\n", title.c_str());
}

} // namespace drf::bench

#endif // DRF_BENCH_BENCH_UTIL_HH
