/**
 * @file
 * Fleet CLI: run one adaptive campaign across worker processes.
 *
 * Subcommands:
 *
 *   fleet run          one-shot localhost fleet — binds a socket,
 *                      forks N workers, runs the campaign, reaps them.
 *                      `--workers 0` is the degenerate fleet (no
 *                      sockets, every shard runs in the coordinator,
 *                      in index order): the golden run the distributed
 *                      aggregates must match bit-for-bit.
 *
 *   fleet coordinator  long-lived coordinator for a multi-host fleet.
 *                      Prints "listening on <port>" so scripts can
 *                      start workers against it.
 *
 *   fleet worker       one worker process; point it at a coordinator
 *                      with --host/--port.
 *
 * Verification flags (CI smoke + tests): --aggregates-out writes the
 * deterministic aggregate subset (adaptiveAggregatesJson) for byte
 * comparison across runs; --expect-complete and --expect-releases-min
 * turn invariants into exit codes.
 *
 * Resilience flags: --straggler-after SEC duplicates a lease one worker
 * has held that long onto an idle worker (CoordinatorConfig::
 * stragglerSeconds); --heartbeat-timeout SEC declares a silent worker
 * dead; --retry-backoff MS paces transient-failure retries.
 *
 * Chaos flags: --chaos PROFILE [--chaos-seed N] injects the named
 * deterministic fault profile (chaos/chaos.hh) — wire faults into the
 * workers' outbound frames, disk faults under the coordinator's
 * journal. --verify-quorum N duplicate-leases every Nth shard for
 * cross-worker result comparison; --corrupt-result N [--corrupt-silent]
 * makes worker 0 lie about every Nth-indexed shard so the detection
 * machinery has something to catch. --triage-out FILE dumps the
 * integrity counters (what was injected vs what was caught) as JSON —
 * kept apart from --aggregates-out, which must stay byte-identical to
 * a clean run under any chaos profile.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "chaos/disk_chaos.hh"
#include "fleet/fleet.hh"
#include "fleet/worker.hh"
#include "guidance/adaptive_campaign.hh"
#include "guidance/sources.hh"

using namespace drf;
using namespace drf::fleet;

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: fleet run         [--workers N] [--die-on-result N] "
        "[common]\n"
        "       fleet coordinator [--bind ADDR] [--port P] "
        "[--workers N] [common]\n"
        "       fleet worker      --port P [--host ADDR] [--name S] "
        "[--die-on-result N]\n"
        "common: [--strategy sweep|random|guided] [--seed N] "
        "[--batch N] [--max-shards N]\n"
        "        [--saturation PCT] [--journal PATH] [--resume] "
        "[--rounds N]\n"
        "        [--fork-isolation] [--timeout SEC] "
        "[--aggregates-out FILE]\n"
        "        [--expect-complete] [--expect-releases-min N]\n"
        "        [--chaos PROFILE] [--chaos-seed N] "
        "[--verify-quorum N]\n"
        "        [--corrupt-result N] [--corrupt-silent] "
        "[--triage-out FILE]\n"
        "        [--straggler-after SEC] [--heartbeat-timeout SEC] "
        "[--retry-backoff MS]\n");
}

struct Options
{
    // Source.
    std::string strategy = "sweep";
    std::uint64_t masterSeed = 1;
    std::size_t batchSize = 4;
    std::size_t maxShards = 16;
    double saturationPct = 0.0;

    // Fleet.
    std::string bind = "127.0.0.1";
    std::string host = "127.0.0.1";
    unsigned short port = 0;
    unsigned workers = 0;
    unsigned dieOnResult = 0;
    std::string name;

    // Campaign plumbing.
    std::string journal;
    bool resume = false;
    std::size_t rounds = 0;
    bool forkIsolation = false;
    double timeoutSeconds = 0.0;

    // Verification.
    std::string aggregatesOut;
    bool expectComplete = false;
    std::uint64_t expectReleasesMin = 0;

    // Resilience knobs (defaults live in CoordinatorConfig).
    double stragglerSeconds = -1.0;
    double heartbeatTimeoutSeconds = -1.0;
    int retryBackoffMs = -1;

    // Chaos / integrity.
    std::string chaosProfile;
    std::uint64_t chaosSeed = 0;
    unsigned verifyQuorum = 0;
    unsigned corruptEveryN = 0;
    bool corruptSilently = false;
    std::string triageOut;
};

bool
parseOptions(int argc, char **argv, int first, Options &opt)
{
    for (int i = first; i < argc; ++i) {
        std::string flag = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "fleet: %s needs a value\n",
                              flag.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        if (flag == "--strategy") {
            const char *v = next();
            if (!v)
                return false;
            opt.strategy = v;
        } else if (flag == "--seed") {
            const char *v = next();
            if (!v)
                return false;
            opt.masterSeed = std::strtoull(v, nullptr, 10);
        } else if (flag == "--batch") {
            const char *v = next();
            if (!v)
                return false;
            opt.batchSize = std::strtoull(v, nullptr, 10);
        } else if (flag == "--max-shards") {
            const char *v = next();
            if (!v)
                return false;
            opt.maxShards = std::strtoull(v, nullptr, 10);
        } else if (flag == "--saturation") {
            const char *v = next();
            if (!v)
                return false;
            opt.saturationPct = std::strtod(v, nullptr);
        } else if (flag == "--bind") {
            const char *v = next();
            if (!v)
                return false;
            opt.bind = v;
        } else if (flag == "--host") {
            const char *v = next();
            if (!v)
                return false;
            opt.host = v;
        } else if (flag == "--port") {
            const char *v = next();
            if (!v)
                return false;
            opt.port = static_cast<unsigned short>(
                std::strtoul(v, nullptr, 10));
        } else if (flag == "--workers") {
            const char *v = next();
            if (!v)
                return false;
            opt.workers =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (flag == "--die-on-result") {
            const char *v = next();
            if (!v)
                return false;
            opt.dieOnResult =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (flag == "--name") {
            const char *v = next();
            if (!v)
                return false;
            opt.name = v;
        } else if (flag == "--journal") {
            const char *v = next();
            if (!v)
                return false;
            opt.journal = v;
        } else if (flag == "--resume") {
            opt.resume = true;
        } else if (flag == "--rounds") {
            const char *v = next();
            if (!v)
                return false;
            opt.rounds = std::strtoull(v, nullptr, 10);
        } else if (flag == "--fork-isolation") {
            opt.forkIsolation = true;
        } else if (flag == "--timeout") {
            const char *v = next();
            if (!v)
                return false;
            opt.timeoutSeconds = std::strtod(v, nullptr);
        } else if (flag == "--aggregates-out") {
            const char *v = next();
            if (!v)
                return false;
            opt.aggregatesOut = v;
        } else if (flag == "--expect-complete") {
            opt.expectComplete = true;
        } else if (flag == "--expect-releases-min") {
            const char *v = next();
            if (!v)
                return false;
            opt.expectReleasesMin = std::strtoull(v, nullptr, 10);
        } else if (flag == "--straggler-after") {
            const char *v = next();
            if (!v)
                return false;
            opt.stragglerSeconds = std::strtod(v, nullptr);
        } else if (flag == "--heartbeat-timeout") {
            const char *v = next();
            if (!v)
                return false;
            opt.heartbeatTimeoutSeconds = std::strtod(v, nullptr);
        } else if (flag == "--retry-backoff") {
            const char *v = next();
            if (!v)
                return false;
            opt.retryBackoffMs =
                static_cast<int>(std::strtol(v, nullptr, 10));
        } else if (flag == "--chaos") {
            const char *v = next();
            if (!v)
                return false;
            opt.chaosProfile = v;
        } else if (flag == "--chaos-seed") {
            const char *v = next();
            if (!v)
                return false;
            opt.chaosSeed = std::strtoull(v, nullptr, 10);
        } else if (flag == "--verify-quorum") {
            const char *v = next();
            if (!v)
                return false;
            opt.verifyQuorum =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (flag == "--corrupt-result") {
            const char *v = next();
            if (!v)
                return false;
            opt.corruptEveryN =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (flag == "--corrupt-silent") {
            opt.corruptSilently = true;
        } else if (flag == "--triage-out") {
            const char *v = next();
            if (!v)
                return false;
            opt.triageOut = v;
        } else {
            std::fprintf(stderr, "fleet: unknown flag %s\n",
                          flag.c_str());
            return false;
        }
    }
    return true;
}

std::unique_ptr<ShardSource>
makeSource(const Options &opt)
{
    SourceConfig cfg;
    cfg.masterSeed = opt.masterSeed;
    cfg.batchSize = opt.batchSize;
    cfg.maxShards = opt.maxShards;
    if (opt.strategy == "sweep")
        return std::make_unique<SweepSource>(cfg);
    if (opt.strategy == "random")
        return std::make_unique<RandomSource>(cfg);
    if (opt.strategy == "guided") {
        GuidedOptions gopts;
        gopts.episodeBudget = 0; // maxShards bounds the campaign
        return std::make_unique<GuidedSource>(cfg, gopts);
    }
    std::fprintf(stderr, "fleet: unknown strategy '%s'\n",
                  opt.strategy.c_str());
    return nullptr;
}

/** Resolve --chaos; prints the known names on a miss. */
bool
resolveChaos(const Options &opt, chaos::ChaosProfile &profile)
{
    if (opt.chaosProfile.empty())
        return true;
    if (chaos::profileByName(opt.chaosProfile, profile))
        return true;
    std::fprintf(stderr, "fleet: unknown chaos profile '%s'; known:",
                  opt.chaosProfile.c_str());
    for (const std::string &name : chaos::profileNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return false;
}

CoordinatorConfig
makeCoordinatorConfig(const Options &opt,
                      const chaos::ChaosProfile &profile)
{
    CoordinatorConfig cfg;
    cfg.campaign.jobs = 1;
    cfg.campaign.saturationPct = opt.saturationPct;
    cfg.forkIsolation = opt.forkIsolation;
    cfg.shardTimeoutSeconds = opt.timeoutSeconds;
    cfg.bindAddress = opt.bind;
    cfg.port = opt.port;
    cfg.expectedWorkers = opt.workers;
    cfg.journalPath = opt.journal;
    cfg.resume = opt.resume;
    cfg.maxRounds = opt.rounds;
    if (opt.stragglerSeconds >= 0.0)
        cfg.stragglerSeconds = opt.stragglerSeconds;
    if (opt.heartbeatTimeoutSeconds >= 0.0)
        cfg.heartbeatTimeoutSeconds = opt.heartbeatTimeoutSeconds;
    if (opt.retryBackoffMs >= 0)
        cfg.retryBackoffMs = static_cast<unsigned>(opt.retryBackoffMs);
    cfg.verifyQuorum = opt.verifyQuorum;
    cfg.journalPolicy =
        chaos::diskChaosJournalPolicy(opt.chaosSeed, profile.disk);
    cfg.chaosSeed = opt.chaosSeed;
    return cfg;
}

int
report(const FleetResult &result, const Options &opt)
{
    std::printf(
        "fleet: %zu shards in %zu rounds, %s, wall %.3f s, busy %.3f s "
        "over %u workers\n"
        "fleet: workers %u, leases %llu, re-leases %llu, duplicate "
        "results %llu, local runs %llu, resumed %zu%s\n",
        result.adaptive.shardsRun, result.adaptive.rounds,
        result.adaptive.passed ? "passed" : "FAILED",
        result.adaptive.wallSeconds, result.adaptive.shardSecondsSum,
        result.adaptive.jobs, result.workersSeen,
        (unsigned long long)result.leasesIssued,
        (unsigned long long)result.releases,
        (unsigned long long)result.duplicateResults,
        (unsigned long long)result.localRuns,
        result.adaptive.shardsResumed,
        result.adaptive.interrupted ? " (halted)" : "");
    std::printf("fleet: union digest %016llx\n",
                (unsigned long long)result.adaptive.unionDigest);

    if (!opt.aggregatesOut.empty()) {
        std::ofstream out(opt.aggregatesOut,
                          std::ios::binary | std::ios::trunc);
        out << adaptiveAggregatesJson(result.adaptive, "gpu_tester")
            << "\n";
        if (!out) {
            std::fprintf(stderr, "fleet: cannot write %s\n",
                          opt.aggregatesOut.c_str());
            return 1;
        }
        std::printf("fleet: aggregates -> %s\n",
                    opt.aggregatesOut.c_str());
    }

    if (result.frameCorruptions + result.digestMismatches +
            result.quorumDivergences + result.resumeCrcSkipped +
            result.resumeParseSkipped >
        0)
        std::printf("fleet: integrity: frame-crc %llu, digest %llu, "
                    "divergence %llu, journal-skip %llu\n",
                    (unsigned long long)result.frameCorruptions,
                    (unsigned long long)result.digestMismatches,
                    (unsigned long long)result.quorumDivergences,
                    (unsigned long long)(result.resumeCrcSkipped +
                                         result.resumeParseSkipped));
    if (result.journalStatus.degraded)
        std::fprintf(stderr,
                      "fleet: WARNING: journal degraded (%s, errno "
                      "%d) — campaign completed but is not resumable "
                      "past the failure point\n",
                      result.journalStatus.lastOp.c_str(),
                      result.journalStatus.lastErrno);

    if (!opt.triageOut.empty()) {
        std::ofstream out(opt.triageOut,
                          std::ios::binary | std::ios::trunc);
        out << fleetTriageJson(result) << "\n";
        if (!out) {
            std::fprintf(stderr, "fleet: cannot write %s\n",
                          opt.triageOut.c_str());
            return 1;
        }
        std::printf("fleet: triage -> %s\n", opt.triageOut.c_str());
    }

    if (opt.expectComplete &&
        (result.adaptive.interrupted || !result.adaptive.passed)) {
        std::fprintf(stderr,
                      "fleet: --expect-complete violated (halted=%d "
                      "passed=%d)\n",
                      int(result.adaptive.interrupted),
                      int(result.adaptive.passed));
        return 1;
    }
    if (result.releases < opt.expectReleasesMin) {
        std::fprintf(stderr,
                      "fleet: --expect-releases-min %llu violated "
                      "(saw %llu)\n",
                      (unsigned long long)opt.expectReleasesMin,
                      (unsigned long long)result.releases);
        return 1;
    }
    return 0;
}

int
cmdRun(const Options &opt)
{
    std::unique_ptr<ShardSource> source = makeSource(opt);
    if (!source)
        return 2;
    chaos::ChaosProfile profile;
    if (!resolveChaos(opt, profile))
        return 2;
    LocalFleetConfig cfg;
    cfg.coordinator = makeCoordinatorConfig(opt, profile);
    cfg.workers = opt.workers;
    cfg.dieOnResult = opt.dieOnResult;
    cfg.wireChaos = profile.wire;
    cfg.corruptEveryN = opt.corruptEveryN;
    cfg.corruptSilently = opt.corruptSilently;
    bool listen_ok = false;
    FleetResult result = runLocalFleet(*source, cfg, &listen_ok);
    if (opt.workers > 0 && !listen_ok)
        std::fprintf(stderr,
                      "fleet: socket bind failed; campaign completed "
                      "locally\n");
    return report(result, opt);
}

int
cmdCoordinator(const Options &opt)
{
    std::unique_ptr<ShardSource> source = makeSource(opt);
    if (!source)
        return 2;
    chaos::ChaosProfile profile;
    if (!resolveChaos(opt, profile))
        return 2;
    FleetCoordinator coordinator(*source,
                                 makeCoordinatorConfig(opt, profile));
    if (!coordinator.listen()) {
        std::fprintf(stderr, "fleet: cannot bind %s:%u\n",
                      opt.bind.c_str(), unsigned(opt.port));
        return 2;
    }
    if (opt.workers > 0) {
        std::printf("fleet: listening on %u\n",
                    unsigned(coordinator.boundPort()));
        std::fflush(stdout);
    }
    FleetResult result = coordinator.run();
    return report(result, opt);
}

int
cmdWorker(const Options &opt)
{
    if (opt.port == 0) {
        std::fprintf(stderr, "fleet worker: --port is required\n");
        return 2;
    }
    chaos::ChaosProfile profile;
    if (!resolveChaos(opt, profile))
        return 2;
    WorkerConfig cfg;
    cfg.host = opt.host;
    cfg.port = opt.port;
    cfg.name = opt.name;
    cfg.dieOnResult = opt.dieOnResult;
    cfg.wireChaos = profile.wire;
    // Standalone workers derive their fault stream from their display
    // name, so two workers started with the same --chaos-seed still
    // see different (but each reproducible) fault schedules.
    cfg.chaosSeed = chaos::deriveSeed(
        opt.chaosSeed,
        "wire:" + (opt.name.empty() ? std::string("worker")
                                    : opt.name));
    cfg.corruptEveryN = opt.corruptEveryN;
    cfg.corruptSilently = opt.corruptSilently;
    return runWorker(cfg);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string cmd = argv[1];
    Options opt;
    if (!parseOptions(argc, argv, 2, opt)) {
        usage();
        return 2;
    }
    if (cmd == "run")
        return cmdRun(opt);
    if (cmd == "coordinator")
        return cmdCoordinator(opt);
    if (cmd == "worker")
        return cmdWorker(opt);
    usage();
    return 2;
}
