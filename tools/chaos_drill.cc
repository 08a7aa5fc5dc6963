/**
 * @file
 * Chaos drill: prove that the fleet stack *detects* injected faults
 * instead of absorbing them into the campaign's answer.
 *
 * For each scenario the drill runs a localhost fleet campaign under a
 * named deterministic chaos profile (chaos/chaos.hh) and asserts two
 * things, which together are the whole point of the chaos layer:
 *
 *   1. Integrity of the answer — the deterministic aggregate subset
 *      (adaptiveAggregatesJson) is byte-identical to a clean serial
 *      golden computed once at startup. Chaos may cost wall clock,
 *      re-leases, and reconnects; it may never change the result.
 *
 *   2. Evidence of detection — on at least one of three trial chaos
 *      seeds, the scenario's expected detection counters fire
 *      (frame CRC kills, lease re-issues, journal write failures,
 *      quorum divergences, ...). A chaos run with no evidence on any
 *      seed means the faults were silently absorbed, which is exactly
 *      the failure mode this layer exists to rule out — the drill
 *      fails.
 *
 * Disk scenarios get a third leg: the journal the chaotic run left
 * behind (possibly with genuine torn bytes from short writes) is fed
 * to a --resume campaign, which must self-heal — skip the damaged
 * records, re-run what they covered, and again match the golden.
 *
 * Scenarios are the named chaos profiles plus "quorum" (no transport
 * faults; worker 0 silently lies about every result and --verify-quorum
 * catches it by cross-worker comparison).
 *
 * Usage:
 *   chaos_drill [--scenario NAME[,NAME...]] [--list]
 *               [--seed N] [--chaos-seed N] [--max-shards N]
 *               [--batch N] [--workers N] [--workdir DIR]
 *
 * Exit 0: every scenario held both invariants. Exit 1: a violation
 * (diagnostics on stderr). Exit 2: usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "chaos/chaos.hh"
#include "chaos/disk_chaos.hh"
#include "fleet/fleet.hh"
#include "guidance/adaptive_campaign.hh"
#include "guidance/sources.hh"

using namespace drf;
using namespace drf::fleet;

namespace
{

struct DrillOptions
{
    std::uint64_t masterSeed = 1;
    std::uint64_t chaosSeed = 42;
    std::size_t maxShards = 8;
    std::size_t batchSize = 4;
    unsigned workers = 2;
    std::string workDir;
    std::vector<std::string> scenarios; // empty = all
    bool list = false;
};

/** What counts as "the stack noticed" for one scenario. */
enum class Evidence
{
    None,   ///< clean-run sanity: every detector must stay at zero
    Wire,   ///< CRC kills, re-leases, or worker reconnects
    Disk,   ///< journal write/fsync failures, retries, or degradation
    Any,    ///< wire or disk
    Quorum, ///< cross-worker divergence caught and locally repaired
};

struct Scenario
{
    std::string name;    ///< drill name (and profile name, usually)
    std::string profile; ///< chaos profile to resolve
    Evidence evidence;
    bool journal = false; ///< run with a journal + resume leg
    unsigned verifyQuorum = 0;
    unsigned corruptEveryN = 0;
};

std::vector<Scenario>
allScenarios()
{
    std::vector<Scenario> all;
    all.push_back({"none", "none", Evidence::None});
    all.push_back({"wire-flip", "wire-flip", Evidence::Wire});
    all.push_back({"wire-drop", "wire-drop", Evidence::Wire});
    all.push_back({"wire-torn", "wire-torn", Evidence::Wire});
    all.push_back({"wire-storm", "wire-storm", Evidence::Wire});
    all.push_back(
        {"disk-torn", "disk-torn", Evidence::Disk, /*journal=*/true});
    all.push_back({"disk-enospc", "disk-enospc", Evidence::Disk,
                   /*journal=*/true});
    all.push_back({"disk-fsync", "disk-fsync", Evidence::Disk,
                   /*journal=*/true});
    all.push_back({"full", "full", Evidence::Any, /*journal=*/true});
    all.push_back({"quorum", "none", Evidence::Quorum,
                   /*journal=*/false, /*verifyQuorum=*/1,
                   /*corruptEveryN=*/1});
    return all;
}

bool
wireEvidence(const FleetResult &r, unsigned workers)
{
    return r.frameCorruptions > 0 || r.digestMismatches > 0 ||
           r.releases > 0 || r.duplicateResults > 0 ||
           r.workersSeen > workers;
}

bool
diskEvidence(const FleetResult &r)
{
    const JournalStatus &js = r.journalStatus;
    return js.failedWrites > 0 || js.fsyncFailures > 0 ||
           js.retries > 0 || js.degraded;
}

bool
hasEvidence(Evidence kind, const FleetResult &r, unsigned workers)
{
    switch (kind) {
    case Evidence::None:
        return r.frameCorruptions == 0 && r.digestMismatches == 0 &&
               r.quorumDivergences == 0 && !r.journalStatus.degraded;
    case Evidence::Wire:
        return wireEvidence(r, workers);
    case Evidence::Disk:
        return diskEvidence(r);
    case Evidence::Any:
        return wireEvidence(r, workers) || diskEvidence(r);
    case Evidence::Quorum:
        return r.quorumDivergences > 0 && r.localRuns > 0;
    }
    return false;
}

std::unique_ptr<ShardSource>
makeSource(const DrillOptions &opt)
{
    SourceConfig cfg;
    cfg.masterSeed = opt.masterSeed;
    cfg.batchSize = opt.batchSize;
    cfg.maxShards = opt.maxShards;
    return std::make_unique<SweepSource>(cfg);
}

/** One fleet campaign; chaos profile + knobs per the scenario. */
FleetResult
runDrill(const DrillOptions &opt, const Scenario &sc,
         const chaos::ChaosProfile &profile, std::uint64_t chaosSeed,
         unsigned workers, const std::string &journalPath,
         bool resume)
{
    std::unique_ptr<ShardSource> source = makeSource(opt);
    LocalFleetConfig cfg;
    cfg.coordinator.campaign.jobs = 1;
    cfg.coordinator.expectedWorkers = workers;
    // Chaos costs sessions; keep recovery fast and the reconnect
    // budget generous so detection, not patience, is what's tested.
    cfg.coordinator.stragglerSeconds = 0.5;
    cfg.coordinator.journalPath = journalPath;
    cfg.coordinator.resume = resume;
    cfg.coordinator.verifyQuorum = sc.verifyQuorum;
    cfg.coordinator.journalPolicy = chaos::diskChaosJournalPolicy(
        chaosSeed, resume ? chaos::DiskRates{} : profile.disk);
    cfg.coordinator.chaosSeed = chaosSeed;
    cfg.workers = workers;
    cfg.wireChaos = resume ? chaos::WireRates{} : profile.wire;
    cfg.corruptEveryN = resume ? 0 : sc.corruptEveryN;
    cfg.corruptSilently = true;
    cfg.maxReconnects = 20;
    return runLocalFleet(*source, cfg);
}

bool
parseOptions(int argc, char **argv, DrillOptions &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "chaos_drill: %s needs a value\n",
                              flag.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        if (flag == "--seed") {
            const char *v = next();
            if (!v)
                return false;
            opt.masterSeed = std::strtoull(v, nullptr, 10);
        } else if (flag == "--chaos-seed") {
            const char *v = next();
            if (!v)
                return false;
            opt.chaosSeed = std::strtoull(v, nullptr, 10);
        } else if (flag == "--max-shards") {
            const char *v = next();
            if (!v)
                return false;
            opt.maxShards = std::strtoull(v, nullptr, 10);
        } else if (flag == "--batch") {
            const char *v = next();
            if (!v)
                return false;
            opt.batchSize = std::strtoull(v, nullptr, 10);
        } else if (flag == "--workers") {
            const char *v = next();
            if (!v)
                return false;
            opt.workers =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (flag == "--workdir") {
            const char *v = next();
            if (!v)
                return false;
            opt.workDir = v;
        } else if (flag == "--scenario") {
            const char *v = next();
            if (!v)
                return false;
            std::string list = v;
            std::size_t pos = 0;
            while (pos < list.size()) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                if (comma > pos)
                    opt.scenarios.push_back(
                        list.substr(pos, comma - pos));
                pos = comma + 1;
            }
        } else if (flag == "--list") {
            opt.list = true;
        } else {
            std::fprintf(stderr, "chaos_drill: unknown flag %s\n",
                          flag.c_str());
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    DrillOptions opt;
    if (!parseOptions(argc, argv, opt))
        return 2;

    std::vector<Scenario> catalogue = allScenarios();
    if (opt.list) {
        for (const Scenario &sc : catalogue)
            std::printf("%s\n", sc.name.c_str());
        return 0;
    }

    std::vector<Scenario> selected;
    if (opt.scenarios.empty()) {
        selected = catalogue;
    } else {
        for (const std::string &want : opt.scenarios) {
            bool found = false;
            for (const Scenario &sc : catalogue) {
                if (sc.name == want) {
                    selected.push_back(sc);
                    found = true;
                    break;
                }
            }
            if (!found) {
                std::fprintf(stderr,
                              "chaos_drill: unknown scenario '%s' "
                              "(--list shows them)\n",
                              want.c_str());
                return 2;
            }
        }
    }

    if (opt.workDir.empty())
        opt.workDir =
            "/tmp/chaos_drill." + std::to_string(::getpid());
    ::mkdir(opt.workDir.c_str(), 0755);

    // The clean serial golden every chaotic run must reproduce
    // byte-for-byte: the degenerate fleet (no sockets, no workers,
    // index order) over the same source.
    chaos::ChaosProfile quiet; // all-zero rates
    Scenario golden_sc{"golden", "none", Evidence::None};
    FleetResult golden = runDrill(opt, golden_sc, quiet, 0,
                                  /*workers=*/0, "", false);
    std::string golden_json =
        adaptiveAggregatesJson(golden.adaptive, "gpu_tester");
    std::printf("chaos_drill: golden %zu shards, union %016llx\n",
                golden.adaptive.shardsRun,
                (unsigned long long)golden.adaptive.unionDigest);

    int failures = 0;
    for (const Scenario &sc : selected) {
        chaos::ChaosProfile profile;
        if (!chaos::profileByName(sc.profile, profile)) {
            std::fprintf(stderr,
                          "chaos_drill: profile '%s' missing\n",
                          sc.profile.c_str());
            return 2;
        }

        bool evidence = false;
        bool broken = false;
        std::string journal;
        for (unsigned trial = 0; trial < 3 && !broken; ++trial) {
            std::uint64_t seed = opt.chaosSeed + trial;
            if (sc.journal)
                journal = opt.workDir + "/" + sc.name + "-" +
                          std::to_string(seed) + ".jsonl";
            FleetResult r = runDrill(opt, sc, profile, seed,
                                     opt.workers, journal, false);
            std::string agg =
                adaptiveAggregatesJson(r.adaptive, "gpu_tester");
            if (r.adaptive.interrupted || !r.adaptive.passed) {
                std::fprintf(stderr,
                              "chaos_drill: %s seed %llu did not "
                              "complete (halted=%d passed=%d)\n",
                              sc.name.c_str(),
                              (unsigned long long)seed,
                              int(r.adaptive.interrupted),
                              int(r.adaptive.passed));
                broken = true;
                break;
            }
            if (agg != golden_json) {
                std::fprintf(stderr,
                              "chaos_drill: %s seed %llu CHANGED THE "
                              "AGGREGATES — corruption absorbed\n",
                              sc.name.c_str(),
                              (unsigned long long)seed);
                broken = true;
                break;
            }
            std::printf(
                "chaos_drill: %s seed %llu ok (crc %llu, digest "
                "%llu, releases %llu, divergence %llu, journal "
                "fail %llu%s)\n",
                sc.name.c_str(), (unsigned long long)seed,
                (unsigned long long)r.frameCorruptions,
                (unsigned long long)r.digestMismatches,
                (unsigned long long)r.releases,
                (unsigned long long)r.quorumDivergences,
                (unsigned long long)(r.journalStatus.failedWrites +
                                     r.journalStatus.fsyncFailures),
                r.journalStatus.degraded ? ", degraded" : "");
            if (hasEvidence(sc.evidence, r, opt.workers)) {
                evidence = true;
                // Self-heal leg: resume over the journal this chaotic
                // run left behind (torn bytes and all) and match the
                // golden again.
                if (sc.journal) {
                    FleetResult heal =
                        runDrill(opt, sc, profile, seed, opt.workers,
                                 journal, /*resume=*/true);
                    std::string heal_agg = adaptiveAggregatesJson(
                        heal.adaptive, "gpu_tester");
                    if (heal.adaptive.interrupted || !heal.adaptive.passed ||
                        heal_agg != golden_json) {
                        std::fprintf(
                            stderr,
                            "chaos_drill: %s resume leg failed "
                            "(halted=%d passed=%d identical=%d)\n",
                            sc.name.c_str(), int(heal.adaptive.interrupted),
                            int(heal.adaptive.passed),
                            int(heal_agg == golden_json));
                        broken = true;
                        break;
                    }
                    std::printf(
                        "chaos_drill: %s resume self-heal ok "
                        "(resumed %zu, crc-skip %llu, torn-skip "
                        "%llu)\n",
                        sc.name.c_str(), heal.adaptive.shardsResumed,
                        (unsigned long long)heal.resumeCrcSkipped,
                        (unsigned long long)heal.resumeParseSkipped);
                }
                break;
            }
        }
        if (!broken && !evidence) {
            std::fprintf(stderr,
                          "chaos_drill: %s produced NO detection "
                          "evidence on any trial seed — faults "
                          "silently absorbed or never injected\n",
                          sc.name.c_str());
            broken = true;
        }
        if (broken)
            ++failures;
        else
            std::printf("chaos_drill: %s PASS\n", sc.name.c_str());
    }

    if (failures) {
        std::fprintf(stderr, "chaos_drill: %d scenario(s) FAILED\n",
                      failures);
        return 1;
    }
    std::printf("chaos_drill: all %zu scenario(s) passed\n",
                selected.size());
    return 0;
}
