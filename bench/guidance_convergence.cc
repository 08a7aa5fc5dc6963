/**
 * @file
 * Guided vs. random campaign convergence (the src/guidance/ payoff).
 *
 * For each of three master seeds:
 *
 *  1. random baseline: a blind 32-shard campaign uniformly sampling the
 *     scaled-down Table III arm set, recording its total episodes and
 *     its final union active-cell counts (L1, L2);
 *  2. guided: the coverage-guided scheduler over the same arms, told to
 *     stop as soon as its union reaches the baseline's active counts
 *     (with the baseline's episode total as a hard budget so it can
 *     never "win" by spending more);
 *  3. guided again with the same master seed, asserting the decision
 *     sequence and union digest reproduce bit-identically.
 *
 * The headline metric is the episode reduction: guided is expected to
 * reach the random campaign's union coverage with >= 25% fewer total
 * episodes (median over the three seeds). Results go to
 * BENCH_guidance.json; the binary exits nonzero if coverage is not
 * reached, determinism is broken, or the median reduction falls below
 * the threshold. tools/bench_gate.py runs it once per side and also
 * fails a change whose median reduction falls more than 25% below its
 * parent's.
 *
 * Usage: guidance_convergence [--jobs N] [--out FILE]
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "guidance/adaptive_campaign.hh"

using namespace drf;
using namespace drf::bench;

namespace
{

constexpr double kMinMedianReductionPct = 25.0;

/** The scaled-down arm pool: Table III genomes on the bench system. */
std::vector<ConfigGenome>
benchArms()
{
    std::vector<ConfigGenome> arms = tableIIIArms();
    for (ConfigGenome &arm : arms)
        arm.numCus = 4;
    return arms;
}

GenomeScale
benchScale()
{
    GenomeScale scale;
    scale.lanes = 8;
    scale.wfsPerCu = 2;
    scale.numNormalVars = 512;
    return scale;
}

SourceConfig
benchSourceConfig(std::uint64_t master_seed)
{
    SourceConfig cfg;
    cfg.arms = benchArms();
    cfg.scale = benchScale();
    cfg.masterSeed = master_seed;
    cfg.batchSize = 2;
    cfg.maxShards = 32;
    return cfg;
}

struct SeedOutcome
{
    std::uint64_t masterSeed = 0;
    std::uint64_t randomEpisodes = 0;
    std::size_t randomL1Active = 0;
    std::size_t randomL2Active = 0;
    std::uint64_t guidedEpisodes = 0;
    std::size_t guidedShards = 0;
    std::size_t guidedRounds = 0;
    double reductionPct = 0.0;
    bool targetReached = false;
    bool deterministic = false;
};

bool
sameDecisions(const std::vector<GuidanceDecision> &a,
              const std::vector<GuidanceDecision> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].arm != b[i].arm || a[i].probe != b[i].probe ||
            a[i].mutant != b[i].mutant || a[i].seeds != b[i].seeds ||
            a[i].genome != b[i].genome ||
            a[i].episodes != b[i].episodes ||
            a[i].newCells != b[i].newCells) {
            return false;
        }
    }
    return true;
}

AdaptiveCampaignResult
runGuided(std::uint64_t master_seed, std::size_t target_l1,
          std::size_t target_l2, std::uint64_t episode_budget,
          unsigned jobs)
{
    SourceConfig scfg = benchSourceConfig(master_seed);
    // Generous shard headroom: the probe cap keeps shards cheap, and
    // the episode budget (not the shard count) is the real limiter.
    scfg.maxShards = 96;

    GuidedOptions opts;
    opts.targetL1Active = target_l1;
    opts.targetL2Active = target_l2;
    opts.episodeBudget = episode_budget;

    GuidedSource source(scfg, opts);
    AdaptiveCampaignConfig acfg;
    acfg.jobs = jobs;
    return runAdaptiveCampaign(source, acfg);
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = parseJobs(argc, argv);
    std::string out_path = "BENCH_guidance.json";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--out")
            out_path = argv[i + 1];
    }

    std::printf("Guided vs. random campaign convergence\n");
    std::printf("arms: 24 scaled Table III genomes; random budget: 32 "
                "shards\n\n");

    const std::vector<std::uint64_t> master_seeds{1, 2, 3};
    std::vector<SeedOutcome> outcomes;

    for (std::uint64_t master_seed : master_seeds) {
        SeedOutcome o;
        o.masterSeed = master_seed;

        // --- random baseline ---------------------------------------
        SourceConfig rcfg = benchSourceConfig(master_seed);
        RandomSource random_source(rcfg);
        AdaptiveCampaignConfig acfg;
        acfg.jobs = jobs;
        AdaptiveCampaignResult random_res =
            runAdaptiveCampaign(random_source, acfg);
        if (!random_res.passed) {
            std::fprintf(stderr, "random baseline FAILED (seed %llu)\n",
                         (unsigned long long)master_seed);
            return 1;
        }
        if (random_res.shardsRun != rcfg.maxShards) {
            std::fprintf(stderr,
                         "random baseline INCOMPLETE (seed %llu): ran "
                         "%zu of %zu shards\n",
                         (unsigned long long)master_seed,
                         random_res.shardsRun, rcfg.maxShards);
            return 1;
        }
        o.randomEpisodes = random_res.totalEpisodes;
        o.randomL1Active =
            random_res.l1Union ? random_res.l1Union->activeCount("") : 0;
        o.randomL2Active =
            random_res.l2Union ? random_res.l2Union->activeCount("") : 0;

        // --- guided to the same coverage ---------------------------
        AdaptiveCampaignResult guided_res =
            runGuided(master_seed, o.randomL1Active, o.randomL2Active,
                      o.randomEpisodes, jobs);
        if (!guided_res.passed) {
            std::fprintf(stderr, "guided campaign FAILED (seed %llu)\n",
                         (unsigned long long)master_seed);
            return 1;
        }
        if (guided_res.shardsRun == 0) {
            std::fprintf(stderr,
                         "guided campaign INCOMPLETE (seed %llu): no "
                         "shards ran\n",
                         (unsigned long long)master_seed);
            return 1;
        }
        o.guidedEpisodes = guided_res.totalEpisodes;
        o.guidedShards = guided_res.shardsRun;
        o.guidedRounds = guided_res.rounds;
        std::size_t g_l1 =
            guided_res.l1Union ? guided_res.l1Union->activeCount("") : 0;
        std::size_t g_l2 =
            guided_res.l2Union ? guided_res.l2Union->activeCount("") : 0;
        o.targetReached =
            g_l1 >= o.randomL1Active && g_l2 >= o.randomL2Active;
        o.reductionPct =
            o.randomEpisodes > 0
                ? (1.0 - static_cast<double>(o.guidedEpisodes) /
                             static_cast<double>(o.randomEpisodes)) *
                      100.0
                : 0.0;

        // --- determinism: re-run, expect identical decisions -------
        AdaptiveCampaignResult rerun =
            runGuided(master_seed, o.randomL1Active, o.randomL2Active,
                      o.randomEpisodes, jobs);
        o.deterministic =
            rerun.unionDigest == guided_res.unionDigest &&
            sameDecisions(rerun.decisions, guided_res.decisions);

        std::printf("seed %llu: random %6llu eps (L1 %zu, L2 %zu) | "
                    "guided %6llu eps in %zu shards | "
                    "reduction %5.1f%% | target %s | replay %s\n",
                    (unsigned long long)master_seed,
                    (unsigned long long)o.randomEpisodes,
                    o.randomL1Active, o.randomL2Active,
                    (unsigned long long)o.guidedEpisodes, o.guidedShards,
                    o.reductionPct, o.targetReached ? "reached" : "MISSED",
                    o.deterministic ? "identical" : "DIVERGED");
        outcomes.push_back(o);
    }

    std::vector<double> reductions;
    bool all_reached = true;
    bool all_deterministic = true;
    for (const SeedOutcome &o : outcomes) {
        reductions.push_back(o.reductionPct);
        all_reached = all_reached && o.targetReached;
        all_deterministic = all_deterministic && o.deterministic;
    }
    std::sort(reductions.begin(), reductions.end());
    double median_reduction = reductions[reductions.size() / 2];
    bool pass = all_reached && all_deterministic &&
                median_reduction >= kMinMedianReductionPct;

    std::printf("\nmedian episode reduction: %.1f%% (threshold "
                ">= %.0f%%)\n",
                median_reduction, kMinMedianReductionPct);
    std::printf("guidance convergence: %s\n", pass ? "PASS" : "FAIL");

    JsonWriter w;
    w.beginObject();
    w.key("bench").value("guidance_convergence");
    jsonProvenance(w);
    w.key("threshold_reduction_pct").value(kMinMedianReductionPct);
    w.key("median_reduction_pct").value(median_reduction);
    w.key("all_targets_reached").value(all_reached);
    w.key("deterministic").value(all_deterministic);
    w.key("pass").value(pass);
    w.key("seeds").beginArray();
    for (const SeedOutcome &o : outcomes) {
        w.beginObject();
        w.key("master_seed").value(o.masterSeed);
        w.key("random_episodes").value(o.randomEpisodes);
        w.key("random_l1_active")
            .value(static_cast<std::uint64_t>(o.randomL1Active));
        w.key("random_l2_active")
            .value(static_cast<std::uint64_t>(o.randomL2Active));
        w.key("guided_episodes").value(o.guidedEpisodes);
        w.key("guided_shards")
            .value(static_cast<std::uint64_t>(o.guidedShards));
        w.key("guided_rounds")
            .value(static_cast<std::uint64_t>(o.guidedRounds));
        w.key("reduction_pct").value(o.reductionPct);
        w.key("target_reached").value(o.targetReached);
        w.key("deterministic").value(o.deterministic);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    writeFileReport(out_path, w.str());
    return pass ? 0 : 1;
}
