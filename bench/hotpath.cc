/**
 * @file
 * Per-stage hot-path microbench for the data-oriented simulation core
 * (DESIGN.md section 10).
 *
 * perfbench (perfbench/run.py) measures the whole pipeline; when it
 * regresses, this bench tells you *which* stage moved. Three
 * stages are timed in isolation, each reporting events/s:
 *
 *  - episode_generation: EpisodeGenerator::generateInto + retire over a
 *    reused Episode (the CSR planes), counting generated lane ops;
 *  - controller_dispatch: EventQueue schedule+dispatch over a fixed
 *    latency mix (same-tick continuations and near-future port hops in
 *    the timing wheel, occasional beyond-horizon heap entries);
 *  - ref_check: RefMemory applyWrite / value / noteRead, the
 *    load-checking planes the tester hits once per retired access.
 *
 * Usage: hotpath [--ops N] [--out FILE]   (default 2000000 ops/stage,
 * BENCH_hotpath.json)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "tester/episode.hh"
#include "tester/ref_memory.hh"
#include "tester/variable_map.hh"

using namespace drf;
using namespace drf::bench;

namespace
{

using Clock = std::chrono::steady_clock;

struct StageResult
{
    std::uint64_t events = 0;
    double seconds = 0.0;

    double
    eventsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
    }
};

/** Generate-and-retire episodes; events = generated lane ops. */
StageResult
benchEpisodeGeneration(std::uint64_t target_ops)
{
    Random rng(1);
    VariableMapConfig vcfg;
    vcfg.numNormalVars = 512;
    vcfg.addrRangeBytes = 1 << 14;
    VariableMap vmap(vcfg, rng);

    EpisodeGenConfig gcfg;
    gcfg.actionsPerEpisode = 30;
    gcfg.lanes = 8;
    EpisodeGenerator gen(vmap, gcfg, rng);

    Episode episode;
    // Warm the episode's CSR planes so the timed loop is steady-state.
    gen.generateInto(episode, 0);
    gen.retire(episode);

    StageResult r;
    Clock::time_point start = Clock::now();
    while (r.events < target_ops) {
        gen.generateInto(episode, 0);
        for (std::uint32_t a = 0; a < episode.numActions(); ++a) {
            for (std::uint32_t l = 0; l < episode.laneCount(a); ++l) {
                if (episode.laneActive(a, l))
                    ++r.events;
            }
        }
        gen.retire(episode);
    }
    r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return r;
}

/** Schedule+dispatch with the campaign's latency mix. */
StageResult
benchControllerDispatch(std::uint64_t target_ops)
{
    EventQueue eq;
    std::uint64_t sink = 0;

    // Latency mix: most events are small fixed port/recycle/memory
    // latencies and 1 in 8 is a same-tick continuation (all in the
    // timing wheel; the same-tick ones join the current tick's bucket),
    // and watchdog-style checks sit beyond the wheel horizon (heap).
    // Tester campaigns schedule nothing at delay 0 (only application
    // runs do), so the same-tick share is heavier than theirs.
    auto round = [&eq, &sink]() {
        for (int i = 0; i < 990; ++i) {
            Tick delay;
            switch (i & 7) {
              case 0:
                delay = 0; // same-tick continuation
                break;
              case 1:
                delay = 100; // memory latency
                break;
              default:
                delay = 2 + (i & 3); // port hop / recycle
                break;
            }
            eq.scheduleAfter(delay, [&sink] { ++sink; });
        }
        for (int i = 0; i < 10; ++i)
            eq.scheduleAfter(50'000 + i, [&sink] { ++sink; }); // watchdog
        eq.run();
    };

    round(); // warm pools and wheel buckets

    StageResult r;
    const std::uint64_t before = sink;
    Clock::time_point start = Clock::now();
    while (sink - before < target_ops)
        round();
    r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    r.events = sink - before;
    return r;
}

/** Reference-memory write/read checking planes. */
StageResult
benchRefCheck(std::uint64_t target_ops)
{
    Random rng(1);
    VariableMapConfig vcfg;
    vcfg.numNormalVars = 512;
    vcfg.addrRangeBytes = 1 << 14;
    VariableMap vmap(vcfg, rng);
    RefMemory ref(vmap);

    StageResult r;
    std::uint64_t mismatches = 0;
    Clock::time_point start = Clock::now();
    while (r.events < target_ops) {
        VarId var = vmap.normalVar(
            static_cast<std::uint32_t>(r.events % vcfg.numNormalVars));
        AccessRecord rec;
        rec.threadId = static_cast<std::uint32_t>(r.events & 0xff);
        rec.episodeId = r.events;
        rec.addr = vmap.addrOf(var);
        rec.value = r.events;
        if ((r.events & 3) == 0) {
            ref.applyWrite(var, rec);
        } else {
            // The tester's per-load check: expected value + bookkeeping.
            if (ref.value(var) == 0xdeadbeef)
                ++mismatches; // never taken; defeats dead-code removal
            ref.noteRead(var, rec);
        }
        ++r.events;
    }
    r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    if (mismatches != 0)
        std::fprintf(stderr, "impossible mismatch count %llu\n",
                     (unsigned long long)mismatches);
    return r;
}

std::uint64_t
parseArg(int argc, char **argv, const std::string &flag,
         std::uint64_t fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (argv[i] == flag)
            return std::strtoull(argv[i + 1], nullptr, 10);
    }
    return fallback;
}

std::string
parseOut(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--out")
            return argv[i + 1];
    }
    return "BENCH_hotpath.json";
}

void
emitStage(JsonWriter &w, const char *name, const StageResult &r)
{
    w.key(name).beginObject();
    w.key("events").value(r.events);
    w.key("seconds").value(r.seconds);
    w.key("events_per_sec").value(r.eventsPerSec());
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t ops = parseArg(argc, argv, "--ops", 2'000'000);

    std::printf("Hot-path per-stage microbench (%llu ops/stage)\n\n",
                (unsigned long long)ops);

    StageResult episode_gen = benchEpisodeGeneration(ops);
    StageResult dispatch = benchControllerDispatch(ops);
    StageResult ref_check = benchRefCheck(ops);

    std::printf("  episode generation:  %12.0f lane-ops/s\n",
                episode_gen.eventsPerSec());
    std::printf("  controller dispatch: %12.0f events/s\n",
                dispatch.eventsPerSec());
    std::printf("  reference check:     %12.0f checks/s\n",
                ref_check.eventsPerSec());

    JsonWriter w;
    w.beginObject();
    w.key("bench").value("hotpath");
    jsonProvenance(w);
    w.key("ops_per_stage").value(ops);
    w.key("stages").beginObject();
    emitStage(w, "episode_generation", episode_gen);
    emitStage(w, "controller_dispatch", dispatch);
    emitStage(w, "ref_check", ref_check);
    w.endObject();
    w.endObject();

    writeFileReport(parseOut(argc, argv), w.str());
    std::printf("\nwrote %s\n", parseOut(argc, argv).c_str());
    return 0;
}
