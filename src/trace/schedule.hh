/**
 * @file
 * Recorded episode schedules — the replayable core of a trace.
 *
 * The GPU tester is deterministic given its configuration, its seed,
 * and the exact episode stream it issues. Recording that stream (every
 * generated episode, in generation order) therefore captures the whole
 * run: feeding the same schedule back through a fresh system re-executes
 * it bit-identically, and feeding back a *subsequence* is how the
 * delta-debugging shrinker (src/trace/shrink.hh) searches for a minimal
 * failing repro.
 *
 * Episodes are stored exactly as generated (before any completedAt
 * mutation); the derived writes/reads indexes can be rebuilt from the
 * action list alone, which is what the trace file loader does.
 */

#ifndef DRF_TRACE_SCHEDULE_HH
#define DRF_TRACE_SCHEDULE_HH

#include <cstdint>
#include <vector>

#include "tester/episode.hh"

namespace drf
{

/** A recorded episode stream, in generation order. */
struct EpisodeSchedule
{
    std::vector<Episode> episodes;

    std::size_t size() const { return episodes.size(); }
    bool empty() const { return episodes.empty(); }

    /** The subsequence selected by @p keep (indexes into episodes). */
    EpisodeSchedule
    subset(const std::vector<std::size_t> &keep) const
    {
        EpisodeSchedule out;
        out.episodes.reserve(keep.size());
        for (std::size_t idx : keep)
            out.episodes.push_back(episodes.at(idx));
        return out;
    }
};

/**
 * A deterministic schedule perturbation: per-episode issue delays,
 * applied by the tester when the episode would start (the recorded
 * commit points). Delaying an episode's acquire shifts every one of its
 * memory operations — and its wavefront's subsequent episodes — later
 * relative to the other wavefronts, which is how the offline analyses
 * (src/predict/) steer the deterministic replayer into *other* legal
 * interleavings of the same recorded schedule: witness verification
 * replays a predicted race with the rescuing episodes pushed aside, and
 * the bounded DPOR explorer enumerates commit-point reorderings by
 * composing flips. A perturbation changes timing only; the per-wavefront
 * program order (and thus the schedule's legality) is untouched.
 */
struct SchedulePerturbation
{
    struct Delay
    {
        std::uint64_t episodeId = 0;
        Tick ticks = 0;
    };

    std::vector<Delay> delays;

    bool empty() const { return delays.empty(); }

    /** Add @p ticks of issue delay for @p episode_id (accumulates). */
    void
    add(std::uint64_t episode_id, Tick ticks)
    {
        for (Delay &d : delays) {
            if (d.episodeId == episode_id) {
                d.ticks += ticks;
                return;
            }
        }
        delays.push_back({episode_id, ticks});
    }

    /** Issue delay for @p episode_id (0 when unperturbed). */
    Tick
    delayFor(std::uint64_t episode_id) const
    {
        for (const Delay &d : delays) {
            if (d.episodeId == episode_id)
                return d.ticks;
        }
        return 0;
    }
};

/**
 * Rebuild an episode's derived writes/reads indexes from its op planes
 * (used after deserialization; the generator enforces one writer per
 * variable, so the reconstruction is exact).
 */
inline void
rebuildEpisodeIndexes(Episode &episode)
{
    episode.rebuildIndexes();
}

} // namespace drf

#endif // DRF_TRACE_SCHEDULE_HH
