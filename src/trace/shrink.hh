/**
 * @file
 * Delta-debugging minimizer for failing episode schedules.
 *
 * Given a recorded failing run, shrinkRepro searches for a small
 * subsequence of the episode schedule that still reproduces the *same
 * class* of failure (ddmin, Zeller & Hildebrandt). Every candidate
 * subsequence is evaluated by replaying it on a fresh system — cheap,
 * because shrink candidates are far shorter than the original run.
 *
 * Soundness: removing episodes shifts wavefront timing, so a
 * subsequence can overlap episodes that were serialized in the
 * original run and fail with a *genuine* data race rather than the
 * injected/observed bug. A candidate is therefore accepted only if it
 * (a) fails with the original failure class with the recorded fault
 * armed, and (b) — when a fault is armed — passes with the fault
 * disarmed, proving the failure is caused by the bug under
 * investigation and not by an artifact of the shrink itself.
 *
 * The candidates of one ddmin step are replayed concurrently on a pool
 * of ThreadPool::defaultThreads() threads, then accounted in serial
 * order: the shrunk schedule and ShrinkStats (but `replays` and
 * `seconds`) are those of a serial search at any thread count.
 */

#ifndef DRF_TRACE_SHRINK_HH
#define DRF_TRACE_SHRINK_HH

#include <cstdint>
#include <functional>

#include "trace/repro.hh"

namespace drf
{

/** Shrink policy knobs. */
struct ShrinkOptions
{
    /** Hard cap on probes (see ShrinkStats::probes). */
    std::size_t maxProbes = 2000;

    /** Progress callback (probe count, current best size); optional. */
    std::function<void(std::size_t, std::size_t)> progress;
};

/** What the shrink did, for reports and logs. */
struct ShrinkStats
{
    std::size_t originalEpisodes = 0;
    std::size_t shrunkEpisodes = 0;
    /**
     * Candidates probed, in serial ddmin order. A probe runs one
     * replay, or two when the fault-disarmed check follows.
     */
    std::size_t probes = 0;
    /**
     * Every replay run, including fault-disarmed checks and candidates
     * replayed concurrently but discarded because a lower-index one
     * failed. probes / replays is the useful-work ratio. Unlike the
     * other counts it depends on thread timing.
     */
    std::size_t replays = 0;
    std::size_t improvements = 0; ///< accepted (smaller) candidates
    bool probeBudgetExhausted = false;
    double seconds = 0.0;         ///< wall-clock shrink time
};

/**
 * Minimize @p trace's schedule to a near-minimal subsequence that
 * still fails with trace.result.failureClass. Requires a failing
 * trace. Returns the minimized schedule (at worst the original).
 */
EpisodeSchedule shrinkRepro(const ReproTrace &trace,
                            const ShrinkOptions &opts = {},
                            ShrinkStats *stats = nullptr);

} // namespace drf

#endif // DRF_TRACE_SHRINK_HH
