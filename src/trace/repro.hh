/**
 * @file
 * Self-contained failure reproductions: record, replay, report.
 *
 * A ReproTrace bundles everything needed to re-execute one GPU tester
 * run on a fresh process: the full system configuration (including the
 * armed fault), the tester configuration, the recorded episode
 * schedule, the original outcome, and (optionally) the binary event
 * trace. Because the simulation is deterministic, replaying the
 * complete schedule reproduces the original run bit-identically —
 * same digests, same failure report — and replaying a subsequence is
 * deterministic too, which is the search space the shrinker
 * (src/trace/shrink.hh) minimizes over.
 */

#ifndef DRF_TRACE_REPRO_HH
#define DRF_TRACE_REPRO_HH

#include <string>

#include "system/apu_system.hh"
#include "tester/configs.hh"
#include "tester/gpu_tester.hh"
#include "trace/recorder.hh"
#include "trace/schedule.hh"

namespace drf
{

/** One recorded GPU tester run, self-contained and re-executable. */
struct ReproTrace
{
    std::string presetName;    ///< human-readable origin (may be empty)
    ApuSystemConfig system;    ///< includes the armed FaultKind
    GpuTesterConfig tester;    ///< record/replay pointers not serialized
    EpisodeSchedule schedule;  ///< every episode, generation order
    TesterResult result;       ///< outcome of the recorded run
    std::vector<TraceEvent> events; ///< optional binary event trace

    /**
     * Guided-campaign provenance: the scheduler's decision log as a
     * JSON array (see src/guidance/), recorded so a trace produced by
     * a guided fuzz run documents exactly how its configuration was
     * chosen. Empty for unguided runs and for v1 trace files.
     */
    std::string guidance;
};

/** Options for recordGpuRun. */
struct RecordOptions
{
    /** Also capture the binary event trace (messages, transitions). */
    bool captureEvents = false;
};

/**
 * Execute the configured run on a fresh system, recording its episode
 * schedule (and, on request, its event trace) into the returned
 * ReproTrace. Recording does not perturb the run.
 */
ReproTrace recordGpuRun(const ApuSystemConfig &sys_cfg,
                        const GpuTesterConfig &tester_cfg,
                        const RecordOptions &opts = {});

/** recordGpuRun for a Table III preset (keeps the preset's name). */
ReproTrace recordGpuRun(const GpuTestPreset &preset,
                        const RecordOptions &opts = {});

/**
 * Re-execute @p schedule under the trace's configurations on a fresh
 * system. With the trace's own (complete) schedule the result is
 * bit-identical to the recorded one; any subsequence replays
 * deterministically.
 *
 * @param arm_fault Replay with the recorded fault armed (true) or with
 *                  a correct protocol (false; used by the shrinker to
 *                  reject subsequences that fail for unrelated
 *                  reasons).
 * @param events    Optional recorder for the replay's event trace.
 * @param perturb   Optional deterministic schedule perturbation
 *                  (per-episode issue delays; see
 *                  trace/schedule.hh) steering the replay into a
 *                  different legal interleaving of the same schedule.
 */
TesterResult replayGpuRun(const ReproTrace &trace,
                          const EpisodeSchedule &schedule,
                          bool arm_fault = true,
                          TraceRecorder *events = nullptr,
                          const SchedulePerturbation *perturb = nullptr);

/** Replay the trace's own full schedule. */
TesterResult replayGpuRun(const ReproTrace &trace);

/**
 * JSON bug report for a (typically shrunk) repro: configuration, fault,
 * failure class, episode-level schedule summary, and the full Table
 * V-style report text (last reader / last writer / recent history).
 *
 * @param shrunk  The minimized schedule to report (may be the full
 *                schedule).
 * @param result  Outcome of replaying @p shrunk.
 */
std::string reproToJson(const ReproTrace &trace,
                        const EpisodeSchedule &shrunk,
                        const TesterResult &result);

} // namespace drf

#endif // DRF_TRACE_REPRO_HH
