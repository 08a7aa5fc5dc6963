/**
 * @file
 * Predictive race analysis over recorded traces.
 *
 * A recorded run that *passed* still constrains what other runs of the
 * same program could do: any pair of conflicting accesses (same
 * variable, at least one write, different wavefronts) that is not
 * ordered by the trace's happens-before relation (predict/hb.hh) was
 * ordered only by scheduling accident, and some legal reordering can
 * make the pair overlap — exactly the window in which the tester's
 * value checks observe stale or torn data. The predictive pass
 * enumerates those pairs from ONE passing trace, instead of waiting for
 * a fuzzing campaign to stumble into the schedule that manifests them.
 *
 * Every candidate is backed by evidence, not just clock arithmetic:
 * the verifier replays a pair-prefix subsequence of the schedule
 * (both wavefronts' histories up to the pair) through the deterministic
 * replayer, probing a ladder of issue delays (SchedulePerturbation) for
 * the earlier episode until the pair overlaps. A candidate whose
 * witness replay fails (ScopeViolation / ValueMismatch / ...) is
 * CONFIRMED and carries the exact perturbation as a reproducible
 * witness; one that survives every probe is DEMOTED — reported, but
 * explicitly marked unconfirmed.
 */

#ifndef DRF_PREDICT_PREDICT_HH
#define DRF_PREDICT_PREDICT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "predict/hb.hh"
#include "tester/tester_failure.hh"
#include "trace/repro.hh"

namespace drf
{

/** One side of a predicted race: an access within an episode. */
struct AccessSite
{
    std::size_t scheduleIndex = 0; ///< index into the trace's schedule
    std::uint64_t episodeId = 0;
    std::uint32_t wavefront = 0;
    unsigned cu = 0;
    Scope scope = Scope::None;
    VarId var = 0;        ///< the conflicting variable
    bool isWrite = false; ///< this side's access kind
};

/** A conflicting access pair unordered by happens-before. */
struct PredictedRace
{
    AccessSite first;  ///< earlier in the observed sync order
    AccessSite second; ///< later in the observed sync order
    /** Why no release/acquire path orders the pair (the failed sync). */
    std::string syncPath;

    // Witness (filled by verification).
    bool verified = false;  ///< the verifier ran on this candidate
    bool confirmed = false; ///< a witness replay manifested a failure
    /** Failure class of the confirming replay (None when demoted). */
    FailureClass witnessClass = FailureClass::None;
    /** Issue delay applied to @c first in the confirming replay. */
    Tick witnessDelay = 0;
    /** Table V-style report of the confirming replay (empty if none). */
    std::string witnessReport;
};

/** Cap on candidates carried into a report (each one is verified). */
inline constexpr std::size_t kMaxPredictCandidates = 64;

/** Tuning knobs for predictRaces. */
struct PredictOptions
{
    /** Delay-ladder depth per candidate during verification. */
    unsigned maxProbes = 8;
};

/** Outcome of the predictive pass on one trace. */
struct PredictReport
{
    HbOrderSource orderSource = HbOrderSource::ScheduleOrder;
    /** Trace events consumed by the HB build. An explore base run
     *  keeps only its sync markers, so there it counts markers. */
    std::size_t eventsAnalyzed = 0;
    std::size_t pairsChecked = 0;   ///< conflicting pairs tested for order
    std::size_t candidates = 0;     ///< HB-unordered pairs found (pre-cap)
    std::size_t replays = 0;        ///< witness replays executed
    std::vector<PredictedRace> races; ///< verified; kMaxPredictCandidates cap

    std::size_t confirmedCount() const;
    std::size_t demotedCount() const;
};

/**
 * Run the predictive pass on @p trace: build the happens-before model,
 * enumerate HB-unordered conflicting access pairs, and (by default)
 * verify each through witness replays. Deterministic for a given trace.
 */
PredictReport predictRaces(const ReproTrace &trace,
                           const PredictOptions &opts = {});

/**
 * The pair-prefix schedule the verifier replays for a candidate: both
 * wavefronts' episodes up to and including the pair. Exposed so tools
 * can save the witness alongside the report.
 */
EpisodeSchedule witnessSchedule(const ReproTrace &trace,
                                const PredictedRace &race);

/** JSON rendering of a PredictReport (shrink_repro predict output). */
std::string predictReportJson(const ReproTrace &trace,
                              const PredictReport &report);

} // namespace drf

#endif // DRF_PREDICT_PREDICT_HH
