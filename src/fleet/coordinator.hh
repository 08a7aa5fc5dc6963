/**
 * @file
 * Fleet coordinator: runs one campaign's shards on worker processes
 * over TCP.
 *
 * The coordinator is the fleet executor of the one campaign loop
 * (guidance/adaptive_campaign.hh). The loop owns everything that must
 * be centralized for the campaign to stay deterministic — the
 * ShardSource (and so the guided scheduler's bandit state), the global
 * shard index counter, resume adoption, the append-only journal and
 * the feedback — exactly as it does for in-process campaigns. The
 * coordinator distributes the one thing that parallelizes perfectly:
 * shard execution, which is a pure function of (genome, scale, seed).
 * run() waits for the workers, makes one call to the loop, and reports
 * the fleet's counters beside its result.
 *
 * Scheduling streams. The loop pulls a batch whenever fewer shards are
 * in flight than the alive workers can hold (workers × queueDepth), so
 * a freed queue slot is refilled at once. Each submitted shard becomes
 * a lease, queued until a worker has room. Results arrive over sockets
 * in arbitrary order; the coordinator posts each index to the loop
 * once its answer is trusted, and the loop merges, journals and
 * reports batches strictly in global shard-index order. That
 * index-ordered drain is what makes the guided scheduler's decision
 * sequence, and every aggregate, a pure function of the master seed,
 * whatever the worker count, arrival order, re-lease history, or
 * resume state.
 *
 * Resilience. The coordinator keeps one record per submitted index
 * until it posts: the lease, the workers holding it, when it was
 * issued and its quorum-check state. A lease is recovered three ways:
 *   - a worker that disconnects, dies, or goes silent past the
 *     heartbeat timeout has its sole-held leases returned to the front
 *     of the pending queue, in index order, and re-leased;
 *   - a worker whose heartbeat says it is idle and has taken every
 *     lease sent to it owes no answer, so an index still listed as held
 *     by it lost its Result on the wire and is returned the same way;
 *   - the straggler rule: a lease held by exactly one worker for longer
 *     than stragglerSeconds is duplicated, oldest first, onto a worker
 *     that holds nothing. The first answer for an index is posted and
 *     later ones are dropped as duplicates.
 * With verifyQuorum, a sampled index is answered twice and posted only
 * once both answers agree, or once the local re-run that settles a
 * disagreement lands. When no worker is alive the coordinator executes
 * stranded leases itself through the same ShardRunner a worker would
 * use, so a campaign always completes even if every worker dies.
 *
 * expectedWorkers == 0 is the degenerate fleet: no socket is opened
 * and every lease runs locally, in index order, through the identical
 * lease → spec → ShardRunner → result line → loop path. That run is
 * the bit-identity golden the distributed tests compare against.
 */

#ifndef DRF_FLEET_COORDINATOR_HH
#define DRF_FLEET_COORDINATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/journal.hh"
#include "campaign/supervisor.hh"
#include "guidance/adaptive_campaign.hh"

namespace drf::fleet
{

/**
 * Coordinator policy. The ShardPolicy base is the supervision applied
 * to every shard attempt, locally and (via the Welcome frame) on every
 * worker.
 */
struct CoordinatorConfig : ShardPolicy
{
    /** Stop / coverage policy of the adaptive loop. */
    AdaptiveCampaignConfig campaign;

    /** Listen address; 0.0.0.0 admits remote hosts. */
    std::string bindAddress = "127.0.0.1";
    /** Listen port; 0 picks an ephemeral port (see boundPort()). */
    unsigned short port = 0;
    /** Workers to wait for before the first batch; 0 = run locally. */
    unsigned expectedWorkers = 0;
    /** Max seconds to wait for expectedWorkers to connect. */
    double workerWaitSeconds = 30.0;

    /** Duplicate a lease held by one worker for longer than this onto
     *  an idle worker; younger ones are presumed healthily in
     *  progress. */
    double stragglerSeconds = 2.0;
    /** Declare a silent worker dead after this long. */
    double heartbeatTimeoutSeconds = 10.0;
    /** Max leases a worker holds (running + queued). */
    unsigned queueDepth = 2;
    /** Heartbeat period shipped to workers. */
    unsigned heartbeatMs = 500;

    /** Append-only JSONL journal; empty disables checkpointing. */
    std::string journalPath;
    /** The journal writer's policy (chaos drills inject disk faults
     *  through it; see chaos::diskChaosJournalPolicy). */
    CampaignJournal::Policy journalPolicy;
    /** Adopt completed shards from journalPath before leasing. */
    bool resume = false;

    /** Stop after this many batches, marking the campaign interrupted
     *  (testing: interrupted-fleet resume); 0 = run the source to
     *  completion. */
    std::size_t maxRounds = 0;

    /**
     * Result-level integrity quorum: every staged lease whose global
     * index is a multiple of N is also duplicated to a second worker,
     * and the two result lines are byte-compared. A mismatch means a
     * worker computed (or reported) the wrong answer without tripping
     * any transport check — the shard is re-run locally as the
     * authoritative tiebreak and counted as a WorkerDivergence.
     * 0 disables; 1 verifies every shard.
     */
    unsigned verifyQuorum = 0;

    /** Master seed of the forked workers' wire chaos streams (see
     *  LocalFleetConfig::wireChaos). */
    std::uint64_t chaosSeed = 0;
};

/** Everything one fleet campaign produced. */
struct FleetResult
{
    /** The campaign's aggregates, built by its one ShardMerge. */
    AdaptiveCampaignResult adaptive;
    /**
     * A copy of adaptive's CampaignResult part, kept only for readers
     * that take a plain CampaignResult (perfbench).
     */
    CampaignResult campaign;

    unsigned workersSeen = 0;       ///< connections accepted
    std::uint64_t leasesIssued = 0; ///< Lease frames sent
    std::uint64_t releases = 0;     ///< re-leases and straggler copies
    std::uint64_t duplicateResults = 0;
    std::uint64_t localRuns = 0; ///< leases executed by the coordinator

    // Integrity detections (what the stack *caught* — every injected
    // corruption must land in one of these, never in the aggregates).
    std::uint64_t frameCorruptions = 0; ///< CRC/oversize stream kills
    std::uint64_t digestMismatches = 0; ///< end-to-end digest failed
    std::uint64_t quorumLeases = 0;     ///< verification duplicates sent
    std::uint64_t quorumDivergences = 0; ///< byte-differing result pairs
    std::vector<std::size_t> divergedIndices; ///< shards that diverged
    std::uint64_t resumeCrcSkipped = 0;   ///< damaged journal records
    std::uint64_t resumeParseSkipped = 0; ///< torn journal records

    /** Journal writer health at campaign end (degraded = the campaign
     *  completed but is not resumable past the degradation point). */
    JournalStatus journalStatus;
};

/**
 * Render the fleet's integrity/triage counters as JSON — everything
 * that must NOT feed the deterministic aggregates (detection counts
 * depend on timing and fault schedules; aggregates must not). It also
 * carries the campaign's wall_seconds, busy_seconds (host seconds of
 * the reported shards summed) and workers (executors: connections
 * accepted, or 1 when the coordinator ran every shard), so fleet idle
 * time is workers × wall_seconds − busy_seconds. On a resumed campaign
 * busy_seconds includes the journaled host seconds of adopted shards.
 */
std::string fleetTriageJson(const FleetResult &result);

class FleetCoordinator
{
  public:
    FleetCoordinator(ShardSource &source, const CoordinatorConfig &cfg);
    ~FleetCoordinator();

    FleetCoordinator(const FleetCoordinator &) = delete;
    FleetCoordinator &operator=(const FleetCoordinator &) = delete;

    /**
     * Bind + listen (no-op when expectedWorkers == 0). Must be called
     * before run(); returns false on a socket failure. After success
     * boundPort() returns the actual port — bind workers to it.
     */
    bool listen();

    /** Port actually bound (after listen(); 0 in local mode). */
    unsigned short boundPort() const;

    /** Run the campaign to completion or halt (maxRounds marks
     *  adaptive.interrupted). Call once. */
    FleetResult run();

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

} // namespace drf::fleet

#endif // DRF_FLEET_COORDINATOR_HH
