/**
 * @file
 * Fleet coordinator: shards one adaptive campaign across worker
 * processes over TCP.
 *
 * The coordinator owns everything that must be centralized for the
 * campaign to stay deterministic — the ShardSource (and so the guided
 * scheduler's bandit state), the global shard index counter, the
 * append-only journal, and the FeedbackLoop — and distributes the one
 * thing that parallelizes perfectly: shard execution, which is a pure
 * function of (genome, scale, seed).
 *
 * Scheduling streams where it can. The coordinator pulls batches
 * through the same pull rule and reorder window as the in-process loop
 * (BatchWindow, guidance/adaptive_campaign.hh). A feedbackFree() source
 * (sweep, random) is asked for its next batch whenever fewer shards
 * are leased or pending than the alive workers can hold (workers ×
 * queueDepth), so a freed queue slot is refilled at once and no batch
 * waits for its predecessor's straggler. A guided or explore source keeps the batch
 * barrier: its next batch is pulled only after the previous one fully
 * drained. Either way results arrive over sockets in arbitrary order
 * and wait, keyed by global shard index, until their batch is the
 * oldest one pulled and complete (every index answered, no quorum
 * cross-check pending). Then the batch drains — merge, journal and
 * feedback, strictly in global shard-index order — and the stop policy
 * runs at that batch boundary. That index-ordered drain is what makes
 * the guided scheduler's decision sequence, and every aggregate, a
 * pure function of the master seed, whatever the worker count, arrival
 * order, steal history, or resume state. Outcomes of batches pulled
 * ahead of a stop are never merged, journaled or reported.
 *
 * Resilience: workers heartbeat; a worker that disconnects, dies, or
 * goes silent past the heartbeat timeout has its outstanding leases
 * returned to the pending queue and re-leased (work stealing's
 * recovery half). An idle worker may request work (Steal frame) and be
 * handed a duplicate of the oldest lease still outstanding elsewhere
 * (the proactive half); the first result for an index wins and
 * duplicates are dropped by the merge. With localFallback the
 * coordinator executes stranded leases itself through the same
 * ShardRunner a worker would use, so a campaign always completes even
 * if every worker dies.
 *
 * expectedWorkers == 0 is the degenerate fleet: no socket is opened
 * and every lease runs locally, in index order, through the identical
 * lease → spec → ShardRunner → journal-line → merge path. That run is
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
#include "chaos/chaos.hh"
#include "guidance/adaptive_campaign.hh"

namespace drf::fleet
{

/** Coordinator policy. */
struct CoordinatorConfig
{
    /** Stop / coverage policy of the adaptive loop. */
    AdaptiveCampaignConfig campaign;

    // Supervision policy applied to every shard attempt, locally and
    // (via the Welcome frame) on every worker.
    bool forkIsolation = false;
    double shardTimeoutSeconds = 0.0;
    std::uint64_t shardEventBudget = 0;
    unsigned maxRetries = 2;
    unsigned retryBackoffMs = 10;

    /** Listen address; 0.0.0.0 admits remote hosts. */
    std::string bindAddress = "127.0.0.1";
    /** Listen port; 0 picks an ephemeral port (see boundPort()). */
    unsigned short port = 0;
    /** Workers to wait for before the first batch; 0 = run locally. */
    unsigned expectedWorkers = 0;
    /** Max seconds to wait for expectedWorkers to connect. */
    double workerWaitSeconds = 30.0;

    /** Re-lease an outstanding lease after this long; 0 disables. */
    double leaseTimeoutSeconds = 0.0;
    /** A Steal request only duplicates leases outstanding at least
     *  this long — younger ones are presumed healthily in progress. */
    double stealMinAgeSeconds = 2.0;
    /** Declare a silent worker dead after this long. */
    double heartbeatTimeoutSeconds = 10.0;
    /** Max leases a worker holds (running + queued). */
    unsigned queueDepth = 2;
    /** Heartbeat period shipped to workers. */
    unsigned heartbeatMs = 500;

    /** Append-only JSONL journal; empty disables checkpointing. */
    std::string journalPath;
    /** Adopt completed shards from journalPath before leasing. */
    bool resume = false;

    /** Execute stranded leases locally if the fleet empties. */
    bool localFallback = true;

    /** Stop after this many batches (testing: interrupted-fleet
     *  resume); 0 = run the source to completion. */
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

    /** Disk fault rates injected under the coordinator's journal
     *  writer; all-zero disables injection. */
    chaos::DiskRates diskChaos;
    /** Master seed for the coordinator's chaos streams. */
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
    std::uint64_t releases = 0;     ///< re-leases (death + steal)
    std::uint64_t duplicateResults = 0;
    std::uint64_t localRuns = 0; ///< leases executed by the coordinator
    bool halted = false; ///< stopped by maxRounds, source not drained

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

    /** Run the campaign to completion or halt. Call once. */
    FleetResult run();

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

} // namespace drf::fleet

#endif // DRF_FLEET_COORDINATOR_HH
