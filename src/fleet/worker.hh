/**
 * @file
 * Fleet worker: connect, lease, execute, report — in one process.
 *
 * A worker is deliberately thin. All campaign policy lives on the
 * coordinator and arrives in the Welcome frame; the worker's only job
 * is to turn leases into journal-format result lines using the same
 * ShardRunner a local supervised campaign uses, so a shard fails,
 * retries, and times out identically wherever it runs.
 *
 * Protocol from the worker's side:
 *   connect → Hello → Welcome → { Lease* → Result* | Heartbeat }* →
 *   Shutdown/EOF → exit.
 *
 * The coordinator bounds the worker's queue (queueDepth leases
 * outstanding). A heartbeat thread keeps the connection visibly alive
 * while a long shard runs, and reports whether the worker is idle and
 * how many leases it has taken this session: an idle worker that has
 * taken every lease sent to it owes no Result, so the coordinator
 * re-leases whatever it still lists as held there. A lease whose name
 * does not match the worker's own leaseToSpec is answered with a
 * HostCrash outcome naming both names, so a fleet whose binaries
 * disagree stops loudly instead of cycling the lease.
 *
 * Result integrity: every Result payload is stamped with an FNV-1a64
 * digest of the record line ("%016llx <line>"), computed independently
 * of the frame checksum, so the coordinator can tell "this worker
 * computed something else" (bad RAM, miscompiled binary) apart from
 * "the wire damaged the bytes" (CRC failure). The digest is end-to-end:
 * it is computed before the frame is encoded and checked after it is
 * decoded.
 *
 * Degradation: losing the coordinator mid-campaign is an expected
 * event (chaos drills SIGKILL it on purpose). A worker whose session
 * drops — EOF, send failure, poisoned stream — reconnects with linear
 * backoff up to maxReconnects times and re-handshakes; completed-shard
 * accounting (and the dieOnResult crash countdown) persists across
 * sessions. Only a worker that never managed a single handshake exits
 * with a connect error.
 *
 * Fault injection (chaos drills): wireChaos plans per-frame faults —
 * drop, duplicate, delay, byte flip, truncation — applied to the
 * worker's *outbound* frames only, post-handshake, from a seeded
 * deterministic plan (chaos/wire_chaos.hh). corruptEveryN simulates a
 * worker whose computation is wrong: every Nth-indexed lease has its
 * result line perturbed before sending; with corruptSilently the
 * digest covers the perturbed line (only result-level quorum can catch
 * it), without it the digest covers the true line (the coordinator's
 * digest check catches it).
 */

#ifndef DRF_FLEET_WORKER_HH
#define DRF_FLEET_WORKER_HH

#include <cstdint>
#include <string>

#include "chaos/chaos.hh"

namespace drf::fleet
{

struct WorkerConfig
{
    std::string host = "127.0.0.1";
    unsigned short port = 0;

    /** Display name sent in Hello; empty derives "local:<pid>". */
    std::string name;

    /**
     * Fault injection for fleet tests: when N > 0, the worker SIGKILLs
     * itself *instead of sending* its Nth result — it completes N-1
     * shards, computes the Nth, and dies holding that lease (plus
     * anything queued), so the coordinator must re-lease to finish.
     * 0 disables. Counts across reconnected sessions.
     */
    unsigned dieOnResult = 0;

    /** Outbound wire fault rates; all-zero disables injection. */
    chaos::WireRates wireChaos;
    /** Seed of this worker's fault plan (derive one per worker). */
    std::uint64_t chaosSeed = 0;

    /** Perturb the result of every lease whose index % N == 0;
     *  0 disables. */
    unsigned corruptEveryN = 0;
    /** Stamp the digest over the *perturbed* line, so only quorum
     *  verification (not the digest check) can catch the lie. */
    bool corruptSilently = false;

    /** Reconnect attempts after a lost session before giving up. */
    unsigned maxReconnects = 5;
};

/**
 * Run one worker until the coordinator says Shutdown (or the
 * connection is lost beyond recovery). Returns a process exit code:
 * 0 on a clean shutdown, 2 on connect/handshake failure, 3 when the
 * reconnect budget is exhausted.
 */
int runWorker(const WorkerConfig &cfg);

} // namespace drf::fleet

#endif // DRF_FLEET_WORKER_HH
