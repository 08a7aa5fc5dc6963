/**
 * @file
 * Fleet protocol payloads: the JSON bodies carried by wire.hh frames.
 *
 * The protocol exists to move *descriptions*, not code: a Lease frame
 * carries a ShardLease — (genome, scale, seed, global index) — from
 * which genomeToPreset() reconstructs the exact GpuTestPreset a local
 * campaign would have built, name included. A Result frame carries the
 * journal-format shard record (journal.hh) verbatim, so the
 * coordinator journals the byte-identical line the worker produced and
 * every consumer — journal file, fork pipe, socket — shares one
 * serializer and one parser.
 *
 * Bit-exactness note: the genome's coloc_density is a double that must
 * survive the round trip exactly (it feeds the address-range
 * computation, and a 1-ulp drift would change the simulated system).
 * The shared JsonWriter renders doubles with %.6g for human-facing
 * summaries, so leases serialize density with %.17g — enough digits to
 * round-trip any IEEE double — spliced in as a raw number.
 */

#ifndef DRF_FLEET_PROTOCOL_HH
#define DRF_FLEET_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "campaign/supervisor.hh"
#include "guidance/shard_source.hh"

namespace drf::fleet
{

/**
 * Protocol revision; bumped on any frame/payload change.
 * v2: CRC32C frame checksums (wire.hh) and digest-stamped Result
 * payloads. v1 peers fail the frame checksum before they can even
 * introduce themselves.
 * v3: no Steal frame and no Hello slot count; the Heartbeat carries
 * idle and leasesTaken, from which the coordinator recovers lost
 * Results. A peer of another revision is rejected here, at the Hello
 * handshake.
 */
constexpr unsigned kProtocolVersion = 3;

/** Worker introduction (first frame on a new connection). */
struct HelloMsg
{
    unsigned protocolVersion = kProtocolVersion;
    std::string worker; ///< display name, e.g. "host:pid"
    std::uint64_t pid = 0;
};

/**
 * Coordinator's reply: the supervision policy every worker must apply
 * so a shard fails (and retries, and times out) identically wherever
 * it runs, plus the flow-control constants.
 */
struct WelcomeMsg : ShardPolicy
{
    unsigned protocolVersion = kProtocolVersion;
    /** Max leases a worker holds (running + queued). */
    unsigned queueDepth = 2;
    /** Worker heartbeat period. */
    unsigned heartbeatMs = 500;
};

/** Periodic worker liveness + idleness. */
struct HeartbeatMsg
{
    /** The lease queue is empty and nothing is running, decided under
     *  the lock that hands a lease to the runner: every Result owed
     *  went out before this heartbeat. */
    bool idle = false;
    /** Leases the worker has taken this session; the coordinator
     *  compares it with the Lease frames it sent. */
    std::uint64_t leasesTaken = 0;
};

std::string serializeHello(const HelloMsg &msg);
bool parseHello(const std::string &payload, HelloMsg &out);

std::string serializeWelcome(const WelcomeMsg &msg);
bool parseWelcome(const std::string &payload, WelcomeMsg &out);

std::string serializeHeartbeat(const HeartbeatMsg &msg);
bool parseHeartbeat(const std::string &payload, HeartbeatMsg &out);

std::string serializeLease(const ShardLease &lease);
bool parseLease(const std::string &payload, ShardLease &out);

/**
 * Reconstruct the runnable shard a lease describes. The returned
 * spec's preset name must equal lease.name — a mismatch means the two
 * ends disagree about genomeToPreset, and the worker answers the lease
 * with a HostCrash outcome rather than run the wrong configuration.
 */
ShardSpec leaseToSpec(const ShardLease &lease);

} // namespace drf::fleet

#endif // DRF_FLEET_PROTOCOL_HH
