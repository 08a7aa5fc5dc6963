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
 * introduce themselves; a v2 peer speaking to a newer coordinator is
 * rejected here, at the Hello handshake.
 */
constexpr unsigned kProtocolVersion = 2;

/** Worker introduction (first frame on a new connection). */
struct HelloMsg
{
    unsigned protocolVersion = kProtocolVersion;
    std::string worker; ///< display name, e.g. "host:pid"
    std::uint64_t pid = 0;
    unsigned slots = 1; ///< concurrent shards this worker runs
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

/** Periodic worker liveness + progress. */
struct HeartbeatMsg
{
    std::uint64_t inflight = 0;  ///< leases held right now
    std::uint64_t completed = 0; ///< results sent so far
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
 * ends disagree about genomeToPreset and the worker must refuse the
 * lease rather than run the wrong configuration.
 */
ShardSpec leaseToSpec(const ShardLease &lease);

} // namespace drf::fleet

#endif // DRF_FLEET_PROTOCOL_HH
