/**
 * @file
 * Fleet wire framing v2: length-prefixed, CRC32C-checksummed typed
 * frames over a stream fd.
 *
 * One frame = u32 little-endian payload length, u8 message type, u32
 * little-endian CRC32C over (type byte ++ payload), then the payload
 * (UTF-8 JSON; Result frames carry a digest-stamped journal-format
 * shard record). The framing is deliberately dumb: everything
 * interesting lives in the JSON payloads (protocol.hh), and the framing
 * layer only guarantees that a reader sees whole, checksum-verified
 * frames or a structured failure:
 *
 *   - Eof: the peer closed (or died) cleanly between frames or mid-read;
 *   - Oversized: the length prefix claims more than kMaxFramePayload —
 *     garbage bytes, a desynced stream, or a protocol mismatch;
 *   - Corrupt: the frame arrived whole but its CRC32C does not match —
 *     a flipped bit on the wire, a torn-and-respliced stream, or a v1
 *     peer (whose 5-byte headers cannot checksum).
 *
 * Corrupt/Oversized mean the stream can no longer be trusted (framing
 * may be desynced); callers must treat the connection as dead — the
 * coordinator marks the worker dead and re-leases its shards, a worker
 * reconnects — rather than attempt to resynchronize. v1 peers are
 * additionally rejected by the versioned Hello handshake (protocol.hh).
 *
 * All I/O goes through the shared POSIX helpers (campaign/posix_io.hh)
 * for EINTR retry and full-write semantics; SIGPIPE is expected to be
 * ignored process-wide (io::ignoreSigpipe) so a dead peer surfaces as
 * EPIPE from write(), handled as a send failure.
 */

#ifndef DRF_FLEET_WIRE_HH
#define DRF_FLEET_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace drf::fleet
{

/** Frame types of the coordinator/worker protocol (protocol.hh). Type 6
 *  was the Steal frame of protocol v2 and stays unassigned. */
enum class MsgType : std::uint8_t
{
    Hello = 1,     ///< worker -> coordinator: introduce
    Welcome = 2,   ///< coordinator -> worker: supervision policy
    Lease = 3,     ///< coordinator -> worker: run this shard
    Result = 4,    ///< worker -> coordinator: journal record of a shard
    Heartbeat = 5, ///< worker -> coordinator: liveness + idleness
    Shutdown = 7,  ///< coordinator -> worker: campaign over, exit
};

const char *msgTypeName(MsgType type);

/** One decoded frame. */
struct Frame
{
    MsgType type = MsgType::Hello;
    std::string payload;
};

/** How receiving (or decoding) one frame ended. */
enum class WireStatus
{
    Ok,        ///< whole frame, checksum verified
    Eof,       ///< peer gone (EOF / read error / short read)
    Oversized, ///< length prefix beyond kMaxFramePayload
    Corrupt,   ///< CRC32C mismatch: stream poisoned, reconnect
};

/** Reject frames claiming more than this (corrupt length prefix). */
constexpr std::uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

/** v2 header: u32 len | u8 type | u32 crc32c(type ++ payload). */
constexpr std::size_t kFrameHeaderSize = 9;

/**
 * First frame byte whose corruption is *detectable* (the type byte).
 * Fault injectors must not touch bytes below this offset: a flipped
 * length prefix desyncs the stream into a stall instead of a checksum
 * failure. Everything from here on — type, CRC field, payload — turns
 * into WireStatus::Corrupt at the receiver.
 */
constexpr std::size_t kFrameMutableOffset = 4;

/** Render one frame (header + payload) ready for the wire. */
std::string encodeFrame(MsgType type, const std::string &payload);

/** Write pre-encoded frame bytes (the fault-injection seam). */
bool sendRawFrame(int fd, const std::string &frame);

/** Encode + write one frame; false on any write failure. */
bool sendFrame(int fd, MsgType type, const std::string &payload);

/**
 * Read one frame and verify its checksum. Blocks until a full frame
 * arrives (or the stream ends / desyncs).
 */
WireStatus recvFrameEx(int fd, Frame &out);

/** recvFrameEx collapsed to a bool (Ok only) for callers that treat
 *  every failure as "peer gone". */
bool recvFrame(int fd, Frame &out);

} // namespace drf::fleet

#endif // DRF_FLEET_WIRE_HH
