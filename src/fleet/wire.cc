#include "fleet/wire.hh"

#include "campaign/posix_io.hh"
#include "chaos/chaos.hh"

namespace drf::fleet
{

namespace
{

std::uint32_t
frameCrc(MsgType type, const char *payload, std::size_t len)
{
    unsigned char type_byte = static_cast<unsigned char>(type);
    std::uint32_t crc = chaos::crc32c(&type_byte, 1);
    return chaos::crc32c(payload, len, crc);
}

void
putU32le(std::string &out, std::uint32_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t
getU32le(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

} // namespace

const char *
msgTypeName(MsgType type)
{
    switch (type) {
      case MsgType::Hello: return "hello";
      case MsgType::Welcome: return "welcome";
      case MsgType::Lease: return "lease";
      case MsgType::Result: return "result";
      case MsgType::Heartbeat: return "heartbeat";
      case MsgType::Shutdown: return "shutdown";
    }
    return "?";
}

std::string
encodeFrame(MsgType type, const std::string &payload)
{
    std::string frame;
    frame.reserve(kFrameHeaderSize + payload.size());
    putU32le(frame, static_cast<std::uint32_t>(payload.size()));
    frame.push_back(static_cast<char>(type));
    putU32le(frame, frameCrc(type, payload.data(), payload.size()));
    frame.append(payload);
    return frame;
}

bool
sendRawFrame(int fd, const std::string &frame)
{
    return io::writeAll(fd, frame);
}

bool
sendFrame(int fd, MsgType type, const std::string &payload)
{
    if (payload.size() > kMaxFramePayload)
        return false;
    // One buffer, one writeAll: frames from concurrent senders must
    // not interleave mid-frame (senders still serialize per-fd).
    return sendRawFrame(fd, encodeFrame(type, payload));
}

WireStatus
recvFrameEx(int fd, Frame &out)
{
    unsigned char head[kFrameHeaderSize];
    if (!io::readExact(fd, head, sizeof(head)))
        return WireStatus::Eof;
    std::uint32_t len = getU32le(head);
    if (len > kMaxFramePayload)
        return WireStatus::Oversized;
    MsgType type = static_cast<MsgType>(head[4]);
    std::uint32_t want_crc = getU32le(head + 5);
    std::string payload(len, '\0');
    if (len != 0 && !io::readExact(fd, payload.data(), len))
        return WireStatus::Eof;
    if (frameCrc(type, payload.data(), payload.size()) != want_crc)
        return WireStatus::Corrupt;
    out.type = type;
    out.payload = std::move(payload);
    return WireStatus::Ok;
}

bool
recvFrame(int fd, Frame &out)
{
    return recvFrameEx(fd, out) == WireStatus::Ok;
}

} // namespace drf::fleet
