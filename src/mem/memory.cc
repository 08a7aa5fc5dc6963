#include "mem/memory.hh"

#include <cassert>


namespace drf
{

SimpleMemory::SimpleMemory(std::string name, EventQueue &eq,
                           unsigned line_bytes, Tick latency)
    : SimObject(std::move(name), eq), _lineBytes(line_bytes),
      _latency(latency), _stats(SimObject::name()),
      _cReads(&_stats.counter("reads")),
      _cWrites(&_stats.counter("writes"))
{
    _store.reserve(1024);
}

LineData &
SimpleMemory::line(Addr line_addr)
{
    // operator[] value-initializes (zeroes) a fresh line.
    return _store[line_addr];
}

void
SimpleMemory::recvMsg(Packet &pkt)
{
    assert(_respond && "memory response callback not bound");
    assert(lineAlign(pkt.addr, _lineBytes) == pkt.addr &&
           "memory accessed at non-line granularity");

    // The request packet is turned into the response in place; the only
    // copy is the one into the response closure.
    if (pkt.type == MsgType::MemRead) {
        _cReads->inc();
        pkt.type = MsgType::MemData;
        pkt.setLine(line(pkt.addr));
    } else if (pkt.type == MsgType::MemWrite) {
        _cWrites->inc();
        LineData &stored = line(pkt.addr);
        assert(pkt.dataLen == _lineBytes);
        for (unsigned i = 0; i < _lineBytes; ++i) {
            if (maskTest(pkt.mask, i))
                stored[i] = pkt.data[i];
        }
        pkt.type = MsgType::MemWBAck;
        pkt.clearData();
    } else {
        assert(false && "unexpected message type at memory");
        return;
    }
    scheduleAfter(_latency, [this, resp = pkt]() mutable {
        _respond(std::move(resp));
    });
}

LineData
SimpleMemory::peekLine(Addr line_addr) const
{
    const LineData *stored = _store.find(line_addr);
    if (stored == nullptr)
        return LineData{};
    return *stored;
}

void
SimpleMemory::pokeBytes(Addr addr, const std::vector<std::uint8_t> &bytes)
{
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        Addr byte_addr = addr + i;
        Addr base = lineAlign(byte_addr, _lineBytes);
        line(base)[lineOffset(byte_addr, _lineBytes)] = bytes[i];
    }
}

} // namespace drf
