#include "proto/directory.hh"

#include <algorithm>
#include <cassert>

#include "proto/protocol_error.hh"

namespace drf
{

const TransitionSpec &
Directory::spec()
{
    return table().spec();
}

const TransitionTable<Directory> &
Directory::table()
{
    using T = TransitionTable<Directory>;
    using D = Directory;
    static const T t = [] {
        T t("Directory", {"U", "CS", "CM", "B"},
            {"GpuFetch", "GpuWrMem", "GpuAtomic", "CpuGets", "CpuGetx",
             "CpuPutx", "DmaRead", "DmaWrite", "MemData", "MemWBAck",
             "CpuInvAck", "GpuInvAck"});
        // Every requestor event has a row in all three stable states and
        // in B (stall / AtomicND retry); completion events only in B.
        t.on(EvGpuFetch, StU, {&D::actGpuFetchClean}, StB)
            .on(EvGpuFetch, StCS, {&D::actGpuFetchClean}, StB)
            .on(EvGpuFetch, StCM, {&D::actGpuFetchOwned}, StB)
            .on(EvGpuFetch, StB, {&D::actRecycle}, StB)
            .on(EvGpuWrMem, StU, {&D::actGpuWriteClean}, StB)
            .on(EvGpuWrMem, StCS, {&D::actGpuWriteShared}, StB)
            .on(EvGpuWrMem, StCM, {&D::actGpuWriteOwned}, StB)
            .on(EvGpuWrMem, StB, {&D::actRecycle}, StB)
            .on(EvGpuAtomic, StU, {&D::actGpuAtomicClean}, StB)
            .on(EvGpuAtomic, StCS, {&D::actGpuAtomicShared}, StB)
            .on(EvGpuAtomic, StCM, {&D::actGpuAtomicOwned}, StB)
            .on(EvGpuAtomic, StB, {&D::actAtomicNack}, StB)
            .on(EvCpuGets, StU, {&D::actCpuGetsClean}, StB)
            .on(EvCpuGets, StCS, {&D::actCpuGetsClean}, StB)
            .on(EvCpuGets, StCM, {&D::actCpuGetsOwned}, StB)
            .on(EvCpuGets, StB, {&D::actRecycle}, StB)
            // Getx and Putx branch on the owner's identity (an upgrade by
            // the current owner degenerates to U; a Putx that lost to a
            // probe is stale), which a (state, event) row cannot express:
            // one action per stable state keeps that dynamic check.
            .on(EvCpuGetx, StU, {&D::actCpuGetx}, StB)
            .on(EvCpuGetx, StCS, {&D::actCpuGetx}, StB)
            .on(EvCpuGetx, StCM, {&D::actCpuGetx}, StB)
            .on(EvCpuGetx, StB, {&D::actRecycle}, StB)
            .on(EvCpuPutx, StU, {&D::actCpuPutx})
            .on(EvCpuPutx, StCS, {&D::actCpuPutx})
            .on(EvCpuPutx, StCM, {&D::actCpuPutx})
            .on(EvCpuPutx, StB, {&D::actRecycle}, StB)
            .on(EvDmaRead, StU, {&D::actDmaReadClean}, StB)
            .on(EvDmaRead, StCS, {&D::actDmaReadClean}, StB)
            .on(EvDmaRead, StCM, {&D::actDmaReadOwned}, StB)
            .on(EvDmaRead, StB, {&D::actRecycle}, StB)
            .on(EvDmaWrite, StU, {&D::actDmaWriteClean}, StB)
            .on(EvDmaWrite, StCS, {&D::actDmaWriteClean}, StB)
            .on(EvDmaWrite, StCM, {&D::actDmaWriteOwned}, StB)
            .on(EvDmaWrite, StB, {&D::actRecycle}, StB)
            .on(EvMemData, StB, {&D::actMemData})
            .on(EvMemWBAck, StB, {&D::actMemWBAck})
            .on(EvCpuInvAck, StB, {&D::actInvAck}, StB)
            .on(EvGpuInvAck, StB, {&D::actInvAck}, StB);

        // A single-GPU tester system has no CPU caches and no DMA
        // engine: every CPU/DMA-initiated cell, every cell requiring a
        // CPU-owned state, and the GPU-probe ack are unreachable.
        for (auto ev : {EvCpuGets, EvCpuGetx, EvCpuPutx, EvDmaRead,
                        EvDmaWrite}) {
            for (auto st : {StU, StCS, StCM, StB}) {
                t.markImpossible("gpu_tester", ev, st);
                t.markImpossible("gpu_tester_multi", ev, st);
            }
        }
        for (auto ev : {EvGpuFetch, EvGpuWrMem, EvGpuAtomic}) {
            for (auto tt : {"gpu_tester", "gpu_tester_multi"}) {
                t.markImpossible(tt, ev, StCS);
                t.markImpossible(tt, ev, StCM);
            }
        }
        t.markImpossible("gpu_tester", EvCpuInvAck, StB);
        t.markImpossible("gpu_tester", EvGpuInvAck, StB);
        // With several GPU L2s the directory probes remote L2s on GPU
        // writes and atomics, so GpuInvAck becomes reachable.
        t.markImpossible("gpu_tester_multi", EvCpuInvAck, StB);

        // A CPU-tester-only system has no GPU and no DMA engine.
        for (auto ev : {EvGpuFetch, EvGpuWrMem, EvGpuAtomic, EvDmaRead,
                        EvDmaWrite}) {
            for (auto st : {StU, StCS, StCM, StB})
                t.markImpossible("cpu_tester", ev, st);
        }
        t.markImpossible("cpu_tester", EvGpuInvAck, StB);

        // The union run (GPU tester then CPU tester, Section IV.C) still
        // never generates DMA traffic or concurrent CPU+GPU sharing.
        for (auto ev : {EvDmaRead, EvDmaWrite}) {
            for (auto st : {StU, StCS, StCM, StB})
                t.markImpossible("tester_union", ev, st);
        }
        for (auto ev : {EvGpuFetch, EvGpuWrMem, EvGpuAtomic}) {
            t.markImpossible("tester_union", ev, StCS);
            t.markImpossible("tester_union", ev, StCM);
        }
        t.markImpossible("tester_union", EvGpuInvAck, StB);
        return t;
    }();
    return t;
}

Directory::Directory(std::string name, EventQueue &eq,
                     const DirectoryConfig &cfg, Crossbar &xbar,
                     int endpoint, std::vector<int> gpu_l2_eps,
                     SimpleMemory &mem, FaultInjector *fault)
    : SimObject(std::move(name), eq), _cfg(cfg), _xbar(xbar),
      _endpoint(endpoint), _gpuL2Endpoints(std::move(gpu_l2_eps)),
      _mem(mem),
      _memPort(SimObject::name() + ".memport", eq, cfg.memPortLatency),
      _fault(fault), _coverage(spec()), _stats(SimObject::name()),
      _cRecycles(&_stats.counter("recycles")),
      _cCpuProbes(&_stats.counter("cpu_probes")),
      _cGpuProbes(&_stats.counter("gpu_probes")),
      _cAtomicNacks(&_stats.counter("atomic_nacks")),
      _cAtomics(&_stats.counter("atomics")),
      _cStalePutx(&_stats.counter("stale_putx"))
{
    _lines.reserve(256);
    xbar.attach(endpoint, *this);
    _memPort.bind(mem);
    mem.bindResponse([this](Packet &&pkt) { recvMsg(pkt); });
}

Directory::Line &
Directory::line(Addr line_addr)
{
    return _lines[line_addr];
}

Directory::State
Directory::visibleState(const Line &l) const
{
    return l.txn != nullptr ? StB : l.stable;
}

void
Directory::recycle(Packet &pkt)
{
    _cRecycles->inc();
    scheduleAfter(_cfg.recycleLatency,
                  [this, pkt]() mutable {
                      recvMsg(pkt);
                  });
}

Directory::Txn &
Directory::startTxn(Addr line_addr, Packet origin)
{
    Line &l = line(line_addr);
    assert(l.txn == nullptr && "transaction already in flight");
    if (_txnFree.empty()) {
        _txnPool.push_back(std::make_unique<Txn>());
        _txnFree.push_back(_txnPool.back().get());
    }
    Txn *t = _txnFree.back();
    _txnFree.pop_back();
    l.txn = t;
    t->origin = std::move(origin);
    return *t;
}

void
Directory::finishTxn(Addr line_addr)
{
    Line &l = line(line_addr);
    assert(l.txn != nullptr);
    Txn *t = l.txn;
    l.txn = nullptr;
    // Scrub before recycling; the PODs (origin, probeData, pendingResp)
    // are overwritten by the next startTxn, the functions must release
    // their captures now.
    t->pendingAcks = 0;
    t->haveProbeData = false;
    t->onAcks = nullptr;
    t->onMemData = nullptr;
    t->onMemWBAck = nullptr;
    _txnFree.push_back(t);
}

void
Directory::sendCpuProbes(Addr line_addr, const std::vector<int> &targets,
                         MsgType probe_type)
{
    Line &l = line(line_addr);
    assert(l.txn != nullptr);
    for (int target : targets) {
        Packet probe;
        probe.type = probe_type;
        probe.addr = line_addr;
        probe.issueTick = curTick();
        _xbar.route(_endpoint, target, std::move(probe));
        ++l.txn->pendingAcks;
        _cCpuProbes->inc();
    }
}

unsigned
Directory::sendGpuProbes(Addr line_addr, int exclude)
{
    Line &l = line(line_addr);
    assert(l.txn != nullptr);
    _probeScratch.clear();
    for (int target : l.gpuSharers) {
        if (target != exclude)
            _probeScratch.push_back(target);
    }
    for (int target : _probeScratch) {
        Packet probe;
        probe.type = MsgType::PrbInv;
        probe.addr = line_addr;
        probe.issueTick = curTick();
        _xbar.route(_endpoint, target, std::move(probe));
        ++l.txn->pendingAcks;
        _cGpuProbes->inc();
        l.gpuSharers.erase(target);
    }
    return static_cast<unsigned>(_probeScratch.size());
}

void
Directory::readMem(Addr line_addr)
{
    Packet req;
    req.type = MsgType::MemRead;
    req.addr = line_addr;
    req.issueTick = curTick();
    _memPort.send(std::move(req));
}

void
Directory::writeMem(Addr line_addr, const LineData &data, ByteMask mask)
{
    Packet req;
    req.type = MsgType::MemWrite;
    req.addr = line_addr;
    req.data = data;
    req.dataLen = static_cast<std::uint16_t>(_cfg.lineBytes);
    req.mask = mask;
    req.issueTick = curTick();
    _memPort.send(std::move(req));
}

std::uint64_t
Directory::applyAtomic(LineData &buf, Addr addr, unsigned size,
                       std::uint64_t operand) const
{
    Addr off = lineOffset(addr, _cfg.lineBytes);
    assert(off + size <= kLineBytes);
    std::uint64_t old = 0;
    for (unsigned i = 0; i < size; ++i)
        old |= static_cast<std::uint64_t>(buf[off + i]) << (8 * i);
    std::uint64_t updated = old + operand;
    for (unsigned i = 0; i < size; ++i)
        buf[off + i] = static_cast<std::uint8_t>(updated >> (8 * i));
    return old;
}

void
Directory::actRecycle(TransCtx &ctx)
{
    recycle(*ctx.pkt);
}

void
Directory::actGpuFetchOwned(TransCtx &ctx)
{
    // Pull the dirty data out of the CPU owner first.
    Addr la = ctx.line;
    Txn &t = startTxn(la, *ctx.pkt);
    int owner = line(la).owner;
    t.onAcks = [this, la] {
        Line &l2 = line(la);
        Txn &txn = *l2.txn;
        assert(txn.haveProbeData);
        writeMem(la, txn.probeData, fullLineMask);
        txn.onMemWBAck = [this, la] {
            Line &l3 = line(la);
            Txn &txn3 = *l3.txn;
            Packet resp;
            resp.type = MsgType::DirData;
            resp.addr = la;
            resp.id = txn3.origin.id;
            resp.setLine(txn3.probeData);
            int dst = txn3.origin.srcEndpoint;
            l3.sharers.insert(l3.owner);
            l3.owner = -1;
            l3.stable = StCS;
            l3.gpuSharers.insert(dst);
            finishTxn(la);
            _xbar.route(_endpoint, dst, std::move(resp));
        };
    };
    sendCpuProbes(la, {owner}, MsgType::CpuPrbDowngrade);
}

void
Directory::actGpuFetchClean(TransCtx &ctx)
{
    // U or CS: memory is current.
    Addr la = ctx.line;
    Txn &t = startTxn(la, *ctx.pkt);
    t.onMemData = [this, la](const LineData &data) {
        Line &l2 = line(la);
        Packet resp;
        resp.type = MsgType::DirData;
        resp.addr = la;
        resp.id = l2.txn->origin.id;
        resp.setLine(data);
        int dst = l2.txn->origin.srcEndpoint;
        l2.gpuSharers.insert(dst);
        finishTxn(la);
        _xbar.route(_endpoint, dst, std::move(resp));
    };
    readMem(la);
}

void
Directory::gpuWriteAndAck(Addr la, const LineData &data, ByteMask mask)
{
    line(la).txn->onMemWBAck = [this, la] {
        Line &l3 = line(la);
        Packet resp;
        resp.type = MsgType::DirWBAck;
        resp.addr = la;
        resp.id = l3.txn->origin.id;
        int dst = l3.txn->origin.srcEndpoint;
        finishTxn(la);
        _xbar.route(_endpoint, dst, std::move(resp));
    };
    writeMem(la, data, mask);
}

void
Directory::actGpuWriteOwned(TransCtx &ctx)
{
    // Invalidate the CPU owner, merge the GPU bytes over its data.
    Addr la = ctx.line;
    int requester = ctx.pkt->srcEndpoint;
    startTxn(la, std::move(*ctx.pkt));
    Txn &t = *line(la).txn;
    int owner = line(la).owner;
    t.onAcks = [this, la] {
        Line &l2 = line(la);
        Txn &txn = *l2.txn;
        assert(txn.haveProbeData);
        LineData buf = txn.probeData;
        for (unsigned i = 0; i < _cfg.lineBytes; ++i) {
            if (maskTest(txn.origin.mask, i))
                buf[i] = txn.origin.data[i];
        }
        l2.owner = -1;
        l2.sharers.clear();
        l2.stable = StU;
        gpuWriteAndAck(la, buf, fullLineMask);
    };
    sendCpuProbes(la, {owner}, MsgType::CpuPrbInv);
    sendGpuProbes(la, requester);
}

void
Directory::actGpuWriteShared(TransCtx &ctx)
{
    // CPU shared copies would go stale: invalidate them first.
    Addr la = ctx.line;
    int requester = ctx.pkt->srcEndpoint;
    startTxn(la, std::move(*ctx.pkt));
    Txn &t = *line(la).txn;
    std::vector<int> targets(line(la).sharers.begin(),
                             line(la).sharers.end());
    t.onAcks = [this, la] {
        Line &l2 = line(la);
        l2.sharers.clear();
        l2.stable = StU;
        gpuWriteAndAck(la, l2.txn->origin.data, l2.txn->origin.mask);
    };
    sendCpuProbes(la, targets, MsgType::CpuPrbInv);
    sendGpuProbes(la, requester);
}

void
Directory::actGpuWriteClean(TransCtx &ctx)
{
    // U: remote GPU L2s may still hold stale clean copies (multi-GPU
    // systems); invalidate them before the write becomes visible.
    Addr la = ctx.line;
    int requester = ctx.pkt->srcEndpoint;
    startTxn(la, std::move(*ctx.pkt));
    Txn &t = *line(la).txn;
    unsigned probes = sendGpuProbes(la, requester);
    if (probes > 0) {
        t.onAcks = [this, la] {
            Line &l2 = line(la);
            gpuWriteAndAck(la, l2.txn->origin.data, l2.txn->origin.mask);
        };
        return;
    }
    gpuWriteAndAck(la, t.origin.data, t.origin.mask);
}

void
Directory::actAtomicNack(TransCtx &ctx)
{
    // Atomics are not stalled; the L2 gets a retry nack.
    Packet &pkt = *ctx.pkt;
    Packet nack;
    nack.type = MsgType::AtomicND;
    nack.addr = pkt.addr;
    nack.id = pkt.id;
    _cAtomicNacks->inc();
    _xbar.route(_endpoint, pkt.srcEndpoint, std::move(nack));
}

void
Directory::atomicRmw(Addr la, LineData buf)
{
    Line &l2 = line(la);
    Txn &txn = *l2.txn;
    std::uint64_t old = applyAtomic(buf, txn.origin.addr,
                                    txn.origin.size,
                                    txn.origin.atomicOperand);
    _cAtomics->inc();

    Packet resp;
    resp.type = MsgType::AtomicD;
    resp.addr = txn.origin.addr;
    resp.id = txn.origin.id;
    resp.atomicResult = old;
    resp.setLine(buf);
    int dst = txn.origin.srcEndpoint;

    if (_fault != nullptr && _fault->fire(FaultKind::NonAtomicRmw)) {
        // The read-modify-write loses its write: memory keeps the old
        // value, so a racing atomic will observe a duplicate.
        _stats.counter("injected_lost_atomics").inc();
        l2.gpuSharers.insert(dst);
        finishTxn(la);
        _xbar.route(_endpoint, dst, std::move(resp));
        return;
    }

    // Park the response on the Txn rather than in the capture: a
    // Packet-sized capture would push this std::function off its
    // small buffer and heap-allocate on the atomic hot path.
    txn.pendingResp = resp;
    txn.onMemWBAck = [this, la] {
        Line &l3 = line(la);
        Packet done = l3.txn->pendingResp;
        int dst2 = l3.txn->origin.srcEndpoint;
        l3.gpuSharers.insert(dst2); // the L2 caches the result line
        finishTxn(la);
        _xbar.route(_endpoint, dst2, std::move(done));
    };
    writeMem(la, buf, fullLineMask);
}

void
Directory::actGpuAtomicOwned(TransCtx &ctx)
{
    Addr la = ctx.line;
    int requester = ctx.pkt->srcEndpoint;
    // The requesting L2 dropped its own copy before forwarding.
    line(la).gpuSharers.erase(requester);
    startTxn(la, std::move(*ctx.pkt));
    Txn &t = *line(la).txn;
    int owner = line(la).owner;
    t.onAcks = [this, la] {
        Line &l2 = line(la);
        Txn &txn = *l2.txn;
        assert(txn.haveProbeData);
        l2.owner = -1;
        l2.sharers.clear();
        l2.stable = StU;
        atomicRmw(la, txn.probeData);
    };
    sendCpuProbes(la, {owner}, MsgType::CpuPrbInv);
    sendGpuProbes(la, requester);
}

void
Directory::actGpuAtomicShared(TransCtx &ctx)
{
    Addr la = ctx.line;
    int requester = ctx.pkt->srcEndpoint;
    line(la).gpuSharers.erase(requester);
    startTxn(la, std::move(*ctx.pkt));
    Txn &t = *line(la).txn;
    std::vector<int> targets(line(la).sharers.begin(),
                             line(la).sharers.end());
    t.onAcks = [this, la] {
        Line &l2 = line(la);
        l2.sharers.clear();
        l2.stable = StU;
        l2.txn->onMemData = [this, la](const LineData &data) {
            atomicRmw(la, data);
        };
        readMem(la);
    };
    sendCpuProbes(la, targets, MsgType::CpuPrbInv);
    sendGpuProbes(la, requester);
}

void
Directory::actGpuAtomicClean(TransCtx &ctx)
{
    Addr la = ctx.line;
    int requester = ctx.pkt->srcEndpoint;
    line(la).gpuSharers.erase(requester);
    startTxn(la, std::move(*ctx.pkt));
    Txn &t = *line(la).txn;
    unsigned probes = sendGpuProbes(la, requester);
    if (probes > 0) {
        t.onAcks = [this, la] {
            line(la).txn->onMemData = [this, la](const LineData &data) {
                atomicRmw(la, data);
            };
            readMem(la);
        };
        return;
    }
    t.onMemData = [this, la](const LineData &data) { atomicRmw(la, data); };
    readMem(la);
}

void
Directory::grantShared(Addr la, const LineData &data)
{
    Line &l2 = line(la);
    Packet resp;
    resp.type = MsgType::CpuData;
    resp.addr = la;
    resp.id = l2.txn->origin.id;
    resp.grant = 1;
    resp.setLine(data);
    int dst = l2.txn->origin.srcEndpoint;
    l2.sharers.insert(dst);
    l2.stable = StCS;
    finishTxn(la);
    _xbar.route(_endpoint, dst, std::move(resp));
}

void
Directory::actCpuGetsOwned(TransCtx &ctx)
{
    Addr la = ctx.line;
    startTxn(la, std::move(*ctx.pkt));
    Txn &t = *line(la).txn;
    int owner = line(la).owner;
    t.onAcks = [this, la] {
        Line &l2 = line(la);
        Txn &txn = *l2.txn;
        assert(txn.haveProbeData);
        LineData data = txn.probeData;
        l2.sharers.insert(l2.owner);
        l2.owner = -1;
        txn.onMemWBAck = [this, la, data] { grantShared(la, data); };
        writeMem(la, data, fullLineMask);
    };
    sendCpuProbes(la, {owner}, MsgType::CpuPrbDowngrade);
}

void
Directory::actCpuGetsClean(TransCtx &ctx)
{
    Addr la = ctx.line;
    startTxn(la, std::move(*ctx.pkt));
    Txn &t = *line(la).txn;
    t.onMemData = [this, la](const LineData &data) {
        grantShared(la, data);
    };
    readMem(la);
}

void
Directory::grantExclusive(Addr la, const LineData &data)
{
    Line &l2 = line(la);
    Packet resp;
    resp.type = MsgType::CpuData;
    resp.addr = la;
    resp.id = l2.txn->origin.id;
    resp.grant = 2;
    resp.setLine(data);
    int dst = l2.txn->origin.srcEndpoint;
    l2.sharers.clear();
    l2.owner = dst;
    l2.stable = StCM;
    finishTxn(la);
    _xbar.route(_endpoint, dst, std::move(resp));
}

void
Directory::actCpuGetx(TransCtx &ctx)
{
    Addr la = ctx.line;
    Packet &pkt = *ctx.pkt;
    State st = line(la).stable;
    int requester = pkt.srcEndpoint;
    startTxn(la, std::move(pkt));
    Txn &t = *line(la).txn;
    Line &l = line(la);

    bool drop_gpu_probe =
        !l.gpuSharers.empty() && _fault != nullptr &&
        _fault->fire(FaultKind::DropGpuProbe);
    if (drop_gpu_probe) {
        // The directory forgets the GPU L2s may hold this line.
        _stats.counter("injected_dropped_probes").inc();
        l.gpuSharers.clear();
    }

    if (st == StCM && l.owner != requester) {
        int owner = l.owner;
        t.onAcks = [this, la] {
            Line &l2 = line(la);
            Txn &txn = *l2.txn;
            assert(txn.haveProbeData);
            grantExclusive(la, txn.probeData);
        };
        sendCpuProbes(la, {owner}, MsgType::CpuPrbInv);
        sendGpuProbes(la);
        return;
    }

    // U or CS (or degenerate CM-with-owner==requester, which resolves
    // like U because memory was made current when ownership was granted).
    std::vector<int> targets;
    for (int sharer : l.sharers) {
        if (sharer != requester)
            targets.push_back(sharer);
    }
    t.onAcks = [this, la] {
        line(la).txn->onMemData = [this, la](const LineData &data) {
            grantExclusive(la, data);
        };
        readMem(la);
    };
    sendCpuProbes(la, targets, MsgType::CpuPrbInv);
    sendGpuProbes(la);
    if (line(la).txn->pendingAcks == 0)
        t.onAcks();
}

void
Directory::actCpuPutx(TransCtx &ctx)
{
    Addr la = ctx.line;
    Packet &pkt = *ctx.pkt;
    Line &l = line(la);
    if (l.stable != StCM || l.owner != pkt.srcEndpoint) {
        // Stale writeback: a probe raced past it and took the data. Ack
        // without touching memory or state.
        _cStalePutx->inc();
        Packet ack;
        ack.type = MsgType::CpuWBAck;
        ack.addr = la;
        ack.id = pkt.id;
        _xbar.route(_endpoint, pkt.srcEndpoint, std::move(ack));
        return;
    }

    startTxn(la, std::move(pkt));
    Txn &t = *line(la).txn;
    t.onMemWBAck = [this, la] {
        Line &l2 = line(la);
        Packet ack;
        ack.type = MsgType::CpuWBAck;
        ack.addr = la;
        ack.id = l2.txn->origin.id;
        int dst = l2.txn->origin.srcEndpoint;
        l2.owner = -1;
        l2.stable = StU;
        finishTxn(la);
        _xbar.route(_endpoint, dst, std::move(ack));
    };
    writeMem(la, t.origin.data, fullLineMask);
}

void
Directory::dmaReadRespond(Addr la, const LineData &data)
{
    Line &l2 = line(la);
    Packet resp;
    resp.type = MsgType::DmaReadResp;
    resp.addr = la;
    resp.id = l2.txn->origin.id;
    resp.setLine(data);
    int dst = l2.txn->origin.srcEndpoint;
    finishTxn(la);
    _xbar.route(_endpoint, dst, std::move(resp));
}

void
Directory::actDmaReadOwned(TransCtx &ctx)
{
    Addr la = ctx.line;
    startTxn(la, std::move(*ctx.pkt));
    Txn &t = *line(la).txn;
    int owner = line(la).owner;
    t.onAcks = [this, la] {
        Line &l2 = line(la);
        Txn &txn = *l2.txn;
        assert(txn.haveProbeData);
        LineData data = txn.probeData;
        l2.sharers.insert(l2.owner);
        l2.owner = -1;
        l2.stable = StCS;
        txn.onMemWBAck = [this, la, data] { dmaReadRespond(la, data); };
        writeMem(la, data, fullLineMask);
    };
    sendCpuProbes(la, {owner}, MsgType::CpuPrbDowngrade);
}

void
Directory::actDmaReadClean(TransCtx &ctx)
{
    Addr la = ctx.line;
    startTxn(la, std::move(*ctx.pkt));
    Txn &t = *line(la).txn;
    t.onMemData = [this, la](const LineData &data) {
        dmaReadRespond(la, data);
    };
    readMem(la);
}

void
Directory::dmaWriteAndRespond(Addr la, const LineData &data, ByteMask mask)
{
    line(la).txn->onMemWBAck = [this, la] {
        Line &l3 = line(la);
        Packet resp;
        resp.type = MsgType::DmaWriteResp;
        resp.addr = la;
        resp.id = l3.txn->origin.id;
        int dst = l3.txn->origin.srcEndpoint;
        finishTxn(la);
        _xbar.route(_endpoint, dst, std::move(resp));
    };
    writeMem(la, data, mask);
}

void
Directory::actDmaWriteOwned(TransCtx &ctx)
{
    Addr la = ctx.line;
    startTxn(la, std::move(*ctx.pkt));
    Txn &t = *line(la).txn;
    int owner = line(la).owner;
    t.onAcks = [this, la] {
        Line &l2 = line(la);
        Txn &txn = *l2.txn;
        assert(txn.haveProbeData);
        LineData buf = txn.probeData;
        for (unsigned i = 0; i < _cfg.lineBytes; ++i) {
            if (maskTest(txn.origin.mask, i))
                buf[i] = txn.origin.data[i];
        }
        l2.owner = -1;
        l2.sharers.clear();
        l2.stable = StU;
        dmaWriteAndRespond(la, buf, fullLineMask);
    };
    sendCpuProbes(la, {owner}, MsgType::CpuPrbInv);
    sendGpuProbes(la);
}

void
Directory::actDmaWriteClean(TransCtx &ctx)
{
    Addr la = ctx.line;
    startTxn(la, std::move(*ctx.pkt));
    Txn &t = *line(la).txn;
    std::vector<int> targets(line(la).sharers.begin(),
                             line(la).sharers.end());
    t.onAcks = [this, la] {
        Line &l2 = line(la);
        l2.sharers.clear();
        l2.stable = StU;
        dmaWriteAndRespond(la, l2.txn->origin.data, l2.txn->origin.mask);
    };
    sendCpuProbes(la, targets, MsgType::CpuPrbInv);
    sendGpuProbes(la);
    if (line(la).txn->pendingAcks == 0)
        t.onAcks();
}

void
Directory::actMemData(TransCtx &ctx)
{
    Line &l = line(ctx.line);
    assert(l.txn->onMemData && "unexpected MemData");
    auto fn = std::move(l.txn->onMemData);
    l.txn->onMemData = nullptr;
    fn(ctx.pkt->data);
}

void
Directory::actMemWBAck(TransCtx &ctx)
{
    Line &l = line(ctx.line);
    assert(l.txn->onMemWBAck && "unexpected MemWBAck");
    auto fn = std::move(l.txn->onMemWBAck);
    l.txn->onMemWBAck = nullptr;
    fn();
}

void
Directory::actInvAck(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    Txn &t = *line(ctx.line).txn;
    if (pkt.hasData()) {
        t.probeData = pkt.data;
        t.haveProbeData = true;
    }
    assert(t.pendingAcks > 0);
    if (--t.pendingAcks == 0) {
        assert(t.onAcks && "acks drained with no continuation");
        auto fn = std::move(t.onAcks);
        t.onAcks = nullptr;
        fn();
    }
}

void
Directory::recvMsg(Packet &pkt)
{
    Event ev;
    switch (pkt.type) {
      case MsgType::FetchBlk: ev = EvGpuFetch; break;
      case MsgType::WrMem: ev = EvGpuWrMem; break;
      case MsgType::DirAtomic: ev = EvGpuAtomic; break;
      case MsgType::Gets: ev = EvCpuGets; break;
      case MsgType::Getx: ev = EvCpuGetx; break;
      case MsgType::Putx: ev = EvCpuPutx; break;
      case MsgType::DmaRead: ev = EvDmaRead; break;
      case MsgType::DmaWrite: ev = EvDmaWrite; break;
      case MsgType::MemData: ev = EvMemData; break;
      case MsgType::MemWBAck: ev = EvMemWBAck; break;
      case MsgType::CpuInvAck: ev = EvCpuInvAck; break;
      case MsgType::InvAck: ev = EvGpuInvAck; break;
      default:
        throw ProtocolError(name(), curTick(),
                            std::string("unexpected message ") +
                                msgTypeName(pkt.type));
    }
    TransCtx ctx;
    ctx.pkt = &pkt;
    ctx.line = lineAlign(pkt.addr, _cfg.lineBytes);
    // A completion (memory response or probe ack) with no transaction in
    // flight finds the line stable, and those rows exist only in B: the
    // table raises the protocol error.
    table().fireWith(*this, ev, visibleState(line(ctx.line)), ctx,
                     [&pkt] { return pkt.describe(); });
}

} // namespace drf
