#include "proto/gpu_l1.hh"

#include <cassert>

#include "proto/protocol_error.hh"

namespace drf
{

const TransitionSpec &
GpuL1Cache::spec()
{
    return tableFor(ProtocolKind::Viper).spec();
}

const TransitionSpec &
GpuL1Cache::specFor(ProtocolKind kind)
{
    return tableFor(kind).spec();
}

const TransitionTable<GpuL1Cache> &
GpuL1Cache::tableFor(ProtocolKind kind)
{
    using T = TransitionTable<GpuL1Cache>;
    using L1 = GpuL1Cache;
    static const T viper = [] {
        T t("GPU-L1", {"I", "V", "A"},
            {"Load", "StoreThrough", "Atomic", "TCC_Ack", "TCC_AckWB",
             "Evict", "Repl"});
        t.on(EvLoad, StI, {&L1::actLoadMiss}, StA)
            .on(EvLoad, StV, {&L1::actLoadHit}, StV)
            .on(EvLoad, StA, {&L1::actStall}, StA)
            .on(EvStoreThrough, StI, {&L1::actStoreThroughIssue}, StI)
            .on(EvStoreThrough, StV,
                {&L1::actStoreLocal, &L1::actStoreThroughIssue}, StV)
            .on(EvStoreThrough, StA, {&L1::actStall}, StA)
            .on(EvAtomic, StI, {&L1::actAtomicForward}, StA)
            .on(EvAtomic, StV,
                {&L1::actAtomicInvalidate, &L1::actAtomicForward}, StA)
            .on(EvAtomic, StA, {&L1::actStall}, StA)
            // TCC_Ack only ever matches an MSHR.
            .on(EvTccAck, StA, {&L1::actFillOrComplete})
            // TCC_AckWB can find the line in any state (no-allocate
            // stores).
            .on(EvTccAckWB, StI, {&L1::actCompleteWriteThrough}, StI)
            .on(EvTccAckWB, StV, {&L1::actCompleteWriteThrough}, StV)
            .on(EvTccAckWB, StA, {&L1::actCompleteWriteThrough}, StA)
            // Evict (acquire flash-invalidation) sweeps whatever is
            // present.
            .on(EvEvict, StI, {}, StI)
            .on(EvEvict, StV, {&L1::actInvalidateEntry}, StI)
            .on(EvEvict, StA, {}, StA)
            // Repl only ever victimizes a valid clean line.
            .on(EvRepl, StV, {&L1::actReplaceVictim}, StI);
        return t;
    }();
    static const T lrcc = [] {
        T t("GPU-L1-LRCC", {"I", "V", "A", "O", "M"},
            {"Load", "Store", "Atomic", "TCC_Ack", "TCC_AckWB", "Evict",
             "Repl", "WB"});
        t.on(EvLoad, StI, {&L1::actLoadMiss}, StA)
            .on(EvLoad, StV, {&L1::actLoadHit}, StV)
            .on(EvLoad, StO, {&L1::actLoadHit}, StO)
            .on(EvLoad, StM, {&L1::actLoadHit}, StM)
            .on(EvLoad, StA, {&L1::actStall}, StA)
            .on(EvStoreThrough, StI, {&L1::actStoreAllocMiss}, StA)
            .on(EvStoreThrough, StV, {&L1::actStoreLocalLrcc}, StM)
            .on(EvStoreThrough, StO, {&L1::actStoreLocalLrcc}, StM)
            .on(EvStoreThrough, StM, {&L1::actStoreLocalLrcc}, StM)
            .on(EvStoreThrough, StA, {&L1::actStall}, StA)
            .on(EvAtomic, StI, {&L1::actAtomicForward}, StA)
            .on(EvAtomic, StV,
                {&L1::actAtomicInvalidate, &L1::actAtomicForward}, StA)
            .on(EvAtomic, StO,
                {&L1::actAtomicInvalidate, &L1::actAtomicForward}, StA)
            .on(EvAtomic, StM,
                {&L1::actWritebackEntry, &L1::actAtomicInvalidate,
                 &L1::actAtomicForward},
                StA)
            .on(EvAtomic, StA, {&L1::actStall}, StA)
            .on(EvTccAck, StA, {&L1::actFillOrCompleteLrcc})
            .on(EvTccAckWB, StI, {&L1::actCompleteWriteThrough}, StI)
            .on(EvTccAckWB, StV, {&L1::actCompleteWriteThrough}, StV)
            .on(EvTccAckWB, StA, {&L1::actCompleteWriteThrough}, StA)
            .on(EvTccAckWB, StO, {&L1::actCompleteWriteThrough}, StO)
            .on(EvTccAckWB, StM, {&L1::actCompleteWriteThrough}, StM)
            .on(EvEvict, StI, {}, StI)
            .on(EvEvict, StV, {&L1::actInvalidateEntry}, StI)
            .on(EvEvict, StO, {&L1::actInvalidateEntry}, StI)
            .on(EvEvict, StM,
                {&L1::actWritebackEntry, &L1::actInvalidateEntry}, StI)
            .on(EvEvict, StA, {}, StA)
            // Repl victimizes any stable resident line.
            .on(EvRepl, StV, {&L1::actReplaceVictim}, StI)
            .on(EvRepl, StO, {&L1::actReplaceVictim}, StI)
            .on(EvRepl, StM,
                {&L1::actWritebackEntry, &L1::actReplaceVictim}, StI)
            // WB: release/acquire write-back demotes M to O.
            .on(EvWB, StM, {&L1::actWritebackToOwned}, StO);
        return t;
    }();
    return kind == ProtocolKind::Lrcc ? lrcc : viper;
}

GpuL1Cache::GpuL1Cache(std::string name, EventQueue &eq,
                       const GpuL1Config &cfg, Crossbar &xbar, int endpoint,
                       int l2_ep, FaultInjector *fault)
    : SimObject(std::move(name), eq), _cfg(cfg), _xbar(xbar),
      _endpoint(endpoint), _l2Endpoint(l2_ep), _fault(fault),
      _table(&tableFor(cfg.protocol)),
      _array(cfg.sizeBytes, cfg.assoc, cfg.lineBytes),
      _coverage(specFor(cfg.protocol)),
      _stats(SimObject::name()),
      _cRecycles(&_stats.counter("recycles")),
      _cLoadHits(&_stats.counter("load_hits")),
      _cLoadMisses(&_stats.counter("load_misses")),
      _cWriteThroughs(&_stats.counter("write_throughs")),
      _cAtomics(&_stats.counter("atomics")),
      _cFlashInvalidates(&_stats.counter("flash_invalidates")),
      _cReplacements(&_stats.counter("replacements"))
{
    _tbes.reserve(64);
    _pendingWT.reserve(64);
    xbar.attach(endpoint, *this);
}

GpuL1Cache::State
GpuL1Cache::lineState(Addr line_addr) const
{
    if (_tbes.contains(line_addr))
        return StA;
    if (const CacheEntry *entry = _array.findEntry(line_addr))
        return entryState(*entry);
    return StI;
}

GpuL1Cache::State
GpuL1Cache::entryState(const CacheEntry &entry) const
{
    if (_cfg.protocol == ProtocolKind::Viper)
        return StV;
    switch (entry.state) {
      case kLineOwned: return StO;
      case kLineDirty: return StM;
      default: return StV;
    }
}

void
GpuL1Cache::transition(Event ev, State st)
{
    recordTransition(_trace, curTick(), _endpoint, ev, st);
    _coverage.hit(ev, st);
}

void
GpuL1Cache::recycle(Packet &pkt)
{
    _cRecycles->inc();
    scheduleAfter(_cfg.recycleLatency,
                  [this, pkt]() mutable {
                      coreRequest(std::move(pkt));
                  });
}

void
GpuL1Cache::coreRequest(Packet pkt)
{
    assert(_respond && "core response path not bound");

    // Release semantics: make prior stores globally visible before the
    // releasing access proceeds. A CTA-scope release stops at the
    // CU-local L1 (the workgroup's coherence point): nothing to drain.
    if (pkt.release && pkt.scope != Scope::Cta) {
        if (_cfg.protocol == ProtocolKind::Lrcc)
            writebackAllDirty();
        if (_outstandingWT > 0) {
            _releaseQueue.push_back(pkt);
            return;
        }
    }

    // Acquire semantics: flash-invalidate before performing the access
    // (LRCC first preserves local dirty data by writing it back). A
    // CTA-scope acquire keeps the CU-local contents — they are at least
    // as fresh as the CTA's own synchronization requires.
    if (pkt.acquire && pkt.scope != Scope::Cta) {
        if (_fault == nullptr ||
            !_fault->fire(FaultKind::DropAcquireInvalidate)) {
            if (_cfg.protocol == ProtocolKind::Lrcc)
                writebackAllDirty();
            flashInvalidate();
        }
    }

    recvMsg(pkt);
}

void
GpuL1Cache::actStall(TransCtx &ctx)
{
    // A miss or atomic is outstanding for this line: stall.
    ctx.pkt->acquire = false; // the flash-invalidate already happened
    recycle(*ctx.pkt);
}

void
GpuL1Cache::actLoadHit(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    CacheEntry *entry = _array.findEntry(ctx.line);
    _array.touch(*entry);
    _cLoadHits->inc();
    Packet resp = pkt;
    resp.type = MsgType::LoadResp;
    resp.setData(entry->data.data() +
                     lineOffset(pkt.addr, _cfg.lineBytes),
                 pkt.size);
    scheduleAfter(_cfg.hitLatency, [this, resp]() mutable {
        _respond(std::move(resp));
    });
}

void
GpuL1Cache::actLoadMiss(TransCtx &ctx)
{
    // Miss: allocate an MSHR and fetch from the L2.
    Packet &pkt = *ctx.pkt;
    _cLoadMisses->inc();
    Tbe tbe;
    tbe.isAtomic = false;
    tbe.corePkt = pkt;
    _tbes.emplace(ctx.line, std::move(tbe));

    Packet req;
    req.type = MsgType::RdBlk;
    req.addr = ctx.line;
    req.id = _nextId++;
    req.requestor = pkt.requestor;
    req.issueTick = curTick();
    _xbar.route(_endpoint, _l2Endpoint, std::move(req));
}

void
GpuL1Cache::actStoreLocal(TransCtx &ctx)
{
    // Perform the store locally with per-byte dirty bits; the paired
    // actStoreThroughIssue writes it through.
    Packet &pkt = *ctx.pkt;
    assert(pkt.dataLen == pkt.size);
    CacheEntry *entry = _array.findEntry(ctx.line);
    _array.touch(*entry);
    Addr off = lineOffset(pkt.addr, _cfg.lineBytes);
    for (unsigned i = 0; i < pkt.size; ++i) {
        entry->data[off + i] = pkt.data[i];
        entry->dirty |= maskBit(off + i);
    }
}

void
GpuL1Cache::actStoreThroughIssue(TransCtx &ctx)
{
    // Build the line-granularity write-through message.
    Packet &pkt = *ctx.pkt;
    assert(pkt.dataLen == pkt.size);
    Packet wt;
    wt.type = MsgType::WrThrough;
    wt.addr = ctx.line;
    wt.id = _nextId++;
    wt.requestor = pkt.requestor;
    wt.issueTick = curTick();
    wt.dataLen = static_cast<std::uint16_t>(_cfg.lineBytes);
    Addr off = lineOffset(pkt.addr, _cfg.lineBytes);
    for (unsigned i = 0; i < pkt.size; ++i) {
        wt.data[off + i] = pkt.data[i];
        wt.mask |= maskBit(off + i);
    }

    _pendingWT.emplace(wt.id, pkt);
    ++_outstandingWT;
    _cWriteThroughs->inc();
    _xbar.route(_endpoint, _l2Endpoint, std::move(wt));
}

void
GpuL1Cache::actStoreLocalLrcc(TransCtx &ctx)
{
    // LRCC write-back store: dirty the line locally (M) and complete
    // at the L1; visibility is deferred to the next release/acquire
    // write-back.
    Packet &pkt = *ctx.pkt;
    assert(pkt.dataLen == pkt.size);
    CacheEntry *entry = _array.findEntry(ctx.line);
    _array.touch(*entry);
    Addr off = lineOffset(pkt.addr, _cfg.lineBytes);
    for (unsigned i = 0; i < pkt.size; ++i) {
        entry->data[off + i] = pkt.data[i];
        entry->dirty |= maskBit(off + i);
    }
    entry->state = kLineDirty;

    Packet resp = pkt;
    resp.type = MsgType::StoreAck;
    resp.clearData();
    scheduleAfter(_cfg.hitLatency, [this, resp]() mutable {
        _respond(std::move(resp));
    });
}

void
GpuL1Cache::actStoreAllocMiss(TransCtx &ctx)
{
    // LRCC write-allocate: fetch the line, then perform the store on
    // fill (actFillOrCompleteLrcc).
    Packet &pkt = *ctx.pkt;
    assert(pkt.dataLen == pkt.size);
    _cLoadMisses->inc();
    Tbe tbe;
    tbe.isAtomic = false;
    tbe.corePkt = pkt;
    _tbes.emplace(ctx.line, std::move(tbe));

    Packet req;
    req.type = MsgType::RdBlk;
    req.addr = ctx.line;
    req.id = _nextId++;
    req.requestor = pkt.requestor;
    req.issueTick = curTick();
    _xbar.route(_endpoint, _l2Endpoint, std::move(req));
}

void
GpuL1Cache::actAtomicInvalidate(TransCtx &ctx)
{
    // The atomic is performed below; the local copy becomes stale.
    CacheEntry *entry = _array.findEntry(ctx.line);
    _array.invalidate(*entry);
}

void
GpuL1Cache::actAtomicForward(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    Tbe tbe;
    tbe.isAtomic = true;
    tbe.corePkt = pkt;
    _tbes.emplace(ctx.line, std::move(tbe));
    _cAtomics->inc();

    Packet req;
    req.type = MsgType::GpuAtomic;
    req.addr = pkt.addr;
    req.size = pkt.size;
    req.atomicOperand = pkt.atomicOperand;
    req.id = _nextId++;
    req.requestor = pkt.requestor;
    req.issueTick = curTick();
    _xbar.route(_endpoint, _l2Endpoint, std::move(req));
}

void
GpuL1Cache::flashInvalidate()
{
    _cFlashInvalidates->inc();
    bool any = false;
    TransCtx ctx;
    _array.forEachEntry([&](CacheEntry &entry) {
        ctx.entry = &entry;
        ctx.line = entry.lineAddr;
        _table->fire(*this, EvEvict, entryState(entry), ctx);
        any = true;
    });
    _tbes.forEach([&](Addr line, const Tbe &) {
        // In-flight fills are fetched from the L2 at or after the acquire
        // point, so they are left to complete.
        ctx.entry = nullptr;
        ctx.line = line;
        _table->fire(*this, EvEvict, StA, ctx);
        any = true;
    });
    if (!any) {
        // Flash invalidation of a cold cache: a defined no-op.
        ctx.entry = nullptr;
        ctx.line = 0;
        _table->fire(*this, EvEvict, StI, ctx);
    }
}

void
GpuL1Cache::actInvalidateEntry(TransCtx &ctx)
{
    assert(ctx.entry != nullptr);
    _array.invalidate(*ctx.entry);
}

void
GpuL1Cache::actReplaceVictim(TransCtx &ctx)
{
    assert(ctx.entry != nullptr);
    _cReplacements->inc();
    _array.invalidate(*ctx.entry);
}

void
GpuL1Cache::writebackAllDirty()
{
    TransCtx ctx;
    _array.forEachEntry([&](CacheEntry &entry) {
        if (entry.state == kLineDirty) {
            ctx.entry = &entry;
            ctx.line = entry.lineAddr;
            _table->fire(*this, EvWB, StM, ctx);
        }
    });
}

void
GpuL1Cache::writebackEntry(CacheEntry &entry)
{
    if (entry.dirty == 0)
        return;
    Packet wt;
    wt.type = MsgType::WrThrough;
    wt.addr = entry.lineAddr;
    wt.id = _nextId++;
    wt.issueTick = curTick();
    wt.dataLen = static_cast<std::uint16_t>(_cfg.lineBytes);
    wt.data = entry.data;
    wt.mask = entry.dirty;

    // Internal write-back: the pending-WT marker keeps its WrThrough
    // type, which actCompleteWriteThrough reads as "no core response".
    Packet marker;
    marker.type = MsgType::WrThrough;
    marker.addr = entry.lineAddr;
    marker.id = wt.id;
    _pendingWT.emplace(wt.id, marker);
    ++_outstandingWT;
    _cWriteThroughs->inc();
    entry.dirty = 0;
    _xbar.route(_endpoint, _l2Endpoint, std::move(wt));
}

void
GpuL1Cache::actWritebackEntry(TransCtx &ctx)
{
    CacheEntry *entry =
        ctx.entry != nullptr ? ctx.entry : _array.findEntry(ctx.line);
    assert(entry != nullptr);
    writebackEntry(*entry);
}

void
GpuL1Cache::actWritebackToOwned(TransCtx &ctx)
{
    assert(ctx.entry != nullptr);
    writebackEntry(*ctx.entry);
    ctx.entry->state = kLineOwned;
}

CacheEntry &
GpuL1Cache::fillLine(Addr line_addr, const LineData &data)
{
    if (!_array.hasFreeWay(line_addr)) {
        CacheEntry &victim = _array.victim(line_addr);
        TransCtx ctx;
        ctx.entry = &victim;
        ctx.line = victim.lineAddr;
        _table->fire(*this, EvRepl, entryState(victim), ctx);
    }
    CacheEntry &entry = _array.allocate(line_addr);
    entry.data = data;
    entry.state = kLineClean;
    return entry;
}

void
GpuL1Cache::actFillOrComplete(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    Tbe tbe = std::move(*_tbes.find(ctx.line));
    _tbes.erase(ctx.line);

    Packet resp = tbe.corePkt;
    if (tbe.isAtomic) {
        // Atomics are not cached in the L1.
        resp.type = MsgType::AtomicResp;
        resp.atomicResult = pkt.atomicResult;
    } else {
        assert(pkt.dataLen == _cfg.lineBytes);
        CacheEntry &entry = fillLine(ctx.line, pkt.data);
        _array.touch(entry);
        resp.type = MsgType::LoadResp;
        Addr off = lineOffset(resp.addr, _cfg.lineBytes);
        resp.setData(entry.data.data() + off, resp.size);
    }
    _respond(std::move(resp));
}

void
GpuL1Cache::actFillOrCompleteLrcc(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    Tbe tbe = std::move(*_tbes.find(ctx.line));
    _tbes.erase(ctx.line);

    Packet resp = tbe.corePkt;
    if (tbe.isAtomic) {
        resp.type = MsgType::AtomicResp;
        resp.atomicResult = pkt.atomicResult;
    } else if (resp.type == MsgType::StoreReq) {
        // Write-allocate completion: fill, perform the store, go M.
        assert(pkt.dataLen == _cfg.lineBytes);
        CacheEntry &entry = fillLine(ctx.line, pkt.data);
        _array.touch(entry);
        Addr off = lineOffset(resp.addr, _cfg.lineBytes);
        for (unsigned i = 0; i < resp.size; ++i) {
            entry.data[off + i] = resp.data[i];
            entry.dirty |= maskBit(off + i);
        }
        entry.state = kLineDirty;
        resp.type = MsgType::StoreAck;
        resp.clearData();
    } else {
        assert(pkt.dataLen == _cfg.lineBytes);
        CacheEntry &entry = fillLine(ctx.line, pkt.data);
        _array.touch(entry);
        resp.type = MsgType::LoadResp;
        Addr off = lineOffset(resp.addr, _cfg.lineBytes);
        resp.setData(entry.data.data() + off, resp.size);
    }
    _respond(std::move(resp));
}

void
GpuL1Cache::actCompleteWriteThrough(TransCtx &ctx)
{
    Packet resp = *ctx.pending;
    _pendingWT.erase(ctx.pkt->id);
    assert(_outstandingWT > 0);
    --_outstandingWT;

    // Internal LRCC write-backs carry a WrThrough marker: no core
    // response is owed. Core-issued stores respond with a StoreAck.
    if (resp.type != MsgType::WrThrough) {
        resp.type = MsgType::StoreAck;
        resp.clearData();
        _respond(std::move(resp));
    }

    tryDrainReleaseQueue();
}

void
GpuL1Cache::tryDrainReleaseQueue()
{
    while (_outstandingWT == 0 && _releaseHead < _releaseQueue.size()) {
        Packet pkt = _releaseQueue[_releaseHead];
        if (++_releaseHead == _releaseQueue.size()) {
            _releaseQueue.clear();
            _releaseHead = 0;
        }
        pkt.release = false; // the WT drain condition is now satisfied
        coreRequest(std::move(pkt));
        // coreRequest may have created new write-throughs; re-check.
    }
}

void
GpuL1Cache::recvMsg(Packet &pkt)
{
    Event ev;
    switch (pkt.type) {
      case MsgType::LoadReq: ev = EvLoad; break;
      case MsgType::StoreReq: ev = EvStoreThrough; break;
      case MsgType::AtomicReq: ev = EvAtomic; break;
      case MsgType::TccAck: ev = EvTccAck; break;
      case MsgType::TccAckWB: ev = EvTccAckWB; break;
      default:
        throw ProtocolError(name(), curTick(),
                            std::string("unexpected message ") +
                                msgTypeName(pkt.type));
    }
    TransCtx ctx;
    ctx.pkt = &pkt;
    ctx.line = lineAlign(pkt.addr, _cfg.lineBytes);
    if (ev == EvTccAckWB) {
        ctx.pending = _pendingWT.find(pkt.id);
        if (ctx.pending == nullptr) {
            // Keyed by packet id, not line state, so the table's row
            // lookup cannot catch this: every state defines TCC_AckWB.
            throw ProtocolError(name(), curTick(),
                                "TCC_AckWB with no matching write-through: " +
                                    pkt.describe());
        }
    }
    // A TCC_Ack with no matching MSHR finds the line in I or V, neither
    // of which defines a TCC_Ack row: the table raises the protocol error.
    _table->fireWith(*this, ev, lineState(ctx.line), ctx,
                     [&pkt] { return pkt.describe(); });
}

} // namespace drf
