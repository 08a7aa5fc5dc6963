#include "proto/gpu_l2.hh"

#include <algorithm>
#include <cassert>

#include "proto/protocol_error.hh"

namespace drf
{

const TransitionSpec &
GpuL2Cache::spec()
{
    return table().spec();
}

const TransitionTable<GpuL2Cache> &
GpuL2Cache::table()
{
    using T = TransitionTable<GpuL2Cache>;
    using L2 = GpuL2Cache;
    static const T t = [] {
        T t("GPU-L2", {"I", "V", "IV", "A"},
            {"RdBlk", "WrVicBlk", "Atomic", "AtomicD", "AtomicND", "Data",
             "L2_Repl", "PrbInv", "WBAck"});
        t.on(EvRdBlk, StI, {&L2::actReadMiss}, StIV)
            .on(EvRdBlk, StV, {&L2::actReadHit}, StV)
            .on(EvRdBlk, StIV, {&L2::actRecycle}, StIV)
            .on(EvRdBlk, StA, {&L2::actRecycle}, StA)
            .on(EvWrVicBlk, StI, {&L2::actWriteThrough}, StI)
            .on(EvWrVicBlk, StV, {&L2::actWriteThrough}, StV)
            .on(EvWrVicBlk, StIV, {&L2::actRecycle}, StIV)
            .on(EvWrVicBlk, StA, {&L2::actRecycle}, StA)
            .on(EvAtomic, StI, {&L2::actAtomicStart}, StA)
            .on(EvAtomic, StV,
                {&L2::actAtomicInvalidate, &L2::actAtomicStart}, StA)
            .on(EvAtomic, StIV, {&L2::actRecycle}, StIV)
            .on(EvAtomic, StA, {&L2::actAtomicQueue}, StA)
            .on(EvAtomicD, StA, {&L2::actAtomicDone})
            .on(EvAtomicND, StA, {&L2::actAtomicRetry}, StA)
            .on(EvData, StIV, {&L2::actDataFill}, StV)
            .on(EvL2Repl, StV, {&L2::actReplaceVictim}, StI)
            .on(EvPrbInv, StI, {&L2::actProbeAck}, StI)
            .on(EvPrbInv, StV,
                {&L2::actProbeInvalidate, &L2::actProbeAck}, StI)
            .on(EvPrbInv, StIV, {&L2::actProbeAck}, StIV)
            // A probe can find the line with an atomic outstanding when
            // the atomic was nacked while a remote L2's write transaction
            // holds the directory (multi-GPU systems); the local copy is
            // already gone, so the probe just acks.
            .on(EvPrbInv, StA, {&L2::actProbeAck}, StA)
            .on(EvWBAck, StI, {&L2::actWriteBackAck}, StI)
            .on(EvWBAck, StV, {&L2::actWriteBackAck}, StV)
            .on(EvWBAck, StIV, {&L2::actWriteBackAck}, StIV)
            .on(EvWBAck, StA, {&L2::actWriteBackAck}, StA);

        // With only the GPU tester attached there is a single L2 and no
        // CPU, so the directory never probes it (Section IV.B, "Impsb").
        // In a multi-GPU system ("gpu_tester_multi") every PrbInv cell
        // becomes reachable by the GPU tester alone.
        for (auto st : {StI, StV, StIV, StA})
            t.markImpossible("gpu_tester", EvPrbInv, st);
        return t;
    }();
    return t;
}

GpuL2Cache::GpuL2Cache(std::string name, EventQueue &eq,
                       const GpuL2Config &cfg, Crossbar &xbar, int endpoint,
                       int dir_ep, FaultInjector *fault)
    : SimObject(std::move(name), eq), _cfg(cfg), _xbar(xbar),
      _endpoint(endpoint), _dirEndpoint(dir_ep), _fault(fault),
      _array(cfg.sizeBytes, cfg.assoc, cfg.lineBytes), _coverage(spec()),
      _stats(SimObject::name()),
      _cRecycles(&_stats.counter("recycles")),
      _cReadHits(&_stats.counter("read_hits")),
      _cReadMisses(&_stats.counter("read_misses")),
      _cWriteThroughs(&_stats.counter("write_throughs")),
      _cAtomics(&_stats.counter("atomics")),
      _cAtomicRetries(&_stats.counter("atomic_retries")),
      _cReplacements(&_stats.counter("replacements")),
      _cRefillMerges(&_stats.counter("refill_merges")),
      _cProbes(&_stats.counter("probes"))
{
    _fetchTbes.reserve(128);
    _atomicTbes.reserve(128);
    _pendingWBs.reserve(128);
    _wbLineCount.reserve(128);
    xbar.attach(endpoint, *this);
}

GpuL2Cache::State
GpuL2Cache::lineState(Addr line_addr) const
{
    if (_atomicTbes.contains(line_addr))
        return StA;
    if (_fetchTbes.contains(line_addr))
        return StIV;
    if (_array.findEntry(line_addr) != nullptr)
        return StV;
    return StI;
}

void
GpuL2Cache::recycle(Packet &pkt)
{
    _cRecycles->inc();
    scheduleAfter(_cfg.recycleLatency,
                  [this, pkt]() mutable {
                      recvMsg(pkt);
                  });
}

void
GpuL2Cache::respondData(const Packet &req, const CacheEntry &entry)
{
    Packet resp;
    resp.type = MsgType::TccAck;
    resp.addr = req.addr;
    resp.id = req.id;
    resp.requestor = req.requestor;
    resp.setLine(entry.data);
    _xbar.route(_endpoint, req.srcEndpoint, std::move(resp));
}

void
GpuL2Cache::actRecycle(TransCtx &ctx)
{
    recycle(*ctx.pkt);
}

void
GpuL2Cache::actReadHit(TransCtx &ctx)
{
    CacheEntry *entry = _array.findEntry(ctx.line);
    _array.touch(*entry);
    _cReadHits->inc();
    respondData(*ctx.pkt, *entry);
}

void
GpuL2Cache::actReadMiss(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    _cReadMisses->inc();
    std::uint32_t idx = poolAlloc(_fetchPool, _fetchFree);
    _fetchPool[idx].waiters.push_back(pkt);
    _fetchTbes.emplace(ctx.line, idx);
    Packet req;
    req.type = MsgType::FetchBlk;
    req.addr = ctx.line;
    req.id = _nextId++;
    req.requestor = pkt.requestor;
    req.issueTick = curTick();
    _xbar.route(_endpoint, _dirEndpoint, std::move(req));
}

void
GpuL2Cache::actWriteThrough(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    Addr line = ctx.line;

    // Case-study bug 1: two false-sharing write-throughs racing at this
    // controller are not serialized; the later one is acked but its bytes
    // never reach the line or memory.
    const std::uint32_t *line_wbs = _wbLineCount.find(line);
    bool racing = line_wbs != nullptr && *line_wbs > 0;
    if (racing && _fault != nullptr &&
        _fault->fire(FaultKind::LostWriteThrough)) {
        _stats.counter("injected_lost_wt").inc();
        Packet ack;
        ack.type = MsgType::TccAckWB;
        ack.addr = pkt.addr;
        ack.id = pkt.id;
        ack.requestor = pkt.requestor;
        _xbar.route(_endpoint, pkt.srcEndpoint, std::move(ack));
        return;
    }

    if (CacheEntry *entry = _array.findEntry(line)) {
        // Merge the masked bytes into the local copy.
        _array.touch(*entry);
        assert(pkt.dataLen == _cfg.lineBytes);
        for (unsigned i = 0; i < _cfg.lineBytes; ++i) {
            if (maskTest(pkt.mask, i)) {
                entry->data[i] = pkt.data[i];
                entry->dirty |= maskBit(i);
            }
        }
    }

    // Forward toward memory (VIPER keeps memory up to date so a release
    // can make data globally visible).
    Packet fwd;
    fwd.type = MsgType::WrMem;
    fwd.addr = line;
    fwd.id = _nextId++;
    fwd.requestor = pkt.requestor;
    fwd.issueTick = curTick();
    fwd.data = pkt.data;
    fwd.dataLen = pkt.dataLen;
    fwd.mask = pkt.mask;
    _pendingWBs.emplace(fwd.id, PendingWB{pkt});
    ++_wbLineCount[line];
    _cWriteThroughs->inc();
    _xbar.route(_endpoint, _dirEndpoint, std::move(fwd));
}

void
GpuL2Cache::issueAtomic(Addr line_addr)
{
    std::uint32_t *idx = _atomicTbes.find(line_addr);
    assert(idx != nullptr && !_atomicPool[*idx].queueEmpty());
    const Packet &head = _atomicPool[*idx].queueFront();

    Packet req;
    req.type = MsgType::DirAtomic;
    req.addr = head.addr;
    req.size = head.size;
    req.atomicOperand = head.atomicOperand;
    req.id = _nextId++;
    req.requestor = head.requestor;
    req.issueTick = curTick();
    _xbar.route(_endpoint, _dirEndpoint, std::move(req));
}

void
GpuL2Cache::actAtomicQueue(TransCtx &ctx)
{
    // Serialize behind the atomic already in flight.
    _atomicPool[*_atomicTbes.find(ctx.line)].queue.push_back(
        std::move(*ctx.pkt));
}

void
GpuL2Cache::actAtomicInvalidate(TransCtx &ctx)
{
    // The directory-side atomic makes the local copy stale.
    CacheEntry *entry = _array.findEntry(ctx.line);
    _array.invalidate(*entry);
}

void
GpuL2Cache::actAtomicStart(TransCtx &ctx)
{
    std::uint32_t idx = poolAlloc(_atomicPool, _atomicFree);
    _atomicPool[idx].queue.push_back(std::move(*ctx.pkt));
    _atomicTbes.emplace(ctx.line, idx);
    _cAtomics->inc();
    issueAtomic(ctx.line);
}

void
GpuL2Cache::actAtomicDone(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    Addr line = ctx.line;
    std::uint32_t *idx = _atomicTbes.find(line);

    AtomicTbe &tbe = _atomicPool[*idx];
    Packet head = std::move(tbe.queueFront());
    tbe.popQueueFront();

    Packet resp;
    resp.type = MsgType::TccAck;
    resp.addr = head.addr;
    resp.id = head.id;
    resp.requestor = head.requestor;
    resp.atomicResult = pkt.atomicResult;
    _xbar.route(_endpoint, head.srcEndpoint, std::move(resp));

    if (!tbe.queueEmpty()) {
        issueAtomic(line);
        return;
    }

    _atomicFree.push_back(*idx);
    _atomicTbes.erase(line);
    // Cache the post-atomic line contents delivered with the ack.
    assert(pkt.dataLen == _cfg.lineBytes);
    fillLine(line, pkt.data);
}

void
GpuL2Cache::actAtomicRetry(TransCtx &ctx)
{
    Addr line = ctx.line;
    _cAtomicRetries->inc();
    scheduleAfter(_cfg.recycleLatency,
                  [this, line] { issueAtomic(line); });
}

void
GpuL2Cache::actReplaceVictim(TransCtx &ctx)
{
    _cReplacements->inc();
    _array.invalidate(*ctx.entry);
}

CacheEntry &
GpuL2Cache::fillLine(Addr line_addr, const LineData &data)
{
    if (_array.findEntry(line_addr) != nullptr) {
        // Refill raced with a write-through that re-validated the line;
        // keep the merged copy (it is at least as fresh).
        return *_array.findEntry(line_addr);
    }
    if (!_array.hasFreeWay(line_addr)) {
        CacheEntry &victim = _array.victim(line_addr);
        TransCtx ctx;
        ctx.entry = &victim;
        ctx.line = victim.lineAddr;
        table().fire(*this, EvL2Repl, StV, ctx);
    }
    CacheEntry &entry = _array.allocate(line_addr);
    entry.data = data;

    // Merge the refill *under* the dirty bytes of this controller's own
    // in-flight write-throughs. The fetched data can predate a write
    // that is still waiting for its WBAck (the write may be recycled
    // behind a busy directory line, or racing with a remote L2's
    // transaction that probed us mid-flight); under DRF no other agent
    // writes those bytes until our write retires, so our pending bytes
    // are strictly newer. Found by the tester itself as a read-write
    // inconsistency — the exact failure mode of the paper's Section V
    // case study. Matches are applied in ascending id (issue) order, as
    // the old id-sorted pending map iterated. The per-line write-through
    // count gates the scan: almost every fill has no in-flight WB on its
    // line, and the table lookup is what makes that the cheap case.
    if (_wbLineCount.contains(line_addr)) {
        _mergeScratch.clear();
        _pendingWBs.forEach([&](std::uint64_t id, const PendingWB &wb) {
            if (lineAlign(wb.original.addr, _cfg.lineBytes) == line_addr)
                _mergeScratch.emplace_back(id, &wb.original);
        });
        std::sort(_mergeScratch.begin(), _mergeScratch.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (const auto &[id, original] : _mergeScratch) {
            for (unsigned i = 0; i < _cfg.lineBytes; ++i) {
                if (maskTest(original->mask, i)) {
                    entry.data[i] = original->data[i];
                    entry.dirty |= maskBit(i);
                }
            }
            _cRefillMerges->inc();
        }
    }

    _array.touch(entry);
    return entry;
}

void
GpuL2Cache::actDataFill(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    Addr line = ctx.line;
    const std::uint32_t idx = *_fetchTbes.find(line);
    _fetchTbes.erase(line);

    CacheEntry &entry = fillLine(line, pkt.data);
    for (const Packet &waiter : _fetchPool[idx].waiters)
        respondData(waiter, entry);
    _fetchPool[idx].waiters.clear();
    _fetchFree.push_back(idx);
}

void
GpuL2Cache::actWriteBackAck(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    Packet original = static_cast<PendingWB *>(ctx.pending)->original;
    _pendingWBs.erase(pkt.id);

    std::uint32_t *wbs = _wbLineCount.find(
        lineAlign(original.addr, _cfg.lineBytes));
    assert(wbs != nullptr && *wbs > 0);
    if (--*wbs == 0)
        _wbLineCount.erase(lineAlign(original.addr, _cfg.lineBytes));

    if (_fault != nullptr && _fault->fire(FaultKind::DropWriteAck)) {
        // The completion ack never reaches the L1: the system deadlocks
        // on the next release and the watchdog must catch it.
        _stats.counter("injected_dropped_acks").inc();
        return;
    }

    Packet ack;
    ack.type = MsgType::TccAckWB;
    ack.addr = original.addr;
    ack.id = original.id;
    ack.requestor = original.requestor;
    _xbar.route(_endpoint, original.srcEndpoint, std::move(ack));
}

void
GpuL2Cache::actProbeInvalidate(TransCtx &ctx)
{
    CacheEntry *entry = _array.findEntry(ctx.line);
    _array.invalidate(*entry);
}

void
GpuL2Cache::actProbeAck(TransCtx &ctx)
{
    // In IV the refill completes later with data ordered before any
    // subsequent remote write (DRF programs order such accesses with
    // synchronization anyway); in A the local copy was dropped when the
    // atomic was issued; in I this is a stale probe. Always ack.
    _cProbes->inc();

    Packet ack;
    ack.type = MsgType::InvAck;
    ack.addr = ctx.line;
    ack.id = ctx.pkt->id;
    _xbar.route(_endpoint, _dirEndpoint, std::move(ack));
}

void
GpuL2Cache::recvMsg(Packet &pkt)
{
    Event ev;
    switch (pkt.type) {
      case MsgType::RdBlk: ev = EvRdBlk; break;
      case MsgType::WrThrough: ev = EvWrVicBlk; break;
      case MsgType::GpuAtomic: ev = EvAtomic; break;
      case MsgType::AtomicD: ev = EvAtomicD; break;
      case MsgType::AtomicND: ev = EvAtomicND; break;
      case MsgType::DirData: ev = EvData; break;
      case MsgType::DirWBAck: ev = EvWBAck; break;
      case MsgType::PrbInv: ev = EvPrbInv; break;
      default:
        throw ProtocolError(name(), curTick(),
                            std::string("unexpected message ") +
                                msgTypeName(pkt.type));
    }
    TransCtx ctx;
    ctx.pkt = &pkt;
    ctx.line = lineAlign(pkt.addr, _cfg.lineBytes);
    if (ev == EvWBAck) {
        ctx.pending = _pendingWBs.find(pkt.id);
        if (ctx.pending == nullptr) {
            // Keyed by packet id, not line state: the table's row lookup
            // cannot detect this, so it stays an explicit guard.
            throw ProtocolError(name(), curTick(),
                                "WBAck with no pending write: " +
                                    pkt.describe());
        }
    }
    // A response with no matching MSHR (AtomicD/AtomicND outside A, Data
    // outside IV) finds no row: the table raises the protocol error.
    table().fireWith(*this, ev, lineState(ctx.line), ctx,
                     [&pkt] { return pkt.describe(); });
}

} // namespace drf
