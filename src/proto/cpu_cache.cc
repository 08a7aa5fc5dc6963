#include "proto/cpu_cache.hh"

#include <cassert>

#include "proto/protocol_error.hh"

namespace drf
{

const TransitionSpec &
CpuCache::spec()
{
    return table().spec();
}

const TransitionTable<CpuCache> &
CpuCache::table()
{
    using T = TransitionTable<CpuCache>;
    using CC = CpuCache;
    static const T t = [] {
        T t("CPU-CorePair", {"I", "S", "M", "IS", "IM", "SM", "MI"},
            {"Load", "Store", "Repl", "Data", "PrbInv", "PrbDowngrade",
             "WBAck"});
        t.on(EvLoad, StI, {&CC::actLoadMiss}, StIS)
            .on(EvLoad, StS, {&CC::actLoadHit}, StS)
            .on(EvLoad, StM, {&CC::actLoadHit}, StM)
            .on(EvLoad, StIS, {&CC::actRecycle}, StIS)
            .on(EvLoad, StIM, {&CC::actRecycle}, StIM)
            .on(EvLoad, StSM, {&CC::actRecycle}, StSM)
            .on(EvLoad, StMI, {&CC::actRecycle}, StMI)
            .on(EvStore, StI, {&CC::actStoreMiss}, StIM)
            .on(EvStore, StS, {&CC::actStoreUpgrade}, StSM)
            .on(EvStore, StM, {&CC::actStoreHit}, StM)
            .on(EvStore, StIS, {&CC::actRecycle}, StIS)
            .on(EvStore, StIM, {&CC::actRecycle}, StIM)
            .on(EvStore, StSM, {&CC::actRecycle}, StSM)
            .on(EvStore, StMI, {&CC::actRecycle}, StMI)
            // Replacement victimizes stable lines only.
            .on(EvRepl, StS, {&CC::actReplaceClean}, StI)
            .on(EvRepl, StM, {&CC::actReplaceDirty}, StMI)
            // Grants land in the requesting transients.
            .on(EvData, StIS, {&CC::actDataFillAlloc}, StS)
            .on(EvData, StIM, {&CC::actDataFillAlloc}, StM)
            .on(EvData, StSM, {&CC::actDataFillUpgrade}, StM)
            // Probes: stale-sharer probes can find the line in I/IS/IM;
            // a downgrade targets the precise owner (M, or MI when it
            // crosses a writeback).
            .on(EvPrbInv, StI, {&CC::actProbeSend}, StI)
            .on(EvPrbInv, StS,
                {&CC::actProbeSharer, &CC::actProbeSend}, StI)
            .on(EvPrbInv, StM,
                {&CC::actProbeOwner, &CC::actProbeSend}, StI)
            .on(EvPrbInv, StIS, {&CC::actProbeSend}, StIS)
            .on(EvPrbInv, StIM, {&CC::actProbeSend}, StIM)
            .on(EvPrbInv, StSM,
                {&CC::actProbeUpgrade, &CC::actProbeSend}, StIM)
            .on(EvPrbInv, StMI,
                {&CC::actProbeWriteback, &CC::actProbeSend}, StMI)
            .on(EvPrbDowngrade, StM,
                {&CC::actProbeOwner, &CC::actProbeSend}, StS)
            .on(EvPrbDowngrade, StMI,
                {&CC::actProbeWriteback, &CC::actProbeSend}, StMI)
            // Writeback completion (possibly a stale ack after a probe).
            .on(EvWBAck, StMI, {&CC::actWriteBackAck}, StI);
        return t;
    }();
    return t;
}

CpuCache::CpuCache(std::string name, EventQueue &eq,
                   const CpuCacheConfig &cfg, Crossbar &xbar, int endpoint,
                   int dir_ep)
    : SimObject(std::move(name), eq), _cfg(cfg), _xbar(xbar),
      _endpoint(endpoint), _dirEndpoint(dir_ep),
      _array(cfg.sizeBytes, cfg.assoc, cfg.lineBytes), _coverage(spec()),
      _stats(SimObject::name()),
      _cRecycles(&_stats.counter("recycles")),
      _cLoadHits(&_stats.counter("load_hits")),
      _cLoadMisses(&_stats.counter("load_misses")),
      _cStoreHits(&_stats.counter("store_hits")),
      _cUpgrades(&_stats.counter("upgrades")),
      _cStoreMisses(&_stats.counter("store_misses")),
      _cDirtyReplacements(&_stats.counter("dirty_replacements")),
      _cCleanReplacements(&_stats.counter("clean_replacements")),
      _cFillRetries(&_stats.counter("fill_retries")),
      _cProbes(&_stats.counter("probes"))
{
    _tbes.reserve(64);
    xbar.attach(endpoint, *this);
}

CpuCache::State
CpuCache::lineState(Addr line_addr) const
{
    const Tbe *tbe = _tbes.find(line_addr);
    if (tbe != nullptr)
        return tbe->transient;
    const CacheEntry *entry = _array.findEntry(line_addr);
    if (entry == nullptr)
        return StI;
    return entry->state == LineM ? StM : StS;
}

void
CpuCache::recycle(Packet &pkt)
{
    _cRecycles->inc();
    scheduleAfter(_cfg.recycleLatency,
                  [this, pkt]() mutable {
                      coreRequest(std::move(pkt));
                  });
}

void
CpuCache::performLoad(const CacheEntry &entry, const Packet &pkt)
{
    Packet resp = pkt;
    resp.type = MsgType::LoadResp;
    Addr off = lineOffset(pkt.addr, _cfg.lineBytes);
    resp.setData(entry.data.data() + off, pkt.size);
    scheduleAfter(_cfg.hitLatency, [this, resp]() mutable {
        _respond(std::move(resp));
    });
}

void
CpuCache::performStore(CacheEntry &entry, const Packet &pkt)
{
    Addr off = lineOffset(pkt.addr, _cfg.lineBytes);
    assert(pkt.dataLen == pkt.size);
    for (unsigned i = 0; i < pkt.size; ++i) {
        entry.data[off + i] = pkt.data[i];
        entry.dirty |= maskBit(off + i);
    }
    entry.state = LineM;
    Packet resp = pkt;
    resp.type = MsgType::StoreAck;
    resp.clearData();
    scheduleAfter(_cfg.hitLatency, [this, resp]() mutable {
        _respond(std::move(resp));
    });
}

void
CpuCache::coreRequest(Packet pkt)
{
    assert(_respond && "core response path not bound");
    recvMsg(pkt);
}

void
CpuCache::actRecycle(TransCtx &ctx)
{
    recycle(*ctx.pkt);
}

void
CpuCache::actLoadHit(TransCtx &ctx)
{
    CacheEntry *entry = _array.findEntry(ctx.line);
    _array.touch(*entry);
    _cLoadHits->inc();
    performLoad(*entry, *ctx.pkt);
}

void
CpuCache::actLoadMiss(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    _cLoadMisses->inc();
    Tbe tbe;
    tbe.transient = StIS;
    tbe.corePkt = pkt;
    _tbes.emplace(ctx.line, std::move(tbe));
    Packet req;
    req.type = MsgType::Gets;
    req.addr = ctx.line;
    req.id = _nextId++;
    req.requestor = pkt.requestor;
    req.issueTick = curTick();
    _xbar.route(_endpoint, _dirEndpoint, std::move(req));
}

void
CpuCache::actStoreHit(TransCtx &ctx)
{
    CacheEntry *entry = _array.findEntry(ctx.line);
    _array.touch(*entry);
    _cStoreHits->inc();
    performStore(*entry, *ctx.pkt);
}

void
CpuCache::actStoreUpgrade(TransCtx &ctx)
{
    // Upgrade: keep the S copy, request exclusivity.
    Packet &pkt = *ctx.pkt;
    _cUpgrades->inc();
    Tbe tbe;
    tbe.transient = StSM;
    tbe.corePkt = pkt;
    _tbes.emplace(ctx.line, std::move(tbe));
    Packet req;
    req.type = MsgType::Getx;
    req.addr = ctx.line;
    req.id = _nextId++;
    req.requestor = pkt.requestor;
    req.issueTick = curTick();
    _xbar.route(_endpoint, _dirEndpoint, std::move(req));
}

void
CpuCache::actStoreMiss(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    _cStoreMisses->inc();
    Tbe tbe;
    tbe.transient = StIM;
    tbe.corePkt = pkt;
    _tbes.emplace(ctx.line, std::move(tbe));
    Packet req;
    req.type = MsgType::Getx;
    req.addr = ctx.line;
    req.id = _nextId++;
    req.requestor = pkt.requestor;
    req.issueTick = curTick();
    _xbar.route(_endpoint, _dirEndpoint, std::move(req));
}

bool
CpuCache::makeRoom(Addr line_addr)
{
    if (_array.findEntry(line_addr) != nullptr ||
        _array.hasFreeWay(line_addr)) {
        return true;
    }
    // Pick the LRU way whose line has no MSHR (an SM upgrade keeps its S
    // copy in the array and must not be victimized underneath it).
    CacheEntry *victim_ptr = nullptr;
    for (CacheEntry *way : _array.setEntries(line_addr)) {
        if (_tbes.contains(way->lineAddr))
            continue;
        if (victim_ptr == nullptr || way->lastUsed < victim_ptr->lastUsed)
            victim_ptr = way;
    }
    if (victim_ptr == nullptr)
        return false;
    CacheEntry &victim = *victim_ptr;
    TransCtx ctx;
    ctx.entry = &victim;
    ctx.line = victim.lineAddr;
    table().fire(*this, EvRepl, victim.state == LineM ? StM : StS, ctx);
    return true;
}

void
CpuCache::actReplaceDirty(TransCtx &ctx)
{
    CacheEntry &victim = *ctx.entry;
    _cDirtyReplacements->inc();
    Tbe tbe;
    tbe.transient = StMI;
    tbe.wbData = victim.data;
    Addr victim_line = victim.lineAddr;
    _tbes.emplace(victim_line, std::move(tbe));
    Packet wb;
    wb.type = MsgType::Putx;
    wb.addr = victim_line;
    wb.id = _nextId++;
    wb.setLine(victim.data);
    wb.issueTick = curTick();
    _xbar.route(_endpoint, _dirEndpoint, std::move(wb));
    _array.invalidate(victim);
}

void
CpuCache::actReplaceClean(TransCtx &ctx)
{
    // Clean copies are dropped silently; the directory's sharer list
    // goes stale, which is what makes PrbInv-in-I reachable.
    _cCleanReplacements->inc();
    _array.invalidate(*ctx.entry);
}

void
CpuCache::completeFill(CacheEntry &entry, const Tbe &tbe,
                       const Packet &pkt)
{
    if (tbe.corePkt.type == MsgType::LoadReq) {
        assert(pkt.grant >= 1);
        entry.state = LineS;
        performLoad(entry, tbe.corePkt);
    } else {
        assert(pkt.grant == 2 && "store grant must be exclusive");
        entry.state = LineM;
        performStore(entry, tbe.corePkt);
    }
}

void
CpuCache::actDataFillAlloc(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    Addr line = ctx.line;
    Tbe tbe = std::move(*_tbes.find(line));
    _tbes.erase(line);

    [[maybe_unused]] bool ok = makeRoom(line);
    assert(ok && "fill room was verified above");
    CacheEntry &entry = _array.allocate(line);
    entry.data = pkt.data;
    _array.touch(entry);
    completeFill(entry, tbe, pkt);
}

void
CpuCache::actDataFillUpgrade(TransCtx &ctx)
{
    Packet &pkt = *ctx.pkt;
    Addr line = ctx.line;
    Tbe tbe = std::move(*_tbes.find(line));
    _tbes.erase(line);

    // We kept our S copy; refresh it with the granted data (another
    // core may have modified the line while our upgrade waited).
    CacheEntry *entry = _array.findEntry(line);
    assert(entry != nullptr);
    entry->data = pkt.data;
    _array.touch(*entry);
    completeFill(*entry, tbe, pkt);
}

void
CpuCache::actProbeOwner(TransCtx &ctx)
{
    CacheEntry *entry = _array.findEntry(ctx.line);
    ctx.ack.setLine(entry->data);
    if (ctx.pkt->type == MsgType::CpuPrbDowngrade) {
        entry->state = LineS;
        entry->clearDirty();
    } else {
        _array.invalidate(*entry);
    }
}

void
CpuCache::actProbeSharer(TransCtx &ctx)
{
    assert(ctx.pkt->type != MsgType::CpuPrbDowngrade &&
           "downgrade probe must target the owner");
    CacheEntry *entry = _array.findEntry(ctx.line);
    _array.invalidate(*entry);
}

void
CpuCache::actProbeWriteback(TransCtx &ctx)
{
    // The probe crossed our writeback; hand over the data now. The
    // in-flight Putx will be acknowledged as stale.
    ctx.ack.setLine(_tbes.find(ctx.line)->wbData);
}

void
CpuCache::actProbeUpgrade(TransCtx &ctx)
{
    assert(ctx.pkt->type != MsgType::CpuPrbDowngrade);
    // Our S copy dies; the pending upgrade becomes a plain store
    // miss (the directory will grant M with fresh data).
    CacheEntry *entry = _array.findEntry(ctx.line);
    if (entry != nullptr)
        _array.invalidate(*entry);
    _tbes.find(ctx.line)->transient = StIM;
}

void
CpuCache::actProbeSend(TransCtx &ctx)
{
    // Stale-sharer probes (I/IS/IM) have nothing to invalidate; in every
    // state the probe is acked.
    _cProbes->inc();
    _xbar.route(_endpoint, _dirEndpoint, std::move(ctx.ack));
}

void
CpuCache::actWriteBackAck(TransCtx &ctx)
{
    _tbes.erase(ctx.line);
}

void
CpuCache::recvMsg(Packet &pkt)
{
    Event ev;
    switch (pkt.type) {
      case MsgType::LoadReq: ev = EvLoad; break;
      case MsgType::StoreReq: ev = EvStore; break;
      case MsgType::CpuData: ev = EvData; break;
      case MsgType::CpuPrbInv: ev = EvPrbInv; break;
      case MsgType::CpuPrbDowngrade: ev = EvPrbDowngrade; break;
      case MsgType::CpuWBAck: ev = EvWBAck; break;
      default:
        throw ProtocolError(name(), curTick(),
                            std::string("unexpected message ") +
                                msgTypeName(pkt.type));
    }
    TransCtx ctx;
    ctx.pkt = &pkt;
    ctx.line = lineAlign(pkt.addr, _cfg.lineBytes);
    const State st = lineState(ctx.line);

    if (ev == EvData && (st == StIS || st == StIM) &&
        _array.findEntry(ctx.line) == nullptr &&
        !_array.hasFreeWay(ctx.line)) {
        // Every way of the set is pinned by an MSHR; retry the fill once
        // one of them resolves. Checked before the transition is
        // recorded, so a retried fill does not double-count coverage.
        bool can_fill = false;
        for (const CacheEntry *way : _array.setEntries(ctx.line)) {
            if (!_tbes.contains(way->lineAddr)) {
                can_fill = true;
                break;
            }
        }
        if (!can_fill) {
            _cFillRetries->inc();
            scheduleAfter(_cfg.recycleLatency,
                          [this, pkt]() mutable {
                              recvMsg(pkt);
                          });
            return;
        }
    }
    if (ev == EvPrbInv || ev == EvPrbDowngrade) {
        ctx.ack.type = MsgType::CpuInvAck;
        ctx.ack.addr = ctx.line;
        ctx.ack.id = pkt.id;
    }
    // A response with no matching transient (Data outside IS/IM/SM,
    // WBAck outside MI) finds no row: the table raises the protocol
    // error.
    table().fireWith(*this, ev, st, ctx,
                     [&pkt] { return pkt.describe(); });
}

} // namespace drf
