#include "tester/gpu_tester.hh"

#include <cassert>
#include <chrono>
#include <sstream>

#include "proto/protocol_error.hh"
#include "tester/tester_failure.hh"
#include "trace/recorder.hh"

namespace drf
{

std::string
GpuTester::Outstanding::describe() const
{
    std::ostringstream os;
    os << msgTypeName(type) << " addr=0x" << std::hex << addr << std::dec
       << " wf=" << wf << " episode=" << episode;
    return os.str();
}

GpuTester::GpuTester(ApuSystem &sys, const GpuTesterConfig &cfg)
    : _sys(sys), _cfg(cfg), _rng(cfg.seed)
{
    assert(sys.numCus() > 0 && "GPU tester needs at least one CU");
    assert(cfg.episodeGen.lanes == cfg.lanes &&
           "episode generator must match the wavefront width");
    assert(!(cfg.record != nullptr && cfg.replay != nullptr) &&
           "record and replay are mutually exclusive");

    // The scope discipline lives in the generator; hand it the scope
    // mode and the wavefront-to-CU divisor.
    _cfg.episodeGen.scopeMode = _cfg.scopeMode;
    _cfg.episodeGen.wfsPerCu = _cfg.wfsPerCu;

    // The variable map consumes the same RNG draws in record and replay
    // mode, so a replayed run sees the identical address mapping.
    _vmap = std::make_unique<VariableMap>(cfg.variables, _rng);
    _refMem = std::make_unique<RefMemory>(*_vmap);
    if (cfg.replay == nullptr) {
        _gen = std::make_unique<EpisodeGenerator>(*_vmap, _cfg.episodeGen,
                                                  _rng);
    }

    for (unsigned cu = 0; cu < sys.numCus(); ++cu) {
        sys.l1(cu).bindCoreResponse([this, cu](Packet &&pkt) {
            onCoreResponse(cu, pkt);
        });
        for (unsigned w = 0; w < cfg.wfsPerCu; ++w) {
            Wavefront wf;
            wf.cu = cu;
            wf.globalId = cu * cfg.wfsPerCu + w;
            _wfs.push_back(std::move(wf));
        }
    }

    if (cfg.replay != nullptr) {
        _replayQueues.resize(_wfs.size());
        for (const Episode &e : cfg.replay->episodes) {
            if (e.wavefrontId < _replayQueues.size())
                _replayQueues[e.wavefrontId].push_back(&e);
        }
    }

    // Size the in-flight registry for the steady state (every lane of
    // every wavefront plus an atomic each) so it never rehashes.
    _outstanding.reserve(_wfs.size() * (cfg.lanes + 1) * 2);
    _refMem->reserveAtomics(_wfs.size() * cfg.episodesPerWf * 2 + 2);
}

std::uint64_t
GpuTester::episodeTarget(const Wavefront &wf) const
{
    if (_cfg.replay != nullptr)
        return _replayQueues[wf.globalId].size();
    return _cfg.episodesPerWf;
}

bool
GpuTester::allDone() const
{
    for (const auto &wf : _wfs) {
        if (wf.phase != Phase::Done || wf.episodesDone < episodeTarget(wf))
            return false;
    }
    return true;
}

void
GpuTester::traceEpisodeMark(bool issue, const Wavefront &wf) const
{
    TraceRecorder *trace = _sys.trace();
    if (trace == nullptr)
        return;
    TraceEvent ev;
    ev.tick = _sys.eventq().curTick();
    ev.kind = issue ? TraceEventKind::EpisodeIssue
                    : TraceEventKind::EpisodeRetire;
    ev.a = wf.episode.id;
    ev.b = wf.episode.syncVar;
    ev.src = static_cast<std::int32_t>(wf.cu);
    ev.u32 = wf.globalId;
    trace->record(ev);
}

void
GpuTester::traceSyncMark(bool acquire, const Wavefront &wf) const
{
    TraceRecorder *trace = _sys.trace();
    if (trace == nullptr)
        return;
    TraceEvent ev;
    ev.tick = _sys.eventq().curTick();
    ev.kind = acquire ? TraceEventKind::SyncAcquire
                      : TraceEventKind::SyncRelease;
    ev.a = wf.episode.id;
    ev.b = wf.episode.syncVar;
    ev.src = static_cast<std::int32_t>(wf.cu);
    ev.u8 = static_cast<std::uint8_t>(wf.episode.scope);
    ev.u32 = wf.globalId;
    trace->record(ev);
}

void
GpuTester::traceOp(const OpTrace &op)
{
    if (_recentOps.size() < historyDepth) {
        _recentOps.push_back(op);
    } else {
        _recentOps[_recentHead] = op;
        _recentHead = (_recentHead + 1) % historyDepth;
    }
}

std::string
GpuTester::recentHistory() const
{
    std::ostringstream os;
    os << "  recent transactions (oldest first):\n";
    for (std::size_t i = 0; i < _recentOps.size(); ++i) {
        const OpTrace &op =
            _recentOps[(_recentHead + i) % _recentOps.size()];
        os << "    " << op.tick << ": " << msgTypeName(op.type)
           << " addr=0x" << std::hex << op.addr << std::dec
           << " thread=" << op.thread << " wf=" << op.wf << " episode="
           << op.episode << " value=" << op.value << "\n";
    }
    return os.str();
}

void
GpuTester::fail(FailureClass cls, const std::string &headline,
                const std::string &details)
{
    std::ostringstream os;
    os << "GPU tester FAILURE at tick " << _sys.eventq().curTick() << ": "
       << headline << "\n" << details << recentHistory();
    throw TesterFailure(os.str(), cls);
}

void
GpuTester::startEpisode(Wavefront &wf)
{
    if (_cfg.replay != nullptr) {
        const auto &queue = _replayQueues[wf.globalId];
        if (wf.episodesDone >= queue.size()) {
            wf.phase = Phase::Done;
            return;
        }
        wf.episode = *queue[wf.episodesDone];
    } else {
        _gen->generateInto(wf.episode, wf.globalId);
        if (_cfg.record != nullptr)
            _cfg.record->episodes.push_back(wf.episode);
    }
    traceEpisodeMark(true, wf);
    wf.actionIdx = 0;
    wf.pendingResponses = 0;
    wf.phase = Phase::Acquire;

    // Perturbed replay: hold the acquire back by the configured delay.
    // Marking pendingResponses first keeps the wavefront visibly busy
    // (allDone stays false) while the deferred issue sits in the queue.
    const Tick delay = _cfg.perturb == nullptr
                           ? 0
                           : _cfg.perturb->delayFor(wf.episode.id);
    if (delay > 0) {
        wf.pendingResponses = 1;
        const std::uint32_t id = wf.globalId;
        _sys.eventq().scheduleAfter(delay, [this, id] {
            issueAtomic(_wfs[id], true);
        });
        return;
    }
    issueAtomic(wf, true);
}

void
GpuTester::issueAtomic(Wavefront &wf, bool acquire)
{
    // Lane 0 performs the episode's synchronization atomics.
    Packet pkt;
    pkt.type = MsgType::AtomicReq;
    pkt.addr = _vmap->addrOf(wf.episode.syncVar);
    pkt.size = _vmap->varBytes();
    pkt.atomicOperand = 1; // always grows: returned values are unique
    pkt.acquire = acquire;
    pkt.release = !acquire;
    pkt.scope = wf.episode.scope;
    pkt.requestor = threadId(wf, 0);
    pkt.id = _nextPktId++;
    pkt.issueTick = _sys.eventq().curTick();

    _outstanding.emplace(pkt.id,
                         Outstanding{pkt.issueTick, pkt.type, pkt.addr,
                                     wf.globalId, wf.episode.id});

    wf.pendingResponses = 1;
    _sys.l1(wf.cu).coreRequest(std::move(pkt));
}

void
GpuTester::issueAction(Wavefront &wf)
{
    // Skip vector actions in which no lane participates.
    const std::uint32_t num_actions = wf.episode.numActions();
    while (wf.actionIdx < num_actions &&
           !wf.episode.actionHasActiveLane(
               static_cast<std::uint32_t>(wf.actionIdx))) {
        ++wf.actionIdx;
    }

    if (wf.actionIdx >= num_actions) {
        wf.phase = Phase::Release;
        issueAtomic(wf, false);
        return;
    }

    const std::uint32_t a = static_cast<std::uint32_t>(wf.actionIdx);
    const std::uint32_t lanes = wf.episode.laneCount(a);
    wf.pendingResponses = 0;

    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        if (!wf.episode.laneActive(a, lane))
            continue;

        Packet pkt;
        pkt.addr = _vmap->addrOf(wf.episode.laneVar(a, lane));
        pkt.size = _vmap->varBytes();
        pkt.requestor = threadId(wf, lane);
        pkt.id = _nextPktId++;
        pkt.issueTick = _sys.eventq().curTick();

        if (wf.episode.laneIsStore(a, lane)) {
            pkt.type = MsgType::StoreReq;
            pkt.setValueLE(wf.episode.laneValue(a, lane), pkt.size);
        } else {
            pkt.type = MsgType::LoadReq;
        }
        _outstanding.emplace(pkt.id,
                             Outstanding{pkt.issueTick, pkt.type,
                                         pkt.addr, wf.globalId,
                                         wf.episode.id});

        ++wf.pendingResponses;
        _sys.l1(wf.cu).coreRequest(std::move(pkt));
    }
    assert(wf.pendingResponses > 0);
}

void
GpuTester::checkLoad(Wavefront &wf, unsigned lane, const Packet &pkt)
{
    // Identify the variable from the address.
    const std::uint32_t a = static_cast<std::uint32_t>(wf.actionIdx);
    assert(wf.episode.laneActive(a, lane));
    assert(!wf.episode.laneIsStore(a, lane));
    const VarId var = wf.episode.laneVar(a, lane);
    assert(_vmap->addrOf(var) == pkt.addr);

    std::uint64_t got = pkt.valueLE();

    // Expected value: the lane's own earlier write in this episode
    // (pre-linked by the generator as a write index, so no lookup), or
    // the globally visible (retired) value.
    std::uint64_t expected;
    const std::uint32_t wi = wf.episode.laneWriteIdx(a, lane);
    if (wi != Episode::kNoWrite) {
        assert(wf.episode.writes[wi].info.lane == lane &&
               "generation rules allow only same-lane read-after-write");
        expected = wf.episode.writes[wi].info.value;
    } else {
        expected = _refMem->value(var);
    }

    AccessRecord reader;
    reader.threadId = threadId(wf, lane);
    reader.threadGroupId = wf.globalId;
    reader.episodeId = wf.episode.id;
    reader.addr = pkt.addr;
    reader.cycle = _sys.eventq().curTick();
    reader.value = got;

    if (got != expected) {
        std::ostringstream os;
        os << "read-write inconsistency on var " << var << " (addr=0x"
           << std::hex << pkt.addr << std::dec << "): loaded " << got
           << ", expected " << expected << "\n";
        os << "  Last Reader: " << reader.describe() << "\n";
        const auto writer = _refMem->lastWriter(var);
        os << "  Last Writer: "
           << (writer ? writer->describe() : std::string("<none>"))
           << "\n";
        // With scoped synchronization the base generation rules are
        // still race-free, so a mismatch against another CU's write is
        // attributable to scope: stale data a CTA-scoped acquire did not
        // invalidate, or an undrained CTA-scoped release. Same-CU
        // mismatches remain plain ValueMismatch (the L1 is coherent
        // within its own CU regardless of scope).
        FailureClass cls = FailureClass::ValueMismatch;
        if (_cfg.scopeMode != ScopeMode::None && writer &&
            writer->threadGroupId / _cfg.wfsPerCu != wf.cu) {
            os << "  reader episode scope: "
               << scopeName(wf.episode.scope) << " (cu " << wf.cu
               << "), writer cu "
               << (writer->threadGroupId / _cfg.wfsPerCu) << "\n";
            cls = FailureClass::ScopeViolation;
        }
        fail(cls,
             cls == FailureClass::ScopeViolation
                 ? "scoped-synchronization violation"
                 : "load value mismatch",
             os.str());
    }

    _refMem->noteRead(var, reader);
    ++_loadsChecked;
}

void
GpuTester::checkAtomic(Wavefront &wf, const Packet &pkt)
{
    AccessRecord record;
    record.threadId = threadId(wf, 0);
    record.threadGroupId = wf.globalId;
    record.episodeId = wf.episode.id;
    record.addr = pkt.addr;
    record.cycle = _sys.eventq().curTick();
    record.value = pkt.atomicResult;

    auto violation = _refMem->noteAtomicReturn(wf.episode.syncVar, record);
    if (violation) {
        std::ostringstream os;
        os << "duplicate atomic return value " << pkt.atomicResult
           << " on sync var " << wf.episode.syncVar << " (addr=0x"
           << std::hex << pkt.addr << std::dec << ")\n";
        os << "  First:  " << violation->first.describe() << "\n";
        os << "  Second: " << violation->second.describe() << "\n";
        fail(FailureClass::AtomicViolation, "atomic lost-update",
             os.str());
    }
    ++_atomicsChecked;
}

void
GpuTester::retireEpisode(Wavefront &wf)
{
    // The release completed: the episode's writes become globally
    // visible and enter the reference memory.
    for (const Episode::WriteEntry &w : wf.episode.writes) {
        AccessRecord record;
        record.threadId = threadId(wf, w.info.lane);
        record.threadGroupId = wf.globalId;
        record.episodeId = wf.episode.id;
        record.addr = _vmap->addrOf(w.var);
        record.cycle = w.info.completedAt;
        record.value = w.info.value;
        _refMem->applyWrite(w.var, record);
    }
    if (_cfg.replay == nullptr)
        _gen->retire(wf.episode);
    ++_episodesRetired;
    ++wf.episodesDone;
    traceEpisodeMark(false, wf);

    if (wf.episodesDone < episodeTarget(wf)) {
        startEpisode(wf);
    } else {
        wf.phase = Phase::Done;
    }
}

void
GpuTester::onCoreResponse(unsigned cu, Packet &pkt)
{
    _outstanding.erase(pkt.id);

    std::uint32_t tid = pkt.requestor;
    std::uint32_t wf_id = tid / _cfg.lanes;
    unsigned lane = tid % _cfg.lanes;
    Wavefront &wf = _wfs.at(wf_id);
    assert(wf.cu == cu);

    traceOp(OpTrace{pkt.type, pkt.addr, tid, wf_id, wf.episode.id,
                    pkt.type == MsgType::AtomicResp
                        ? pkt.atomicResult
                        : pkt.valueLE(),
                    _sys.eventq().curTick()});

    switch (pkt.type) {
      case MsgType::LoadResp:
        assert(wf.phase == Phase::Actions);
        checkLoad(wf, lane, pkt);
        break;
      case MsgType::StoreAck: {
        assert(wf.phase == Phase::Actions);
        const std::uint32_t wi = wf.episode.laneWriteIdx(
            static_cast<std::uint32_t>(wf.actionIdx), lane);
        assert(wi != Episode::kNoWrite);
        wf.episode.writes[wi].info.completedAt = _sys.eventq().curTick();
        break;
      }
      case MsgType::AtomicResp:
        assert(wf.phase == Phase::Acquire || wf.phase == Phase::Release);
        checkAtomic(wf, pkt);
        traceSyncMark(wf.phase == Phase::Acquire, wf);
        break;
      default:
        fail(FailureClass::Other, "unexpected core response",
             pkt.describe());
    }

    assert(wf.pendingResponses > 0);
    if (--wf.pendingResponses > 0)
        return;

    // Lockstep: the whole wavefront finished its current step.
    switch (wf.phase) {
      case Phase::Acquire:
        wf.phase = Phase::Actions;
        issueAction(wf);
        break;
      case Phase::Actions:
        ++wf.actionIdx;
        issueAction(wf);
        break;
      case Phase::Release:
        retireEpisode(wf);
        break;
      case Phase::Done:
        assert(false && "response for a finished wavefront");
        break;
    }
}

void
GpuTester::watchdogCheck()
{
    Tick now = _sys.eventq().curTick();
    // Report the expired request with the smallest packet id — the same
    // entry the old id-sorted std::map iteration failed on first — so
    // the deadlock report stays independent of table layout.
    const Outstanding *worst = nullptr;
    PacketId worst_id = 0;
    _outstanding.forEach([&](std::uint64_t id, const Outstanding &req) {
        if (watchdogExpired(now, req.issued, _cfg.deadlockThreshold) &&
            (worst == nullptr || id < worst_id)) {
            worst = &req;
            worst_id = id;
        }
    });
    if (worst != nullptr) {
        std::ostringstream os;
        os << "request outstanding for " << (now - worst->issued)
           << " cycles (threshold " << _cfg.deadlockThreshold
           << "): " << worst->describe() << " issued at " << worst->issued
           << "\n";
        fail(FailureClass::Deadlock,
             "potential deadlock (no forward progress)", os.str());
    }
    if (!allDone()) {
        _sys.eventq().scheduleAfter(_cfg.checkInterval,
                                    [this] { watchdogCheck(); });
    }
}

TesterResult
GpuTester::run()
{
    assert(!_running && "tester already ran");
    _running = true;

    TesterResult result;
    auto t0 = std::chrono::steady_clock::now();

    try {
        for (auto &wf : _wfs)
            startEpisode(wf);
        _sys.eventq().scheduleAfter(_cfg.checkInterval,
                                    [this] { watchdogCheck(); });
        bool drained =
            _sys.eventq().run(_cfg.runLimit, _cfg.eventBudget);
        if (allDone()) {
            result.passed = true;
        } else if (_cfg.eventBudget != 0 &&
                   _sys.eventq().eventsExecuted() >= _cfg.eventBudget) {
            // Supervisor budget, not a protocol verdict: the shard kept
            // executing events without finishing inside its allowance.
            result.passed = false;
            result.failureClass = FailureClass::HostTimeout;
            result.report = "simulation event budget (" +
                            std::to_string(_cfg.eventBudget) +
                            " events) exhausted before completion";
        } else {
            result.passed = false;
            result.failureClass = FailureClass::LostProgress;
            result.report = drained
                ? "simulation drained before all wavefronts finished "
                  "(lost event / dropped message)"
                : "run limit reached before completion";
        }
    } catch (const TesterFailure &failure) {
        result.passed = false;
        result.failureClass = failure.failureClass();
        result.report = failure.what();
    } catch (const ProtocolError &error) {
        // A coherence controller hit an undefined transition. Convert it
        // into a structured failure so a campaign shard can report it
        // without killing sibling shards in the same process.
        result.passed = false;
        result.failureClass = FailureClass::ProtocolError;
        result.report = std::string(error.what()) + "\n" +
                        recentHistory();
    }

    auto t1 = std::chrono::steady_clock::now();
    result.hostSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    result.ticks = _sys.eventq().curTick();
    result.events = _sys.eventq().eventsExecuted();
    result.episodes = _episodesRetired;
    result.loadsChecked = _loadsChecked;
    result.storesRetired = _refMem->writesRetired();
    result.atomicsChecked = _atomicsChecked;
    return result;
}

} // namespace drf
