#include "tester/cpu_tester.hh"

#include <cassert>
#include <chrono>
#include <sstream>

#include "proto/protocol_error.hh"
#include "tester/tester_failure.hh"

namespace drf
{

CpuTester::CpuTester(ApuSystem &sys, const CpuTesterConfig &cfg)
    : _sys(sys), _cfg(cfg), _rng(cfg.seed),
      _expected(cfg.addrRangeBytes, 0),
      _busyAddrs(cfg.addrRangeBytes, kIdle)
{
    assert(sys.numCpuCaches() > 0 && "CPU tester needs CPU caches");
    for (unsigned i = 0; i < sys.numCpuCaches(); ++i) {
        sys.cpuCache(i).bindCoreResponse([this, i](Packet &&pkt) {
            onCoreResponse(i, pkt);
        });
        for (unsigned c = 0; c < cfg.coresPerCache; ++c) {
            Core core;
            core.cacheIdx = i;
            core.coreId = i * cfg.coresPerCache + c;
            _cores.push_back(core);
        }
    }
}

void
CpuTester::fail(FailureClass cls, const std::string &headline,
                const std::string &details)
{
    std::ostringstream os;
    os << "CPU tester FAILURE at tick " << _sys.eventq().curTick() << ": "
       << headline << "\n" << details;
    throw TesterFailure(os.str(), cls);
}

void
CpuTester::issueNext(Core &core)
{
    if (done())
        return;

    // Find a location no other core is currently transacting on. The
    // per-location serialization is what lets a strong model predict
    // every value; different bytes of one line stay concurrently hot.
    Addr addr = 0;
    bool found = false;
    for (unsigned attempt = 0; attempt < 16; ++attempt) {
        addr = _cfg.addrBase + _rng.below(_cfg.addrRangeBytes);
        if (_busyAddrs[slotOf(addr)] == kIdle) {
            found = true;
            break;
        }
    }
    if (!found) {
        // Everything this core rolled is busy; retry shortly.
        _sys.eventq().scheduleAfter(
            10, [this, &core] { issueNext(core); });
        return;
    }

    core.busy = true;
    core.curAddr = addr;
    core.curIsStore = _rng.pct(_cfg.storePct);
    core.issuedAt = _sys.eventq().curTick();
    _busyAddrs[slotOf(addr)] = core.coreId;

    Packet pkt;
    pkt.addr = addr;
    pkt.size = 1;
    pkt.requestor = core.coreId;
    pkt.id = (static_cast<PacketId>(core.coreId) << 48) |
             (core.issuedAt & 0xffffffffffffULL);
    pkt.issueTick = core.issuedAt;

    if (core.curIsStore) {
        std::uint8_t next =
            static_cast<std::uint8_t>(_expected[slotOf(addr)] + 1);
        core.curValue = next;
        pkt.type = MsgType::StoreReq;
        pkt.setValueLE(next, 1);
    } else {
        pkt.type = MsgType::LoadReq;
    }
    _sys.cpuCache(core.cacheIdx).coreRequest(std::move(pkt));
}

void
CpuTester::onCoreResponse(unsigned cache_idx, Packet &pkt)
{
    std::uint32_t core_id = pkt.requestor;
    Core &core = _cores.at(core_id);
    assert(core.cacheIdx == cache_idx);
    assert(core.busy && core.curAddr == pkt.addr);

    if (pkt.type == MsgType::LoadResp) {
        assert(pkt.dataLen >= 1);
        std::uint8_t got = pkt.data[0];
        std::uint8_t expected = _expected[slotOf(pkt.addr)];
        if (got != expected) {
            std::ostringstream os;
            os << "CPU load mismatch at addr 0x" << std::hex << pkt.addr
               << std::dec << ": loaded " << unsigned(got)
               << ", expected " << unsigned(expected) << " (core "
               << core_id << ")\n";
            fail(FailureClass::ValueMismatch, "CPU load value mismatch",
                 os.str());
        }
        ++_loadsChecked;
    } else if (pkt.type == MsgType::StoreAck) {
        _expected[slotOf(pkt.addr)] = core.curValue;
        ++_storesDone;
    } else {
        fail(FailureClass::Other, "unexpected CPU core response",
             pkt.describe());
    }

    core.busy = false;
    _busyAddrs[slotOf(pkt.addr)] = kIdle;
    issueNext(core);
}

void
CpuTester::watchdogCheck()
{
    Tick now = _sys.eventq().curTick();
    for (const auto &core : _cores) {
        if (core.busy &&
            watchdogExpired(now, core.issuedAt, _cfg.deadlockThreshold)) {
            std::ostringstream os;
            os << "core " << core.coreId << " request to addr 0x"
               << std::hex << core.curAddr << std::dec
               << " outstanding for " << (now - core.issuedAt)
               << " cycles\n";
            fail(FailureClass::Deadlock, "potential CPU-side deadlock",
                 os.str());
        }
    }
    if (!done()) {
        _sys.eventq().scheduleAfter(_cfg.checkInterval,
                                    [this] { watchdogCheck(); });
    }
}

TesterResult
CpuTester::run()
{
    assert(!_running && "tester already ran");
    _running = true;

    TesterResult result;
    auto t0 = std::chrono::steady_clock::now();

    try {
        for (auto &core : _cores)
            issueNext(core);
        _sys.eventq().scheduleAfter(_cfg.checkInterval,
                                    [this] { watchdogCheck(); });
        bool drained =
            _sys.eventq().run(_cfg.runLimit, _cfg.eventBudget);
        if (done()) {
            result.passed = true;
        } else if (_cfg.eventBudget != 0 &&
                   _sys.eventq().eventsExecuted() >= _cfg.eventBudget) {
            result.passed = false;
            result.failureClass = FailureClass::HostTimeout;
            result.report = "simulation event budget (" +
                            std::to_string(_cfg.eventBudget) +
                            " events) exhausted before completion";
        } else {
            result.passed = false;
            result.failureClass = FailureClass::LostProgress;
            result.report = drained
                ? "simulation drained before the target load count"
                : "run limit reached before completion";
        }
    } catch (const TesterFailure &failure) {
        result.passed = false;
        result.failureClass = failure.failureClass();
        result.report = failure.what();
    } catch (const ProtocolError &error) {
        result.passed = false;
        result.failureClass = FailureClass::ProtocolError;
        result.report = error.what();
    }

    auto t1 = std::chrono::steady_clock::now();
    result.hostSeconds = std::chrono::duration<double>(t1 - t0).count();
    result.ticks = _sys.eventq().curTick();
    result.events = _sys.eventq().eventsExecuted();
    result.loadsChecked = _loadsChecked;
    result.storesRetired = _storesDone;
    return result;
}

} // namespace drf
