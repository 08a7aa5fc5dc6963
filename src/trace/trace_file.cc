#include "trace/trace_file.hh"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

namespace drf
{

namespace
{

constexpr char kMagic[8] = {'D', 'R', 'F', 'T', 'R', 'C', '0', '1'};
// v1: original layout. v2: + guidance JSON string after the preset
// name. v3: + L1 protocol kind at the end of the system config, scope
// mode + CTA-scope percentage at the end of the tester config, and a
// per-episode scope byte in the schedule. v4: + SyncAcquire/SyncRelease
// records (scope in u8) in the event stream — the raw material of the
// offline happens-before reconstruction (src/predict/). The loader
// accepts all four; older files load with the unscoped VIPER defaults
// and no sync markers.
constexpr std::uint32_t kVersion = 4;
constexpr std::uint32_t kMinVersion = 1;

void
putU64(std::ostream &os, std::uint64_t v)
{
    char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<char>(v >> (8 * i));
    os.write(buf, 8);
}

void putU32(std::ostream &os, std::uint32_t v) { putU64(os, v); }
void putI32(std::ostream &os, std::int32_t v)
{
    putU64(os, static_cast<std::uint32_t>(v));
}
void putU8(std::ostream &os, std::uint8_t v) { putU64(os, v); }

void
putStr(std::ostream &os, const std::string &s)
{
    putU64(os, s.size());
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool
getU64(std::istream &is, std::uint64_t &v)
{
    char buf[8];
    if (!is.read(buf, 8))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
             << (8 * i);
    }
    return true;
}

template <typename T>
bool
getInt(std::istream &is, T &out)
{
    std::uint64_t v;
    if (!getU64(is, v))
        return false;
    out = static_cast<T>(v);
    return true;
}

bool
getStr(std::istream &is, std::string &s)
{
    std::uint64_t n;
    if (!getU64(is, n))
        return false;
    // 1 GB sanity cap: a corrupt length must not trigger a huge alloc.
    if (n > (1ull << 30))
        return false;
    s.resize(n);
    return n == 0 ||
           static_cast<bool>(is.read(s.data(),
                                     static_cast<std::streamsize>(n)));
}

void
putSystemConfig(std::ostream &os, const ApuSystemConfig &c,
                std::uint32_t version)
{
    putU32(os, c.numCus);
    putU32(os, c.numGpuL2s);
    putU32(os, c.numCpuCaches);
    putU32(os, c.lineBytes);
    putU64(os, c.l1.sizeBytes);
    putU32(os, c.l1.assoc);
    putU32(os, c.l1.lineBytes);
    putU64(os, c.l1.hitLatency);
    putU64(os, c.l1.recycleLatency);
    putU64(os, c.l2.sizeBytes);
    putU32(os, c.l2.assoc);
    putU32(os, c.l2.lineBytes);
    putU64(os, c.l2.recycleLatency);
    putU64(os, c.cpu.sizeBytes);
    putU32(os, c.cpu.assoc);
    putU32(os, c.cpu.lineBytes);
    putU64(os, c.cpu.hitLatency);
    putU64(os, c.cpu.recycleLatency);
    putU32(os, c.dir.lineBytes);
    putU64(os, c.dir.recycleLatency);
    putU64(os, c.dir.memPortLatency);
    putU64(os, c.xbarLatency);
    putU64(os, c.memLatency);
    putU32(os, static_cast<std::uint32_t>(c.fault));
    putU32(os, c.faultTriggerPct);
    putU64(os, c.faultSeed);
    if (version >= 3)
        putU32(os, static_cast<std::uint32_t>(c.l1.protocol));
}

bool
getSystemConfig(std::istream &is, ApuSystemConfig &c,
                std::uint32_t version)
{
    std::uint32_t fault = 0;
    bool ok = getInt(is, c.numCus) && getInt(is, c.numGpuL2s) &&
              getInt(is, c.numCpuCaches) && getInt(is, c.lineBytes) &&
              getInt(is, c.l1.sizeBytes) && getInt(is, c.l1.assoc) &&
              getInt(is, c.l1.lineBytes) && getInt(is, c.l1.hitLatency) &&
              getInt(is, c.l1.recycleLatency) &&
              getInt(is, c.l2.sizeBytes) && getInt(is, c.l2.assoc) &&
              getInt(is, c.l2.lineBytes) &&
              getInt(is, c.l2.recycleLatency) &&
              getInt(is, c.cpu.sizeBytes) && getInt(is, c.cpu.assoc) &&
              getInt(is, c.cpu.lineBytes) &&
              getInt(is, c.cpu.hitLatency) &&
              getInt(is, c.cpu.recycleLatency) &&
              getInt(is, c.dir.lineBytes) &&
              getInt(is, c.dir.recycleLatency) &&
              getInt(is, c.dir.memPortLatency) &&
              getInt(is, c.xbarLatency) && getInt(is, c.memLatency) &&
              getInt(is, fault) && getInt(is, c.faultTriggerPct) &&
              getInt(is, c.faultSeed);
    // Validate before casting: a corrupted or hand-edited header must
    // not silently arm an out-of-range fault (the injector would treat
    // the rogue value as "no site matches" and the replay would pass
    // vacuously).
    if (!ok || fault >= faultKindCount)
        return false;
    c.fault = static_cast<FaultKind>(fault);
    if (version >= 3) {
        std::uint32_t protocol = 0;
        if (!getInt(is, protocol) || protocol >= protocolKindCount)
            return false;
        c.l1.protocol = static_cast<ProtocolKind>(protocol);
    }
    return true;
}

void
putTesterConfig(std::ostream &os, const GpuTesterConfig &c,
                std::uint32_t version)
{
    putU32(os, c.wfsPerCu);
    putU32(os, c.lanes);
    putU32(os, c.episodesPerWf);
    putU32(os, c.episodeGen.actionsPerEpisode);
    putU32(os, c.episodeGen.lanes);
    putU32(os, c.episodeGen.storePct);
    putU32(os, c.episodeGen.laneActivePct);
    putU32(os, c.episodeGen.pickAttempts);
    putU32(os, c.variables.numSyncVars);
    putU32(os, c.variables.numNormalVars);
    putU64(os, c.variables.addrRangeBytes);
    putU32(os, c.variables.lineBytes);
    putU32(os, c.variables.varBytes);
    putU64(os, c.seed);
    putU64(os, c.deadlockThreshold);
    putU64(os, c.checkInterval);
    putU64(os, c.runLimit);
    if (version >= 3) {
        putU32(os, static_cast<std::uint32_t>(c.scopeMode));
        putU32(os, c.episodeGen.ctaScopePct);
    }
}

bool
getTesterConfig(std::istream &is, GpuTesterConfig &c,
                std::uint32_t version)
{
    bool ok = getInt(is, c.wfsPerCu) && getInt(is, c.lanes) &&
              getInt(is, c.episodesPerWf) &&
              getInt(is, c.episodeGen.actionsPerEpisode) &&
              getInt(is, c.episodeGen.lanes) &&
              getInt(is, c.episodeGen.storePct) &&
              getInt(is, c.episodeGen.laneActivePct) &&
              getInt(is, c.episodeGen.pickAttempts) &&
              getInt(is, c.variables.numSyncVars) &&
              getInt(is, c.variables.numNormalVars) &&
              getInt(is, c.variables.addrRangeBytes) &&
              getInt(is, c.variables.lineBytes) &&
              getInt(is, c.variables.varBytes) && getInt(is, c.seed) &&
              getInt(is, c.deadlockThreshold) &&
              getInt(is, c.checkInterval) && getInt(is, c.runLimit);
    if (!ok)
        return false;
    if (version >= 3) {
        std::uint32_t scope_mode = 0;
        if (!getInt(is, scope_mode) || scope_mode >= scopeModeCount ||
            !getInt(is, c.episodeGen.ctaScopePct)) {
            return false;
        }
        c.scopeMode = static_cast<ScopeMode>(scope_mode);
    }
    return true;
}

void
putResult(std::ostream &os, const TesterResult &r)
{
    putU8(os, r.passed ? 1 : 0);
    putU32(os, static_cast<std::uint32_t>(r.failureClass));
    putStr(os, r.report);
    putU64(os, r.ticks);
    putU64(os, r.events);
    putU64(os, r.episodes);
    putU64(os, r.loadsChecked);
    putU64(os, r.storesRetired);
    putU64(os, r.atomicsChecked);
}

bool
getResult(std::istream &is, TesterResult &r)
{
    std::uint8_t passed = 0;
    std::uint32_t cls = 0;
    bool ok = getInt(is, passed) && getInt(is, cls) &&
              getStr(is, r.report) && getInt(is, r.ticks) &&
              getInt(is, r.events) && getInt(is, r.episodes) &&
              getInt(is, r.loadsChecked) && getInt(is, r.storesRetired) &&
              getInt(is, r.atomicsChecked);
    if (!ok || cls >= failureClassCount)
        return false;
    r.passed = passed != 0;
    r.failureClass = static_cast<FailureClass>(cls);
    return true;
}

void
putSchedule(std::ostream &os, const EpisodeSchedule &s,
            std::uint32_t version)
{
    putU64(os, s.episodes.size());
    for (const Episode &e : s.episodes) {
        putU64(os, e.id);
        putU32(os, e.wavefrontId);
        putU32(os, e.syncVar);
        if (version >= 3)
            putU8(os, static_cast<std::uint8_t>(e.scope));
        putU64(os, e.numActions());
        for (std::uint32_t a = 0; a < e.numActions(); ++a) {
            const std::uint32_t lanes = e.laneCount(a);
            putU64(os, lanes);
            for (std::uint32_t lane = 0; lane < lanes; ++lane) {
                putU8(os, e.laneActive(a, lane) ? 1 : 0);
                if (e.laneActive(a, lane)) {
                    putU8(os, e.laneIsStore(a, lane) ? 1 : 0);
                    putU32(os, e.laneVar(a, lane));
                    // Loads serialize a zero store value, exactly as the
                    // old optional<LaneOp> layout did.
                    putU32(os, e.laneValue(a, lane));
                }
            }
        }
    }
}

bool
getSchedule(std::istream &is, EpisodeSchedule &s, std::uint32_t version)
{
    std::uint64_t count;
    if (!getU64(is, count) || count > (1ull << 32))
        return false;
    s.episodes.clear();
    s.episodes.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        Episode e;
        std::uint64_t num_actions;
        if (!getInt(is, e.id) || !getInt(is, e.wavefrontId) ||
            !getInt(is, e.syncVar)) {
            return false;
        }
        if (version >= 3) {
            std::uint8_t scope = 0;
            if (!getInt(is, scope) || scope >= scopeCount)
                return false;
            e.scope = static_cast<Scope>(scope);
        }
        if (!getU64(is, num_actions) || num_actions > (1ull << 24))
            return false;
        for (std::uint64_t a = 0; a < num_actions; ++a) {
            std::uint64_t num_lanes;
            if (!getU64(is, num_lanes) || num_lanes > (1ull << 16))
                return false;
            e.addAction(static_cast<std::uint32_t>(num_lanes));
            for (std::uint64_t lane = 0; lane < num_lanes; ++lane) {
                std::uint8_t present;
                if (!getInt(is, present))
                    return false;
                if (present == 0)
                    continue;
                std::uint8_t is_store;
                VarId var;
                std::uint32_t store_value;
                if (!getInt(is, is_store) || !getInt(is, var) ||
                    !getInt(is, store_value)) {
                    return false;
                }
                // Write links are reconstructed by rebuildIndexes below.
                if (is_store != 0) {
                    e.setStore(static_cast<std::uint32_t>(a),
                               static_cast<std::uint32_t>(lane), var,
                               store_value, Episode::kNoWrite);
                } else {
                    e.setLoad(static_cast<std::uint32_t>(a),
                              static_cast<std::uint32_t>(lane), var,
                              Episode::kNoWrite);
                }
            }
        }
        rebuildEpisodeIndexes(e);
        s.episodes.push_back(std::move(e));
    }
    return true;
}

bool
isSyncEvent(TraceEventKind kind)
{
    return kind == TraceEventKind::SyncAcquire ||
           kind == TraceEventKind::SyncRelease;
}

void
putEvents(std::ostream &os, const std::vector<TraceEvent> &events,
          std::uint32_t version)
{
    // Pre-v4 formats have no sync markers; drop them rather than emit
    // kinds an old reader never defined.
    std::uint64_t count = 0;
    for (const TraceEvent &ev : events) {
        if (version >= 4 || !isSyncEvent(ev.kind))
            ++count;
    }
    putU64(os, count);
    for (const TraceEvent &ev : events) {
        if (version < 4 && isSyncEvent(ev.kind))
            continue;
        putU64(os, ev.tick);
        putU64(os, ev.a);
        putU64(os, ev.b);
        putI32(os, ev.src);
        putI32(os, ev.dst);
        putU8(os, static_cast<std::uint8_t>(ev.kind));
        putU8(os, ev.u8);
        putU64(os, ev.u16);
        putU32(os, ev.u32);
    }
}

bool
getEvents(std::istream &is, std::vector<TraceEvent> &events)
{
    std::uint64_t count;
    if (!getU64(is, count) || count > (1ull << 32))
        return false;
    events.clear();
    events.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        TraceEvent ev;
        std::uint8_t kind;
        if (!getInt(is, ev.tick) || !getInt(is, ev.a) ||
            !getInt(is, ev.b) || !getInt(is, ev.src) ||
            !getInt(is, ev.dst) || !getInt(is, kind) ||
            !getInt(is, ev.u8) || !getInt(is, ev.u16) ||
            !getInt(is, ev.u32)) {
            return false;
        }
        if (kind >= traceEventKindCount)
            return false;
        ev.kind = static_cast<TraceEventKind>(kind);
        events.push_back(ev);
    }
    return true;
}

} // namespace

std::uint32_t
traceFormatVersion()
{
    return kVersion;
}

const char *
traceLoadStatusName(TraceLoadStatus status)
{
    switch (status) {
      case TraceLoadStatus::Ok: return "Ok";
      case TraceLoadStatus::Unreadable: return "Unreadable";
      case TraceLoadStatus::BadMagic: return "BadMagic";
      case TraceLoadStatus::FutureVersion: return "FutureVersion";
      case TraceLoadStatus::Corrupt: return "Corrupt";
    }
    return "?";
}

bool
saveTrace(std::ostream &os, const ReproTrace &trace,
          std::uint32_t version)
{
    version = std::min(std::max(version, kMinVersion), kVersion);
    os.write(kMagic, sizeof(kMagic));
    putU32(os, version);
    putStr(os, trace.presetName);
    if (version >= 2)
        putStr(os, trace.guidance);
    putSystemConfig(os, trace.system, version);
    putTesterConfig(os, trace.tester, version);
    putResult(os, trace.result);
    putSchedule(os, trace.schedule, version);
    putEvents(os, trace.events, version);
    return static_cast<bool>(os);
}

bool
saveTrace(std::ostream &os, const ReproTrace &trace)
{
    return saveTrace(os, trace, kVersion);
}

bool
saveTraceFile(const std::string &path, const ReproTrace &trace)
{
    std::ofstream os(path, std::ios::binary);
    return os && saveTrace(os, trace);
}

TraceLoadStatus
loadTraceStatus(std::istream &is, ReproTrace &trace,
                std::uint32_t *found_version)
{
    char magic[8];
    if (!is.read(magic, sizeof(magic)) ||
        !std::equal(std::begin(magic), std::end(magic),
                    std::begin(kMagic))) {
        return TraceLoadStatus::BadMagic;
    }
    std::uint32_t version = 0;
    if (!getInt(is, version))
        return TraceLoadStatus::Corrupt;
    if (found_version != nullptr)
        *found_version = version;
    // A version this build has never heard of is not corruption: the
    // file is (presumably) fine, the reader is just too old. Report it
    // distinctly so tools can say "upgrade" instead of "parse failure".
    if (version > kVersion)
        return TraceLoadStatus::FutureVersion;
    if (version < kMinVersion)
        return TraceLoadStatus::Corrupt;
    trace.guidance.clear();
    bool ok = getStr(is, trace.presetName) &&
              (version < 2 || getStr(is, trace.guidance)) &&
              getSystemConfig(is, trace.system, version) &&
              getTesterConfig(is, trace.tester, version) &&
              getResult(is, trace.result) &&
              getSchedule(is, trace.schedule, version) &&
              getEvents(is, trace.events);
    return ok ? TraceLoadStatus::Ok : TraceLoadStatus::Corrupt;
}

TraceLoadStatus
loadTraceFileStatus(const std::string &path, ReproTrace &trace,
                    std::uint32_t *found_version)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return TraceLoadStatus::Unreadable;
    return loadTraceStatus(is, trace, found_version);
}

} // namespace drf
