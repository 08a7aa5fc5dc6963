#include "campaign/journal.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "campaign/campaign_json.hh"
#include "campaign/json_value.hh"
#include "campaign/posix_io.hh"
#include "chaos/chaos.hh"
#include "proto/directory.hh"
#include "proto/gpu_l1.hh"
#include "proto/gpu_l2.hh"

namespace drf
{

namespace
{

/**
 * (level, spec name) -> live spec singleton. Campaign shards only ever
 * carry these three grids (gpuShard/cpuShard in campaign.cc); the L1
 * level has one spec per protocol variant, distinguished by name.
 */
const TransitionSpec *
specForLevel(const std::string &level, const std::string &spec_name)
{
    if (level == "l1") {
        for (ProtocolKind kind :
             {ProtocolKind::Viper, ProtocolKind::Lrcc}) {
            const TransitionSpec &spec = GpuL1Cache::specFor(kind);
            if (spec.name() == spec_name)
                return &spec;
        }
        return nullptr;
    }
    if (level == "l2")
        return &GpuL2Cache::spec();
    if (level == "dir")
        return &Directory::spec();
    return nullptr;
}

void
writeGrid(JsonWriter &w, const char *level, const CoverageGrid &grid)
{
    const TransitionSpec &spec = grid.spec();
    w.beginObject();
    w.key("level").value(level);
    w.key("spec").value(spec.name());
    w.key("cells").beginArray();
    for (std::size_t e = 0; e < spec.numEvents(); ++e) {
        for (std::size_t s = 0; s < spec.numStates(); ++s) {
            std::uint64_t count = grid.count(e, s);
            if (count == 0)
                continue;
            w.beginArray();
            w.value(static_cast<std::uint64_t>(spec.cell(e, s)));
            w.value(count);
            w.endArray();
        }
    }
    w.endArray();
    w.endObject();
}

std::unique_ptr<CoverageGrid>
parseGrid(const JsonValue &v)
{
    if (v.type != JsonValue::Type::Object)
        return nullptr;
    const JsonValue *level = v.find("level");
    const JsonValue *spec_name = v.find("spec");
    const JsonValue *cells = v.find("cells");
    if (!level || !spec_name || !cells ||
        cells->type != JsonValue::Type::Array)
        return nullptr;
    const TransitionSpec *spec =
        specForLevel(level->string, spec_name->string);
    if (!spec || spec->name() != spec_name->string)
        return nullptr;
    auto grid = std::make_unique<CoverageGrid>(*spec);
    for (const JsonValue &cell : cells->array) {
        if (cell.type != JsonValue::Type::Array ||
            cell.array.size() != 2)
            return nullptr;
        std::uint64_t flat = cell.array[0].asU64();
        std::uint64_t count = cell.array[1].asU64();
        if (flat >= spec->numCells())
            return nullptr;
        std::size_t event = flat / spec->numStates();
        std::size_t state = flat % spec->numStates();
        grid->setCount(event, state, count);
    }
    return grid;
}

} // namespace

std::string
shardOutcomeToJson(const ShardOutcome &out)
{
    JsonWriter w;
    w.beginObject();
    w.key("v").value(1);
    w.key("kind").value("shard");
    w.key("index").value(static_cast<std::uint64_t>(out.index));
    w.key("name").value(out.name);
    w.key("seed").value(out.seed);
    w.key("attempts").value(out.attempts);
    w.key("passed").value(out.result.passed);
    w.key("failure_class")
        .value(failureClassName(out.result.failureClass));
    w.key("report").value(out.result.report);
    w.key("ticks").value(out.result.ticks);
    w.key("events").value(out.result.events);
    w.key("episodes").value(out.result.episodes);
    w.key("loads_checked").value(out.result.loadsChecked);
    w.key("stores_retired").value(out.result.storesRetired);
    w.key("atomics_checked").value(out.result.atomicsChecked);
    w.key("host_seconds").value(out.result.hostSeconds);
    w.key("grids").beginArray();
    if (out.l1)
        writeGrid(w, "l1", *out.l1);
    if (out.l2)
        writeGrid(w, "l2", *out.l2);
    if (out.dir)
        writeGrid(w, "dir", *out.dir);
    w.endArray();
    w.endObject();
    return w.str();
}

bool
parseShardOutcome(const std::string &line, ShardOutcome &out)
{
    JsonValue root;
    if (!parseJson(line, root) ||
        root.type != JsonValue::Type::Object)
        return false;

    const JsonValue *kind = root.find("kind");
    if (!kind || kind->string != "shard")
        return false;

    const JsonValue *index = root.find("index");
    const JsonValue *name = root.find("name");
    const JsonValue *seed = root.find("seed");
    const JsonValue *attempts = root.find("attempts");
    const JsonValue *passed = root.find("passed");
    const JsonValue *cls = root.find("failure_class");
    const JsonValue *report = root.find("report");
    const JsonValue *ticks = root.find("ticks");
    const JsonValue *events = root.find("events");
    const JsonValue *episodes = root.find("episodes");
    const JsonValue *loads = root.find("loads_checked");
    const JsonValue *stores = root.find("stores_retired");
    const JsonValue *atomics = root.find("atomics_checked");
    const JsonValue *host_seconds = root.find("host_seconds");
    if (!index || !name || !seed || !attempts || !passed || !cls ||
        !report || !ticks || !events || !episodes || !loads || !stores ||
        !atomics || !host_seconds)
        return false;

    std::optional<FailureClass> failure_class =
        parseFailureClass(cls->string);
    if (!failure_class)
        return false;

    ShardOutcome parsed;
    parsed.index = static_cast<std::size_t>(index->asU64());
    parsed.name = name->string;
    parsed.seed = seed->asU64();
    parsed.attempts = static_cast<unsigned>(attempts->asU64());
    parsed.result.passed = passed->boolean;
    parsed.result.failureClass = *failure_class;
    parsed.result.report = report->string;
    parsed.result.ticks = ticks->asU64();
    parsed.result.events = events->asU64();
    parsed.result.episodes = episodes->asU64();
    parsed.result.loadsChecked = loads->asU64();
    parsed.result.storesRetired = stores->asU64();
    parsed.result.atomicsChecked = atomics->asU64();
    parsed.result.hostSeconds = host_seconds->asDouble();

    if (const JsonValue *grids = root.find("grids")) {
        if (grids->type != JsonValue::Type::Array)
            return false;
        for (const JsonValue &g : grids->array) {
            const JsonValue *level = g.find("level");
            std::unique_ptr<CoverageGrid> grid = parseGrid(g);
            if (!level || !grid)
                return false;
            if (level->string == "l1")
                parsed.l1 = std::move(grid);
            else if (level->string == "l2")
                parsed.l2 = std::move(grid);
            else if (level->string == "dir")
                parsed.dir = std::move(grid);
            else
                return false;
        }
    }

    out = std::move(parsed);
    return true;
}

std::string
sealJournalRecord(const std::string &line)
{
    char head[32];
    std::snprintf(head, sizeof(head), "{\"crc\":\"%08x\",\"data\":",
                  chaos::crc32c(line));
    std::string out;
    out.reserve(line.size() + 28);
    out.append(head);
    out.append(line);
    out.push_back('}');
    return out;
}

JournalSeal
unsealJournalRecord(const std::string &line, std::string &inner)
{
    // {"crc":"xxxxxxxx","data":<payload>}  — fixed-offset envelope; the
    // payload is a JsonWriter line and so contains no raw newlines.
    constexpr std::size_t kPrefix = 8; // {"crc":"
    constexpr std::size_t kHex = 8;
    constexpr std::size_t kMid = 9; // ","data":
    if (line.size() < kPrefix + kHex + kMid + 1 ||
        line.compare(0, kPrefix, "{\"crc\":\"") != 0)
        return JournalSeal::Bare;
    if (line.compare(kPrefix + kHex, kMid, "\",\"data\":") != 0 ||
        line.back() != '}')
        return JournalSeal::Bad;
    std::uint32_t want = 0;
    for (std::size_t i = kPrefix; i < kPrefix + kHex; ++i) {
        char c = line[i];
        unsigned digit = 0;
        if (c >= '0' && c <= '9')
            digit = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<unsigned>(c - 'a') + 10;
        else
            return JournalSeal::Bad;
        want = (want << 4) | digit;
    }
    std::string payload =
        line.substr(kPrefix + kHex + kMid,
                    line.size() - (kPrefix + kHex + kMid) - 1);
    if (chaos::crc32c(payload) != want)
        return JournalSeal::Bad;
    inner = std::move(payload);
    return JournalSeal::Ok;
}

std::string
journalStatusJson(const JournalStatus &status)
{
    JsonWriter w;
    w.beginObject();
    w.key("enabled").value(status.enabled);
    w.key("degraded").value(status.degraded);
    w.key("records").value(status.records);
    w.key("failed_writes").value(status.failedWrites);
    w.key("fsync_failures").value(status.fsyncFailures);
    w.key("retries").value(status.retries);
    w.key("last_errno")
        .value(static_cast<std::uint64_t>(
            status.lastErrno < 0 ? 0 : status.lastErrno));
    w.key("last_op").value(status.lastOp);
    w.endObject();
    return w.str();
}

bool
loadJournal(const std::string &path, std::vector<ShardOutcome> &records,
            JournalLoadStats *stats)
{
    std::ifstream in(path);
    if (!in.is_open())
        return false;

    JournalLoadStats counted;
    std::map<std::size_t, ShardOutcome> latest; // last record wins
    std::string line;
    std::string inner;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++counted.lines;
        JournalSeal seal = unsealJournalRecord(line, inner);
        if (seal == JournalSeal::Bad) {
            // Detected damage: bit rot under the envelope, or a torn
            // write spliced against a later append. Self-heal by
            // skipping — the shard is simply re-run on resume.
            ++counted.crcSkipped;
            continue;
        }
        const std::string &payload =
            seal == JournalSeal::Ok ? inner : line;
        ShardOutcome out;
        if (parseShardOutcome(payload, out)) {
            ++counted.records;
            latest[out.index] = std::move(out);
            continue;
        }
        // Structured non-shard records (the campaign header) are
        // expected; anything else unparseable is a torn line — the
        // classic interrupted-write tail — skipped, not fatal: a
        // resumable journal beats a strict one here.
        JsonValue v;
        if (parseJson(payload, v) &&
            v.type == JsonValue::Type::Object) {
            const JsonValue *kind = v.find("kind");
            if (kind && kind->string != "shard")
                continue;
        }
        ++counted.parseSkipped;
    }

    records.clear();
    records.reserve(latest.size());
    for (auto &[idx, out] : latest)
        records.push_back(std::move(out));
    if (stats)
        *stats = counted;
    return true;
}

std::map<std::size_t, ShardOutcome>
loadAdoptable(const std::string &path, JournalLoadStats *stats)
{
    std::map<std::size_t, ShardOutcome> adoptable;
    std::vector<ShardOutcome> records;
    if (path.empty() || !loadJournal(path, records, stats))
        return adoptable;
    for (ShardOutcome &rec : records) {
        if (!isHostFailureClass(rec.result.failureClass))
            adoptable.emplace(rec.index, std::move(rec));
    }
    return adoptable;
}

CampaignJournal::CampaignJournal(const std::string &path)
    : CampaignJournal(path, Policy{})
{
}

CampaignJournal::CampaignJournal(const std::string &path,
                                 const Policy &policy)
    : _policy(policy)
{
    if (path.empty())
        return;
    _fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    _status.enabled = _fd >= 0;
    if (_fd < 0) {
        _status.lastErrno = errno;
        _status.lastOp = "open";
    }
}

JournalStatus
CampaignJournal::status()
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _status;
}

CampaignJournal::~CampaignJournal()
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_fd < 0)
        return;
    flushLocked(/*sync=*/true);
    ::close(_fd);
    _fd = -1;
}

void
CampaignJournal::append(const std::string &line)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_fd < 0 || _failed)
        return;
    _buffer.append(sealJournalRecord(line));
    _buffer.push_back('\n');
    ++_status.records;
}

void
CampaignJournal::flush(bool sync)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_fd < 0)
        return;
    flushLocked(sync);
}

void
CampaignJournal::degradeLocked(int err, const char *op)
{
    // Ladder exhausted: stop persisting, let the campaign finish. The
    // unwritten suffix is dropped — those shards are deterministic and
    // simply re-run on resume; what must NOT happen is the campaign
    // dying over a sick disk or the status pretending durability.
    _failed = true;
    _status.degraded = true;
    _status.lastErrno = err;
    _status.lastOp = op;
    _buffer.clear();
}

void
CampaignJournal::backoffLocked(unsigned attempt)
{
    if (_policy.retryBackoffMs == 0)
        return;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<std::uint64_t>(_policy.retryBackoffMs)
        << (attempt - 1)));
}

bool
CampaignJournal::writeBufferLocked()
{
    // One write() per attempt for the whole batch; flushes always
    // carry whole lines, so a crash can tear at most the final
    // kernel-side write, which the loader tolerates. A short write —
    // injected or real — persists its prefix and the retry resumes at
    // the exact byte the kernel (or the fault plan) stopped at.
    unsigned failures = 0;
    while (!_buffer.empty()) {
        std::size_t allow = _buffer.size();
        int injected = 0;
        if (_policy.writeFault) {
            JournalWriteFate fate = _policy.writeFault(_buffer.size());
            if (fate.allow < allow || fate.err != 0) {
                allow = std::min(fate.allow, _buffer.size());
                injected = fate.err != 0 ? fate.err : EIO;
            }
        }
        int err = injected;
        if (allow > 0) {
            if (io::writeAll(_fd, _buffer.data(), allow))
                _buffer.erase(0, allow);
            else
                err = errno != 0 ? errno : EIO;
        }
        if (err == 0)
            continue; // full buffer out -> loop exits
        ++_status.failedWrites;
        _status.lastErrno = err;
        _status.lastOp = "write";
        ++failures;
        if (failures > _policy.maxWriteRetries) {
            degradeLocked(err, "write");
            return false;
        }
        ++_status.retries;
        backoffLocked(failures);
    }
    return true;
}

bool
CampaignJournal::syncLocked()
{
    unsigned failures = 0;
    for (;;) {
        int err = _policy.syncFault ? _policy.syncFault() : 0;
        if (err == 0) {
            if (::fsync(_fd) != 0)
                err = errno != 0 ? errno : EIO;
        }
        if (err == 0)
            return true;
        ++_status.fsyncFailures;
        _status.lastErrno = err;
        _status.lastOp = "fsync";
        ++failures;
        if (failures > _policy.maxWriteRetries) {
            degradeLocked(err, "fsync");
            return false;
        }
        ++_status.retries;
        backoffLocked(failures);
    }
}

void
CampaignJournal::flushLocked(bool sync)
{
    if (_failed || _fd < 0)
        return;
    if (!_buffer.empty() && !writeBufferLocked())
        return;
    if (sync)
        syncLocked();
}

} // namespace drf
