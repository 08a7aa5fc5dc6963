/**
 * @file
 * Campaign journal: append-only JSONL checkpointing of shard outcomes.
 *
 * Every completed shard is serialized as one self-contained JSON line —
 * identity (index/name/seed), the full TesterResult, the host attempt
 * count, and the three coverage grids as exact per-cell hit counts. The
 * line format is shared by three consumers:
 *
 *  - the journal file a campaign appends as it merges each shard,
 *    which --resume loads to skip completed shards while reproducing
 *    bit-identical aggregates (sums and grid unions are commutative, so
 *    merging journaled outcomes in index order equals re-running them);
 *  - the fork-isolation pipe: a shard child process writes the same
 *    line to its parent, so process isolation and checkpointing
 *    exercise one serializer and one parser;
 *  - the fleet transport (src/fleet): a worker's Result frame carries
 *    the same line, so a fleet campaign journals, after one parse and
 *    re-serialization, the bytes the worker produced.
 *
 * Grids are reconstructible because every controller's TransitionSpec
 * is a static singleton (GpuL1Cache::spec() etc.): a record names its
 * level + spec and the loader maps that back to the live spec object.
 * The parser is the shared minimal JSON reader (json_value.hh); the
 * loader tolerates a truncated trailing line (a write interrupted by
 * SIGKILL/power loss) and takes the *last* record per shard index, so
 * a journal appended to across several resumed sessions stays valid.
 *
 * On-disk integrity: each appended line is sealed in a CRC32C
 * envelope — {"crc":"xxxxxxxx","data":<line>} — so the loader
 * can tell a record that was *damaged* (bit rot, a torn write spliced
 * against a later append) from one that is merely absent. Sealed and
 * bare (pre-envelope) lines coexist in one file; damage is counted per
 * category in JournalLoadStats, never silently absorbed as a parse
 * miss.
 *
 * Failure behavior: the writer checks every write() and fsync(). A
 * failed syscall is retried maxWriteRetries times with a small backoff
 * (short writes pick up exactly where the kernel stopped); if the
 * ladder is exhausted the journal *degrades* — it stops persisting,
 * the campaign keeps running, and JournalStatus reports degraded=true
 * with the errno and operation that caused it so the caller can
 * surface "this run is not resumable past shard N" instead of either
 * crashing the campaign or lying about durability. Fault-injection
 * hooks (Policy::writeFault / syncFault) let tests and chaos drills
 * drive this ladder deterministically: an injected short write
 * actually writes the allowed prefix, producing genuine torn bytes on
 * disk for the resume path to heal over.
 *
 * The writer buffers: append() seals a line and buffers it, and
 * flush() is the only write path — one write() for the whole buffer,
 * always ending on a record boundary, so the on-disk tail is at most
 * one torn record (exactly what the loader tolerates). The campaign
 * loop appends each drained batch and flushes it with fsync before the
 * next batch is reported; close flushes and fsyncs too. That is the
 * "shard boundary" durability policy: what a crash can lose is the
 * batch in flight — deterministic, re-runnable shards — never a torn
 * prefix of the file.
 */

#ifndef DRF_CAMPAIGN_JOURNAL_HH
#define DRF_CAMPAIGN_JOURNAL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/campaign.hh"

namespace drf
{

/** Serialize one completed shard as a JSONL line (no newline). */
std::string shardOutcomeToJson(const ShardOutcome &out);

/**
 * Parse a shardOutcomeToJson line. Returns false on malformed input,
 * unknown failure classes, or grid records whose spec name does not
 * match the live spec for their level — never a half-filled outcome.
 */
bool parseShardOutcome(const std::string &line, ShardOutcome &out);

/** Wrap one journal line in the CRC32C integrity envelope. */
std::string sealJournalRecord(const std::string &line);

/** How unsealing one journal line went. */
enum class JournalSeal
{
    Bare, ///< no envelope (legacy line / header); inner = line
    Ok,   ///< envelope present, checksum verified; inner = payload
    Bad,  ///< envelope present but damaged (CRC mismatch / malformed)
};

/**
 * Strip (and verify) the integrity envelope from one journal line.
 * On Bare and Ok, @p inner receives the usable payload; on Bad it is
 * left untouched and the line must be discarded as damaged.
 */
JournalSeal unsealJournalRecord(const std::string &line,
                                std::string &inner);

/** What loadJournal saw, for triage: damage is counted, not hidden. */
struct JournalLoadStats
{
    std::uint64_t lines = 0;       ///< non-empty lines scanned
    std::uint64_t records = 0;     ///< shard records accepted
    std::uint64_t crcSkipped = 0;  ///< envelope damaged (CRC/format)
    std::uint64_t parseSkipped = 0; ///< torn / unparseable payloads
};

/**
 * Load every shard record from @p path (see file comment for the
 * tolerance rules). Records are returned in ascending shard-index
 * order. Returns false only when the file cannot be opened. When
 * @p stats is non-null it receives the per-category skip counts.
 */
bool loadJournal(const std::string &path,
                 std::vector<ShardOutcome> &records,
                 JournalLoadStats *stats = nullptr);

/**
 * The records of @p path a resumed campaign may adopt, keyed by shard
 * index: loadJournal's, minus host-level outcomes (a crash or hang
 * describes the old host environment, not the deterministic
 * simulation, so those shards re-run). The caller adopts a record only
 * where its index, name and seed match the shard it would replace. An
 * empty or unreadable path yields none; @p stats as for loadJournal.
 */
std::map<std::size_t, ShardOutcome>
loadAdoptable(const std::string &path, JournalLoadStats *stats = nullptr);

/**
 * Outcome of an injected journal write (Policy::writeFault): the
 * kernel-visible prefix the write is allowed to persist, and the errno
 * the remainder fails with. The default is "no fault".
 */
struct JournalWriteFate
{
    std::size_t allow = std::numeric_limits<std::size_t>::max();
    int err = 0;
};

/** Writer health, for end-of-campaign triage output. */
struct JournalStatus
{
    bool enabled = false;  ///< a path was given and open() succeeded
    bool degraded = false; ///< retry ladder exhausted; no longer persisting
    std::uint64_t records = 0;       ///< lines accepted via append()
    std::uint64_t failedWrites = 0;  ///< write attempts that failed
    std::uint64_t fsyncFailures = 0; ///< fsync attempts that failed
    std::uint64_t retries = 0;       ///< backoff-and-retry rounds taken
    int lastErrno = 0;               ///< errno of the latest failure
    std::string lastOp;              ///< "write" or "fsync"
};

/** Render a JournalStatus as a JSON object (for triage reports). */
std::string journalStatusJson(const JournalStatus &status);

/** Append-only journal writer; thread-safe, batched (see file doc). */
class CampaignJournal
{
  public:
    /** Failure policy. */
    struct Policy
    {
        /** Retry rounds after a failed write()/fsync() before the
         *  journal degrades (so up to 1 + maxWriteRetries attempts). */
        unsigned maxWriteRetries = 3;

        /** Backoff before retry r is retryBackoffMs << (r-1). */
        unsigned retryBackoffMs = 2;

        /**
         * Fault-injection seams (tests / chaos drills). writeFault is
         * consulted once per write attempt with the bytes about to be
         * written and may cap the persisted prefix and fail the rest;
         * syncFault returns an errno to fail fsync with (0 = none).
         * Both see the *retry* attempts too, so a seeded plan decides
         * whether the ladder recovers or degrades.
         */
        std::function<JournalWriteFate(std::size_t)> writeFault;
        std::function<int()> syncFault;
    };

    /**
     * Open @p path for appending (created if missing). An empty path
     * produces a disabled journal: ok() is false, append() a no-op.
     */
    explicit CampaignJournal(const std::string &path);
    CampaignJournal(const std::string &path, const Policy &policy);

    /** Flushes, fsyncs, and closes. */
    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    bool ok() const { return _fd >= 0 && !_failed; }

    /** Writer health snapshot (thread-safe). */
    JournalStatus status();

    /** Seal one line and buffer it, '\n'-terminated, for flush(). */
    void append(const std::string &line);

    /**
     * Write the buffer out now (one syscall), optionally fsync. The
     * campaign loop calls this when a batch drains so its records are
     * resumable before the next shard is issued.
     */
    void flush(bool sync = false);

  private:
    void flushLocked(bool sync);
    bool writeBufferLocked();
    bool syncLocked();
    void degradeLocked(int err, const char *op);
    void backoffLocked(unsigned attempt);

    std::mutex _mutex;
    std::string _buffer;
    Policy _policy;
    JournalStatus _status;
    int _fd = -1;
    bool _failed = false;
};

} // namespace drf

#endif // DRF_CAMPAIGN_JOURNAL_HH
