/**
 * @file
 * Low-overhead binary event trace recording.
 *
 * A TraceRecorder collects fixed-size POD records of everything a
 * debugging session needs to reconstruct *what happened* in a run:
 * episode issue/retire from the testers, message send/deliver from the
 * crossbar and its ports, and (event, state) transition activations
 * from all four protocol controllers. Components hold an optional
 * recorder pointer (nullptr = recording off, the common case); a
 * record is one bounds check plus a 40-byte append, so an attached
 * recorder perturbs nothing — the simulation schedule, every checker
 * verdict, and every digest stay bit-identical (pinned by
 * tests/test_trace.cc against the test_msg_goldens.cc constants).
 *
 * This header is deliberately dependency-free (sim/types.hh only) so
 * the memory and protocol layers can record without linking against
 * the higher-level trace library (file I/O, replay, shrinking — see
 * the other files in src/trace/).
 */

#ifndef DRF_TRACE_RECORDER_HH
#define DRF_TRACE_RECORDER_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace drf
{

/** What one trace record describes. */
enum class TraceEventKind : std::uint8_t
{
    EpisodeIssue,  ///< tester started an episode (a=id, b=syncVar, u32=wf)
    EpisodeRetire, ///< episode release completed   (a=id, b=syncVar, u32=wf)
    MsgSend,       ///< crossbar routed a message   (src/dst, a=addr, b=pktId)
    MsgDeliver,    ///< port delivered a message    (src/dst, a=addr, b=pktId)
    Transition,    ///< controller transition       (src=endpoint, u8=ev, u16=st)

    // DRFTRC01 v4: synchronization completion markers, recorded when an
    // episode's atomic acquire/release response reaches the tester.
    // Together with the per-episode scope they are the input to the
    // offline happens-before reconstruction (src/predict/hb.hh).
    SyncAcquire,   ///< acquire completed (a=id, b=syncVar, src=cu,
                   ///< u8=Scope, u32=wf)
    SyncRelease,   ///< release completed (a=id, b=syncVar, src=cu,
                   ///< u8=Scope, u32=wf)
};

/** Number of TraceEventKind values (for load-time validation). */
constexpr std::uint8_t traceEventKindCount = 7;

/**
 * One fixed-size trace record. The payload fields are overloaded per
 * kind (see TraceEventKind); everything is POD so recording is an
 * append and file I/O is a field-wise copy.
 */
struct TraceEvent
{
    Tick tick = 0;
    std::uint64_t a = 0;    ///< address / episode id
    std::uint64_t b = 0;    ///< packet id / sync var
    std::int32_t src = -1;  ///< source endpoint (or the acting endpoint)
    std::int32_t dst = -1;  ///< destination endpoint (messages only)
    TraceEventKind kind = TraceEventKind::MsgSend;
    std::uint8_t u8 = 0;    ///< MsgType (messages) / event row (transitions)
    std::uint16_t u16 = 0;  ///< state column (transitions)
    std::uint32_t u32 = 0;  ///< wavefront id / requestor
};

/**
 * Append-only buffer of TraceEvents with a hard cap: once @c maxEvents
 * records are held, further records are counted but dropped, so a
 * runaway run cannot exhaust host memory. Single-threaded by design —
 * one recorder belongs to one shard's ApuSystem, exactly like its
 * EventQueue.
 */
class TraceRecorder
{
  public:
    /** Default cap: 4M records = ~160 MB, far beyond any shrink input. */
    static constexpr std::size_t defaultMaxEvents = 4u << 20;

    explicit TraceRecorder(std::size_t max_events = defaultMaxEvents)
        : _maxEvents(max_events)
    {
    }

    /** Append one record (dropped and counted once the cap is hit). */
    void
    record(const TraceEvent &ev)
    {
        if (_events.size() < _maxEvents)
            _events.push_back(ev);
        else
            ++_dropped;
    }

    const std::vector<TraceEvent> &events() const { return _events; }

    /** Records dropped because the cap was reached. */
    std::uint64_t dropped() const { return _dropped; }

    /** Drop all records (the cap is kept). */
    void
    clear()
    {
        _events.clear();
        _dropped = 0;
    }

  private:
    std::size_t _maxEvents;
    std::vector<TraceEvent> _events;
    std::uint64_t _dropped = 0;
};

/**
 * Record one controller (event, state) transition activation; no-op
 * when @p trace is nullptr. Shared by all four protocol controllers.
 */
inline void
recordTransition(TraceRecorder *trace, Tick tick, int endpoint,
                 std::size_t ev, std::size_t st)
{
    if (trace == nullptr)
        return;
    TraceEvent rec;
    rec.tick = tick;
    rec.src = endpoint;
    rec.kind = TraceEventKind::Transition;
    rec.u8 = static_cast<std::uint8_t>(ev);
    rec.u16 = static_cast<std::uint16_t>(st);
    trace->record(rec);
}

} // namespace drf

#endif // DRF_TRACE_RECORDER_HH
