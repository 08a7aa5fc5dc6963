/**
 * @file
 * Table-driven GPU L1 data cache controller ("TCP").
 *
 * One controller, two protocols (ProtocolKind), each expressed purely
 * as a TransitionTable over the shared action set:
 *
 * VIPER — write-through, no write-allocate, release consistency:
 *  - Stores are performed immediately using per-byte masks and written
 *    through to the L2; the L1 never holds the only copy of dirty data
 *    and never stalls for exclusive permission.
 *  - An acquire (the atomic that opens a tester episode, or a
 *    load-acquire) flash-invalidates every valid line so later loads
 *    cannot see stale data.
 *  - A release waits for all outstanding write-throughs to complete
 *    before its atomic is issued, making prior stores globally visible.
 *  - Atomics are never performed in the L1; they are forwarded below.
 *
 * LRCC — write-back, write-allocate ownership variant:
 *  - Stores dirty the line locally (state M) and complete at the L1.
 *  - A release writes every Modified line back (demoting it to Owned)
 *    and waits for the write-backs to drain.
 *  - An acquire writes dirty lines back, then flash-invalidates.
 *  - Atomics first write back a Modified copy, then forward below.
 *
 * Scoped synchronization: a CTA-scope acquire skips the
 * flash-invalidate and a CTA-scope release skips the write-back/drain —
 * the CU-local L1 *is* the CTA's coherence point. Unscoped (Scope::None)
 * packets keep the conservative GPU-wide semantics, bit-identical to
 * the pre-scope implementation.
 *
 * States: I (no copy), V (valid clean copy), A (miss/atomic outstanding
 * in an MSHR), plus O (owned, written back) and M (modified) for LRCC.
 * VIPER events are exactly Table I of the paper. The reconstructed
 * transition tables are documented in DESIGN.md and printed by
 * bench/fig4_tables.
 */

#ifndef DRF_PROTO_GPU_L1_HH
#define DRF_PROTO_GPU_L1_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "coverage/coverage.hh"
#include "sim/flat_map.hh"
#include "mem/cache_array.hh"
#include "mem/msg.hh"
#include "mem/network.hh"
#include "mem/port.hh"
#include "proto/fault.hh"
#include "proto/protocol_kind.hh"
#include "proto/transition_table.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "trace/recorder.hh"

namespace drf
{

/** Configuration of one GPU L1. */
struct GpuL1Config
{
    std::uint64_t sizeBytes = 16 * 1024;
    unsigned assoc = 16;
    unsigned lineBytes = 64;
    Tick hitLatency = 4;       ///< core-visible hit latency
    Tick recycleLatency = 10;  ///< stall retry interval
    ProtocolKind protocol = ProtocolKind::Viper;
};

/**
 * One per-CU L1 cache running the configured protocol's table.
 */
class GpuL1Cache : public SimObject, public MsgReceiver
{
  public:
    /** Coverage row indices (Table I order; WB is LRCC-only). */
    enum Event : std::size_t
    {
        EvLoad = 0,
        EvStoreThrough,
        EvAtomic,
        EvTccAck,
        EvTccAckWB,
        EvEvict,
        EvRepl,
        EvWB,      ///< LRCC release/acquire write-back of a dirty line
    };

    /** Coverage column indices (O and M are LRCC-only). */
    enum State : std::size_t
    {
        StI = 0,
        StV,
        StA,
        StO,
        StM,
    };

    using RespFunc = std::function<void(Packet &&)>;

    /** Per-dispatch context handed to table actions. */
    struct TransCtx
    {
        Packet *pkt = nullptr;        ///< triggering packet (may be null)
        Addr line = 0;                ///< aligned line address
        CacheEntry *entry = nullptr;  ///< entry for evict/replace rows
        Packet *pending = nullptr;    ///< matched pending write-through
    };

    /**
     * @param name     Instance name.
     * @param eq       Event queue.
     * @param cfg      Cache geometry, latencies and protocol.
     * @param xbar     Crossbar toward the L2.
     * @param endpoint This cache's crossbar endpoint id.
     * @param l2_ep    The L2's endpoint id.
     * @param fault    Optional fault injector (may be nullptr).
     */
    GpuL1Cache(std::string name, EventQueue &eq, const GpuL1Config &cfg,
               Crossbar &xbar, int endpoint, int l2_ep,
               FaultInjector *fault = nullptr);

    /** The shared (event, state) spec for VIPER GPU L1 instances. */
    static const TransitionSpec &spec();

    /** The spec for a protocol kind. */
    static const TransitionSpec &specFor(ProtocolKind kind);

    /** The transition table for a protocol kind (static). */
    static const TransitionTable<GpuL1Cache> &tableFor(ProtocolKind kind);

    /** Bind the core-side response path. */
    void bindCoreResponse(RespFunc fn) { _respond = std::move(fn); }

    /**
     * Core-side request entry point. Accepts LoadReq, StoreReq and
     * AtomicReq packets; acquire/release flags carry the synchronization
     * semantics and pkt.scope bounds them. Once they are applied the
     * request takes recvMsg's path.
     */
    void coreRequest(Packet pkt);

    /**
     * The one message entry: maps the packet type to its table event and
     * fires the row (L2-side TccAck / TccAckWB, and the core requests).
     */
    void recvMsg(Packet &pkt) override;

    /** Write-throughs/write-backs issued but not yet acknowledged. */
    unsigned outstandingWriteThroughs() const { return _outstandingWT; }

    CoverageGrid &coverage() { return _coverage; }
    const CoverageGrid &coverage() const { return _coverage; }
    StatGroup &stats() { return _stats; }
    const CacheArray &array() const { return _array; }

    /** Record transition activations into @p trace (nullptr = off). */
    void setTrace(TraceRecorder *trace) { _trace = trace; }

  private:
    friend class TransitionTable<GpuL1Cache>;

    /** CacheEntry::state values used by the LRCC tables. */
    enum LineOwnership : int
    {
        kLineClean = 0,  ///< V: valid, matches the L2
        kLineOwned = 1,  ///< O: written back, still readable locally
        kLineDirty = 2,  ///< M: locally modified, not yet written back
    };

    /** MSHR entry for an outstanding load, store-allocate or atomic. */
    struct Tbe
    {
        bool isAtomic = false;
        Packet corePkt;
    };

    /** Line state as seen by the transition table. */
    State lineState(Addr line_addr) const;

    /** Stable state of a resident line (V under VIPER; V/O/M LRCC). */
    State entryState(const CacheEntry &entry) const;

    /** Record one transition activation. */
    void transition(Event ev, State st);

    /** Retry a stalled core request later. */
    void recycle(Packet &pkt);

    // Table actions (see the static table builders in gpu_l1.cc).
    void actStall(TransCtx &ctx);
    void actLoadHit(TransCtx &ctx);
    void actLoadMiss(TransCtx &ctx);
    void actStoreLocal(TransCtx &ctx);
    void actStoreThroughIssue(TransCtx &ctx);
    void actStoreLocalLrcc(TransCtx &ctx);
    void actStoreAllocMiss(TransCtx &ctx);
    void actAtomicInvalidate(TransCtx &ctx);
    void actAtomicForward(TransCtx &ctx);
    void actFillOrComplete(TransCtx &ctx);
    void actFillOrCompleteLrcc(TransCtx &ctx);
    void actCompleteWriteThrough(TransCtx &ctx);
    void actInvalidateEntry(TransCtx &ctx);
    void actReplaceVictim(TransCtx &ctx);
    void actWritebackEntry(TransCtx &ctx);
    void actWritebackToOwned(TransCtx &ctx);

    /** Flash-invalidate all valid lines (acquire semantics). */
    void flashInvalidate();

    /** LRCC: write every Modified line back (demoting it to Owned). */
    void writebackAllDirty();

    /** LRCC: issue a masked write-back of a dirty line. */
    void writebackEntry(CacheEntry &entry);

    /** Fill a line after TCC_Ack, replacing a victim if needed. */
    CacheEntry &fillLine(Addr line_addr, const LineData &data);

    /** Drain the release queue if no write-throughs remain. */
    void tryDrainReleaseQueue();

    GpuL1Config _cfg;
    Crossbar &_xbar;
    int _endpoint;
    int _l2Endpoint;
    FaultInjector *_fault;
    const TransitionTable<GpuL1Cache> *_table;

    CacheArray _array;
    FlatMap<Tbe> _tbes;             ///< keyed by line address
    FlatMap<Packet> _pendingWT;     ///< write-throughs in flight, by id
    std::vector<Packet> _releaseQueue; ///< releases awaiting WT drain
    std::size_t _releaseHead = 0;      ///< consumed prefix of the ring
    unsigned _outstandingWT = 0;
    PacketId _nextId = 1;

    RespFunc _respond;
    CoverageGrid _coverage;
    StatGroup _stats;
    TraceRecorder *_trace = nullptr;

    // Hot-path counters, resolved once: counter(name) is a string-keyed
    // map lookup and these fire per message.
    Counter *_cRecycles;
    Counter *_cLoadHits;
    Counter *_cLoadMisses;
    Counter *_cWriteThroughs;
    Counter *_cAtomics;
    Counter *_cFlashInvalidates;
    Counter *_cReplacements;
};

} // namespace drf

#endif // DRF_PROTO_GPU_L1_HH
