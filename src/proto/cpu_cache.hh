/**
 * @file
 * CPU core-pair cache controller (MOESI_AMD_Base-style, reduced to MSI
 * with the standard transient states).
 *
 * One instance serves a pair of CPU cores, like gem5's CorePair. It is a
 * write-back, write-allocate cache kept coherent by the APU directory:
 * Gets fetches a shared copy, Getx an exclusive one, Putx writes dirty
 * data back, and the directory probes (PrbInv / PrbDowngrade) pull data
 * or permissions away. Transients: IS (load miss), IM (store miss), SM
 * (upgrade), MI (writeback in flight).
 *
 * The reduction from MOESI to MSI keeps memory current whenever the
 * directory is in CS, which removes the owned/exclusive bookkeeping
 * without losing any of the probe/writeback races the CPU tester needs
 * to stress (Section IV.C).
 */

#ifndef DRF_PROTO_CPU_CACHE_HH
#define DRF_PROTO_CPU_CACHE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "coverage/coverage.hh"
#include "mem/cache_array.hh"
#include "sim/flat_map.hh"
#include "mem/msg.hh"
#include "mem/network.hh"
#include "proto/transition_table.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "trace/recorder.hh"

namespace drf
{

/** Configuration of one CPU core-pair cache. */
struct CpuCacheConfig
{
    std::uint64_t sizeBytes = 256 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 64;
    Tick hitLatency = 2;
    Tick recycleLatency = 10;
};

/**
 * One CPU core-pair cache.
 */
class CpuCache : public SimObject, public MsgReceiver
{
  public:
    /** Coverage row indices. */
    enum Event : std::size_t
    {
        EvLoad = 0,
        EvStore,
        EvRepl,
        EvData,
        EvPrbInv,
        EvPrbDowngrade,
        EvWBAck,
    };

    /** Coverage column indices. */
    enum State : std::size_t
    {
        StI = 0,
        StS,
        StM,
        StIS,
        StIM,
        StSM,
        StMI,
    };

    using RespFunc = std::function<void(Packet &&)>;

    /** Per-dispatch context handed to table actions. */
    struct TransCtx
    {
        Packet *pkt = nullptr;       ///< triggering packet
        Addr line = 0;               ///< aligned line address
        CacheEntry *entry = nullptr; ///< victim entry for Repl rows
        Packet ack{};                ///< probe ack under construction
    };

    CpuCache(std::string name, EventQueue &eq, const CpuCacheConfig &cfg,
             Crossbar &xbar, int endpoint, int dir_ep);

    /** The (event, state) space the table's rows define. */
    static const TransitionSpec &spec();

    /** The static transition table (shared by instances). */
    static const TransitionTable<CpuCache> &table();

    void bindCoreResponse(RespFunc fn) { _respond = std::move(fn); }

    /** Core-side entry point: LoadReq / StoreReq (via recvMsg). */
    void coreRequest(Packet pkt);

    /**
     * The one message entry: core requests and directory-side delivery
     * (CpuData, probes, CpuWBAck) each map to their table event.
     */
    void recvMsg(Packet &pkt) override;

    CoverageGrid &coverage() { return _coverage; }
    const CoverageGrid &coverage() const { return _coverage; }
    StatGroup &stats() { return _stats; }
    const CacheArray &array() const { return _array; }

    /** Record transition activations into @p trace (nullptr = off). */
    void setTrace(TraceRecorder *trace) { _trace = trace; }

  private:
    friend class TransitionTable<CpuCache>;

    /** Entry.state values for stable lines in the array. */
    enum LineStable : int
    {
        LineS = 1,
        LineM = 2,
    };

    /** MSHR for one line in a transient state. */
    struct Tbe
    {
        State transient;   ///< IS, IM, SM or MI
        Packet corePkt;    ///< pending core request (IS/IM/SM)
        LineData wbData{}; ///< dirty line (MI)
    };

    State lineState(Addr line_addr) const;
    void
    transition(Event ev, State st)
    {
        recordTransition(_trace, curTick(), _endpoint, ev, st);
        _coverage.hit(ev, st);
    }
    void recycle(Packet &pkt);

    // Table actions (see the static table builder in cpu_cache.cc).
    void actRecycle(TransCtx &ctx);
    void actLoadHit(TransCtx &ctx);
    void actLoadMiss(TransCtx &ctx);
    void actStoreHit(TransCtx &ctx);
    void actStoreUpgrade(TransCtx &ctx);
    void actStoreMiss(TransCtx &ctx);
    void actReplaceDirty(TransCtx &ctx);
    void actReplaceClean(TransCtx &ctx);
    void actDataFillAlloc(TransCtx &ctx);
    void actDataFillUpgrade(TransCtx &ctx);
    void actProbeOwner(TransCtx &ctx);
    void actProbeSharer(TransCtx &ctx);
    void actProbeWriteback(TransCtx &ctx);
    void actProbeUpgrade(TransCtx &ctx);
    void actProbeSend(TransCtx &ctx);
    void actWriteBackAck(TransCtx &ctx);

    /** Complete a fill: hand the granted line to the waiting core op. */
    void completeFill(CacheEntry &entry, const Tbe &tbe, const Packet &pkt);

    /**
     * Make room for a fill, writing back a dirty victim if needed.
     *
     * @return false if every way is pinned by an MSHR (caller retries).
     */
    bool makeRoom(Addr line_addr);

    /** Apply a store to an entry and answer the core. */
    void performStore(CacheEntry &entry, const Packet &pkt);

    /** Answer a load from an entry. */
    void performLoad(const CacheEntry &entry, const Packet &pkt);

    CpuCacheConfig _cfg;
    Crossbar &_xbar;
    int _endpoint;
    int _dirEndpoint;

    CacheArray _array;
    FlatMap<Tbe> _tbes; ///< keyed by line address
    PacketId _nextId = 1;

    RespFunc _respond;
    CoverageGrid _coverage;
    StatGroup _stats;
    TraceRecorder *_trace = nullptr;

    // Hot-path counters, resolved once (counter(name) is a string-keyed
    // map lookup).
    Counter *_cRecycles;
    Counter *_cLoadHits;
    Counter *_cLoadMisses;
    Counter *_cStoreHits;
    Counter *_cUpgrades;
    Counter *_cStoreMisses;
    Counter *_cDirtyReplacements;
    Counter *_cCleanReplacements;
    Counter *_cFillRetries;
    Counter *_cProbes;
};

} // namespace drf

#endif // DRF_PROTO_CPU_CACHE_HH
