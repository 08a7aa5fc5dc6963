/**
 * @file
 * VIPER GPU L2 cache controller ("TCC").
 *
 * Shared by all CUs. Read misses fetch from the APU directory; GPU
 * write-throughs are merged (per-byte masks) and forwarded toward memory;
 * atomics are performed below the L2 at the directory, with AtomicD /
 * AtomicND completion acks. The directory may probe-invalidate the L2
 * when the CPU gains exclusive ownership (PrbInv) — the transitions that
 * are unreachable when only the GPU tester runs.
 *
 * States: I, V, IV (refill outstanding), A (atomic outstanding). Events
 * are exactly Table II of the paper.
 */

#ifndef DRF_PROTO_GPU_L2_HH
#define DRF_PROTO_GPU_L2_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "coverage/coverage.hh"
#include "sim/flat_map.hh"
#include "mem/cache_array.hh"
#include "mem/msg.hh"
#include "mem/network.hh"
#include "proto/fault.hh"
#include "proto/transition_table.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "trace/recorder.hh"

namespace drf
{

/** Configuration of the GPU L2. */
struct GpuL2Config
{
    std::uint64_t sizeBytes = 256 * 1024;
    unsigned assoc = 16;
    unsigned lineBytes = 64;
    Tick recycleLatency = 10;
};

/**
 * The shared GPU L2.
 */
class GpuL2Cache : public SimObject, public MsgReceiver
{
  public:
    /** Coverage row indices (Table II order). */
    enum Event : std::size_t
    {
        EvRdBlk = 0,
        EvWrVicBlk,
        EvAtomic,
        EvAtomicD,
        EvAtomicND,
        EvData,
        EvL2Repl,
        EvPrbInv,
        EvWBAck,
    };

    /** Coverage column indices. */
    enum State : std::size_t
    {
        StI = 0,
        StV,
        StIV,
        StA,
    };

    /**
     * @param name     Instance name.
     * @param eq       Event queue.
     * @param cfg      Cache geometry.
     * @param xbar     Crossbar (toward L1s and the directory).
     * @param endpoint This cache's endpoint id.
     * @param dir_ep   The directory's endpoint id.
     * @param fault    Optional fault injector.
     */
    /** Per-dispatch context handed to table actions. */
    struct TransCtx
    {
        Packet *pkt = nullptr;       ///< triggering packet
        Addr line = 0;               ///< aligned line address
        CacheEntry *entry = nullptr; ///< entry for replace rows
        void *pending = nullptr;     ///< matched PendingWB (WBAck rows)
    };

    GpuL2Cache(std::string name, EventQueue &eq, const GpuL2Config &cfg,
               Crossbar &xbar, int endpoint, int dir_ep,
               FaultInjector *fault = nullptr);

    /** The (event, state) space the table's rows define. */
    static const TransitionSpec &spec();

    /** The static transition table (shared by instances). */
    static const TransitionTable<GpuL2Cache> &table();

    void recvMsg(Packet &pkt) override;

    CoverageGrid &coverage() { return _coverage; }
    const CoverageGrid &coverage() const { return _coverage; }
    StatGroup &stats() { return _stats; }
    const CacheArray &array() const { return _array; }

    /** Record transition activations into @p trace (nullptr = off). */
    void setTrace(TraceRecorder *trace) { _trace = trace; }

  private:
    friend class TransitionTable<GpuL2Cache>;

    /**
     * Refill MSHR: requesters waiting for one line. Pooled — a recycled
     * entry keeps its waiters capacity, so steady-state misses allocate
     * nothing.
     */
    struct FetchTbe
    {
        std::vector<Packet> waiters; ///< original RdBlk packets
    };

    /** Atomic MSHR: a queue of atomics serialized at this line. Pooled. */
    struct AtomicTbe
    {
        std::vector<Packet> queue; ///< original GpuAtomic packets
        std::size_t head = 0;      ///< consumed prefix of the ring

        bool queueEmpty() const { return head == queue.size(); }
        Packet &queueFront() { return queue[head]; }

        void
        popQueueFront()
        {
            if (++head == queue.size()) {
                queue.clear();
                head = 0;
            }
        }
    };

    /** Pending write-through forwarded toward memory. */
    struct PendingWB
    {
        Packet original; ///< the L1's WrThrough packet
    };

    State lineState(Addr line_addr) const;
    void
    transition(Event ev, State st)
    {
        recordTransition(_trace, curTick(), _endpoint, ev, st);
        _coverage.hit(ev, st);
    }
    void recycle(Packet &pkt);

    // Table actions (see the static table builder in gpu_l2.cc).
    void actRecycle(TransCtx &ctx);
    void actReadHit(TransCtx &ctx);
    void actReadMiss(TransCtx &ctx);
    void actWriteThrough(TransCtx &ctx);
    void actAtomicQueue(TransCtx &ctx);
    void actAtomicInvalidate(TransCtx &ctx);
    void actAtomicStart(TransCtx &ctx);
    void actAtomicDone(TransCtx &ctx);
    void actAtomicRetry(TransCtx &ctx);
    void actDataFill(TransCtx &ctx);
    void actWriteBackAck(TransCtx &ctx);
    void actProbeInvalidate(TransCtx &ctx);
    void actProbeAck(TransCtx &ctx);
    void actReplaceVictim(TransCtx &ctx);

    /** Issue the head of an atomic queue to the directory. */
    void issueAtomic(Addr line_addr);

    /** Fill a line after refill data, replacing a victim if needed. */
    CacheEntry &fillLine(Addr line_addr, const LineData &data);

    /** Reply with a TccAck carrying the line to one RdBlk waiter. */
    void respondData(const Packet &req, const CacheEntry &entry);

    GpuL2Config _cfg;
    Crossbar &_xbar;
    int _endpoint;
    int _dirEndpoint;
    FaultInjector *_fault;

    /** Allocate a pooled TBE; @return its pool index. */
    template <typename T>
    static std::uint32_t
    poolAlloc(std::vector<T> &pool, std::vector<std::uint32_t> &free_list)
    {
        if (!free_list.empty()) {
            std::uint32_t idx = free_list.back();
            free_list.pop_back();
            return idx;
        }
        pool.emplace_back();
        return static_cast<std::uint32_t>(pool.size() - 1);
    }

    CacheArray _array;

    // TBE tables are open-addressed maps from line address to an index
    // into a recycling pool; the pooled entries keep their container
    // capacity across reuse (DESIGN.md §10).
    FlatMap<std::uint32_t> _fetchTbes;
    FlatMap<std::uint32_t> _atomicTbes;
    std::vector<FetchTbe> _fetchPool;
    std::vector<std::uint32_t> _fetchFree;
    std::vector<AtomicTbe> _atomicPool;
    std::vector<std::uint32_t> _atomicFree;

    FlatMap<PendingWB> _pendingWBs; ///< keyed by forwarded WrMem id

    /**
     * Per-line count of in-flight write-throughs: the false-sharing
     * racing check is a table lookup instead of a scan of _pendingWBs.
     */
    FlatMap<std::uint32_t> _wbLineCount;

    /** Scratch for fillLine's id-ordered merge (kept for capacity). */
    std::vector<std::pair<PacketId, const Packet *>> _mergeScratch;

    PacketId _nextId = 1;

    CoverageGrid _coverage;
    StatGroup _stats;
    TraceRecorder *_trace = nullptr;

    // Hot-path counters, resolved once (counter(name) is a string-keyed
    // map lookup).
    Counter *_cRecycles;
    Counter *_cReadHits;
    Counter *_cReadMisses;
    Counter *_cWriteThroughs;
    Counter *_cAtomics;
    Counter *_cAtomicRetries;
    Counter *_cReplacements;
    Counter *_cRefillMerges;
    Counter *_cProbes;
};

} // namespace drf

#endif // DRF_PROTO_GPU_L2_HH
