/**
 * @file
 * APU system directory, shared by the CPU core-pair caches, the GPU L2,
 * and a DMA engine (Section IV.C of the paper).
 *
 * The directory is the ordering point below the GPU L2 and the CPU
 * caches. It tracks, per line:
 *
 *  - U  : memory owns the data (GPU L2 may hold clean copies),
 *  - CS : one or more CPU caches hold shared clean copies,
 *  - CM : one CPU cache owns the line dirty,
 *  - B  : a transaction is in flight (transient; new requests stall,
 *         except GPU atomics which receive AtomicND retries).
 *
 * GPU requests are VIPER write-through traffic; GPU atomics are performed
 * here, read-modify-write, while the line is held busy — which is what
 * makes them atomic (and what FaultKind::NonAtomicRmw breaks). A
 * "gpuMayHave" bit per line tracks whether the GPU L2 may cache a copy so
 * CPU/DMA writes can probe-invalidate it (the PrbInv transitions of
 * Table II).
 */

#ifndef DRF_PROTO_DIRECTORY_HH
#define DRF_PROTO_DIRECTORY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coverage/coverage.hh"
#include "mem/memory.hh"
#include "sim/flat_map.hh"
#include "sim/small_set.hh"
#include "mem/msg.hh"
#include "mem/network.hh"
#include "mem/port.hh"
#include "proto/fault.hh"
#include "proto/transition_table.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace drf
{

/** Configuration of the directory. */
struct DirectoryConfig
{
    unsigned lineBytes = 64;
    Tick recycleLatency = 10;
    Tick memPortLatency = 2;
};

/**
 * The shared CPU-GPU system directory (with its DRAM behind it).
 */
class Directory : public SimObject, public MsgReceiver
{
  public:
    /** Coverage row indices. */
    enum Event : std::size_t
    {
        EvGpuFetch = 0,
        EvGpuWrMem,
        EvGpuAtomic,
        EvCpuGets,
        EvCpuGetx,
        EvCpuPutx,
        EvDmaRead,
        EvDmaWrite,
        EvMemData,
        EvMemWBAck,
        EvCpuInvAck,
        EvGpuInvAck,
    };

    /** Coverage column indices. */
    enum State : std::size_t
    {
        StU = 0,
        StCS,
        StCM,
        StB,
    };

    /**
     * @param name   Instance name.
     * @param eq     Event queue.
     * @param cfg    Configuration.
     * @param xbar   Crossbar shared with L2s / CPU caches / DMA.
     * @param endpoint The directory's endpoint id.
     * @param gpu_l2_eps GPU L2 endpoints (for PrbInv); empty = no GPU.
     *        With more than one L2 (a multi-GPU system, Section III.B)
     *        the directory also probe-invalidates remote GPU L2s on GPU
     *        writes and atomics, which is what makes the L2 PrbInv
     *        transitions reachable by the GPU tester alone.
     * @param mem    DRAM behind the directory.
     * @param fault  Optional fault injector.
     */
    /** Per-dispatch context handed to table actions. */
    struct TransCtx
    {
        Packet *pkt = nullptr; ///< triggering packet
        Addr line = 0;         ///< aligned line address
    };

    Directory(std::string name, EventQueue &eq, const DirectoryConfig &cfg,
              Crossbar &xbar, int endpoint, std::vector<int> gpu_l2_eps,
              SimpleMemory &mem, FaultInjector *fault = nullptr);

    /** The (event, state) space the table's rows define. */
    static const TransitionSpec &spec();

    /** The static transition table (shared by instances). */
    static const TransitionTable<Directory> &table();

    /**
     * The one message entry: requests from the L2s, CPU caches and DMA,
     * probe acks, and (through the memory's response callback) MemData
     * and MemWBAck each map to their table event.
     */
    void recvMsg(Packet &pkt) override;

    CoverageGrid &coverage() { return _coverage; }
    const CoverageGrid &coverage() const { return _coverage; }
    StatGroup &stats() { return _stats; }

    /** Record transition activations into @p trace (nullptr = off). */
    void setTrace(TraceRecorder *trace) { _trace = trace; }

  private:
    friend class TransitionTable<Directory>;

    /** In-flight transaction on one line. */
    struct Txn
    {
        Packet origin;
        int pendingAcks = 0;
        LineData probeData{};
        bool haveProbeData = false;
        /**
         * A prepared response parked until the memory writeback acks.
         * Keeping it here instead of inside onMemWBAck's capture keeps
         * that std::function within its small-buffer optimisation (a
         * Packet capture would heap-allocate on every atomic).
         */
        Packet pendingResp;
        std::function<void()> onAcks;
        std::function<void(const LineData &)> onMemData;
        std::function<void()> onMemWBAck;
    };

    /** Directory record for one line (absent => U, no sharers). */
    struct Line
    {
        State stable = StU;      ///< U / CS / CM
        SmallIntSet sharers;     ///< CPU caches holding the line
        int owner = -1;          ///< CPU owner when CM
        SmallIntSet gpuSharers;  ///< GPU L2s that may hold the line
        Txn *txn = nullptr;      ///< in-flight transaction (pooled)
    };

    Line &line(Addr line_addr);
    State visibleState(const Line &l) const;
    void
    transition(Event ev, State st)
    {
        recordTransition(_trace, curTick(), _endpoint, ev, st);
        _coverage.hit(ev, st);
    }
    void recycle(Packet &pkt);

    /** Start a transaction; the line becomes busy. */
    Txn &startTxn(Addr line_addr, Packet origin);
    /** Complete the transaction on @p line_addr. */
    void finishTxn(Addr line_addr);

    /** Issue probes; txn.onAcks runs once every target acked. */
    void sendCpuProbes(Addr line_addr, const std::vector<int> &targets,
                       MsgType probe_type);

    /**
     * Probe-invalidate every GPU L2 that may hold the line, except
     * @p exclude (the requesting L2, if GPU-initiated). Each probe
     * counts as one pending ack; the probed L2s are dropped from the
     * sharer set.
     *
     * @return number of probes sent.
     */
    unsigned sendGpuProbes(Addr line_addr, int exclude = -1);

    void readMem(Addr line_addr);
    void writeMem(Addr line_addr, const LineData &data, ByteMask mask);

    // Table actions (see the static table builder in directory.cc).
    void actRecycle(TransCtx &ctx);
    void actGpuFetchClean(TransCtx &ctx);
    void actGpuFetchOwned(TransCtx &ctx);
    void actGpuWriteClean(TransCtx &ctx);
    void actGpuWriteShared(TransCtx &ctx);
    void actGpuWriteOwned(TransCtx &ctx);
    void actAtomicNack(TransCtx &ctx);
    void actGpuAtomicClean(TransCtx &ctx);
    void actGpuAtomicShared(TransCtx &ctx);
    void actGpuAtomicOwned(TransCtx &ctx);
    void actCpuGetsClean(TransCtx &ctx);
    void actCpuGetsOwned(TransCtx &ctx);
    void actCpuGetx(TransCtx &ctx);
    void actCpuPutx(TransCtx &ctx);
    void actDmaReadClean(TransCtx &ctx);
    void actDmaReadOwned(TransCtx &ctx);
    void actDmaWriteClean(TransCtx &ctx);
    void actDmaWriteOwned(TransCtx &ctx);
    void actMemData(TransCtx &ctx);
    void actMemWBAck(TransCtx &ctx);
    void actInvAck(TransCtx &ctx);

    // Transaction continuations shared by several actions. These were
    // per-handler lambdas before the table migration; as members the
    // hot-path onAcks/onMemData captures stay at [this, addr] size,
    // inside std::function's small buffer.
    void gpuWriteAndAck(Addr la, const LineData &data, ByteMask mask);
    void atomicRmw(Addr la, LineData buf);
    void grantShared(Addr la, const LineData &data);
    void grantExclusive(Addr la, const LineData &data);
    void dmaReadRespond(Addr la, const LineData &data);
    void dmaWriteAndRespond(Addr la, const LineData &data, ByteMask mask);

    /** Perform the fetch-add on a line buffer; returns the old value. */
    std::uint64_t applyAtomic(LineData &buf, Addr addr, unsigned size,
                              std::uint64_t operand) const;

    DirectoryConfig _cfg;
    Crossbar &_xbar;
    int _endpoint;
    std::vector<int> _gpuL2Endpoints;
    SimpleMemory &_mem;
    MsgPort _memPort;
    FaultInjector *_fault;

    FlatMap<Line> _lines; ///< keyed by line address

    /**
     * Txn recycling pool. Every GPU write-through and atomic starts a
     * transaction, so steady state must not allocate one per message; a
     * recycled Txn keeps its std::function buffers.
     */
    std::vector<std::unique_ptr<Txn>> _txnPool;
    std::vector<Txn *> _txnFree;

    /** Scratch for sendGpuProbes' target list (kept for capacity). */
    std::vector<int> _probeScratch;

    CoverageGrid _coverage;
    StatGroup _stats;
    TraceRecorder *_trace = nullptr;

    // Hot-path counters, resolved once (counter(name) is a string-keyed
    // map lookup).
    Counter *_cRecycles;
    Counter *_cCpuProbes;
    Counter *_cGpuProbes;
    Counter *_cAtomicNacks;
    Counter *_cAtomics;
    Counter *_cStalePutx;
};

} // namespace drf

#endif // DRF_PROTO_DIRECTORY_HH
