/**
 * @file
 * Deterministic discrete-event queue.
 *
 * This is the heart of the Ruby-like substrate: every port delivery, cache
 * controller wakeup, memory response, and tester check runs as an event.
 * Events scheduled for the same tick execute in scheduling order (a
 * monotonically increasing sequence number breaks ties), which makes every
 * simulation bit-for-bit reproducible for a given seed.
 *
 * The implementation is tuned for the schedule/execute hot path, which a
 * testing campaign hits hundreds of millions of times:
 *
 *  - callables are InlineEvents (32-byte small-buffer callables backed by
 *    a recycling block pool) instead of std::functions, so scheduling
 *    performs no per-event heap allocation in steady state;
 *  - events within the 256-tick horizon, the current tick included, go
 *    into a timing wheel: one FIFO bucket per tick, O(1) push and pop.
 *    Almost every event a simulation schedules is a small fixed latency
 *    ahead (port hops, recycle delays, memory latency), so the wheel
 *    absorbs nearly all traffic. Bucket append order equals sequence
 *    order: every append to a bucket happens while seq grows
 *    monotonically, whether before its tick begins or during it (a
 *    same-tick schedule lands behind the tick's pending entries, which
 *    all carry smaller sequence numbers), and a bucket is fully drained
 *    before its index can be reused (a tick t + 256 schedule is beyond
 *    the horizon by exactly one tick and goes to the heap);
 *  - events at or beyond the horizon go to a hand-rolled 4-ary min-heap
 *    on (when, seq): heap records are 24-byte trivially-copyable (when,
 *    seq, slot) triples; the InlineEvent payloads sit still in a
 *    free-listed slot slab, so a sift never relocates capture storage.
 *    Whenever the current tick advances, heap entries that entered the
 *    horizon migrate into the wheel — in (when, seq) pop order, and
 *    before any event of the new tick runs, so migrated entries always
 *    precede later same-bucket appends in sequence order;
 *  - run() dispatches tick-batched: it drains the current tick's bucket,
 *    same-tick appends included, with no per-event (when, seq)
 *    comparison, executing the exact order a single comparing heap
 *    would.
 */

#ifndef DRF_SIM_EVENT_QUEUE_HH
#define DRF_SIM_EVENT_QUEUE_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_event.hh"
#include "sim/types.hh"

namespace drf
{

/**
 * A tick-ordered queue of callbacks with deterministic same-tick ordering.
 */
class EventQueue
{
  public:
    EventQueue() { _heap.reserve(initialCapacity); }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Number of events executed so far (a proxy for simulation work). */
    std::uint64_t eventsExecuted() const { return _eventsExecuted; }

    /** Number of events currently pending. */
    std::size_t
    pending() const
    {
        return _heap.size() + _wheelCount;
    }

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * @pre when >= curTick(); scheduling in the past is a simulator bug
     *      and triggers an assertion.
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        assert(when >= _curTick && "event scheduled in the past");
        const std::uint64_t seq = _nextSeq++;
        if (when - _curTick < wheelSpan) {
            // Near-future fast path: O(1) bucket append, no heap sift.
            // The bucket's append order encodes @p seq (file comment).
            wheelPush(when, InlineEvent(std::forward<F>(fn), _pool));
            return;
        }
        std::uint32_t slot =
            acquireSlot(InlineEvent(std::forward<F>(fn), _pool));
        pushHeap(HeapEntry{when, seq, slot});
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&fn)
    {
        schedule(_curTick + delay, std::forward<F>(fn));
    }

    /** Schedule @p fn at the current tick (after all pending work here). */
    template <typename F>
    void
    scheduleNow(F &&fn)
    {
        schedule(_curTick, std::forward<F>(fn));
    }

    /**
     * Run events until the queue drains, @p limit ticks is reached, or
     * @p max_events further events have executed.
     *
     * @param limit      Absolute tick bound (events at exactly @p limit
     *                   still run).
     * @param max_events Event budget for this call; 0 means unbounded.
     *                   The campaign supervisor uses it to bound a
     *                   livelocked shard that keeps making "progress"
     *                   without advancing toward completion.
     * @return true if the queue drained, false if a bound stopped us.
     */
    bool run(Tick limit = maxTick, std::uint64_t max_events = 0);

    /**
     * Run at most @p max_events events. Useful for incremental draining in
     * tests.
     *
     * @return number of events executed.
     */
    std::uint64_t runEvents(std::uint64_t max_events);

    /**
     * Drop all pending events and reset time to zero. Recycled event
     * blocks and heap capacity are retained for the next run.
     */
    void reset();

  private:
    /**
     * One heap record; (when, seq) totally orders all events, slot
     * indexes the payload in _slots. Trivially copyable so heap sifts
     * are plain 24-byte moves.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Initial heap capacity; avoids early growth reallocations. */
    static constexpr std::size_t initialCapacity = 64;

    /** Heap arity: shallower sifts, better locality than binary. */
    static constexpr std::size_t arity = 4;

    /** Ticks covered by the timing wheel (one bucket per tick). */
    static constexpr Tick wheelSpan = 256;
    static constexpr Tick wheelMask = wheelSpan - 1;

    /** One wheel bucket: seq-ordered events of a single pending tick. */
    struct WheelBucket
    {
        std::vector<InlineEvent> entries;
        std::size_t head = 0; ///< consumed prefix of the ring

        bool empty() const { return head == entries.size(); }
    };

    template <typename A, typename B>
    static bool
    before(const A &a, const B &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Park @p fn in a slot and return its index. */
    std::uint32_t
    acquireSlot(InlineEvent &&fn)
    {
        if (!_freeSlots.empty()) {
            std::uint32_t slot = _freeSlots.back();
            _freeSlots.pop_back();
            _slots[slot] = std::move(fn);
            return slot;
        }
        _slots.push_back(std::move(fn));
        return static_cast<std::uint32_t>(_slots.size() - 1);
    }

    /** Append an event for tick @p when to its wheel bucket. */
    void
    wheelPush(Tick when, InlineEvent &&fn)
    {
        const std::size_t idx = static_cast<std::size_t>(when & wheelMask);
        _wheel[idx].entries.push_back(std::move(fn));
        _wheelOcc[idx >> 6] |= 1ull << (idx & 63);
        ++_wheelCount;
    }

    /** Pop the front of @p bucket; compacts and clears occupancy. */
    InlineEvent
    wheelPop(WheelBucket &bucket, std::size_t idx)
    {
        InlineEvent fn = std::move(bucket.entries[bucket.head]);
        if (++bucket.head == bucket.entries.size()) {
            bucket.entries.clear();
            bucket.head = 0;
            _wheelOcc[idx >> 6] &= ~(1ull << (idx & 63));
        }
        --_wheelCount;
        return fn;
    }

    /**
     * Earliest pending wheel tick at or after curTick, or maxTick if the
     * wheel is empty. A word-at-a-time scan of the occupancy bitmap.
     */
    Tick
    wheelNextTick() const
    {
        if (_wheelCount == 0)
            return maxTick;
        const std::size_t start =
            static_cast<std::size_t>(_curTick & wheelMask);
        for (Tick off = 0; off < wheelSpan;) {
            const std::size_t idx =
                (start + static_cast<std::size_t>(off)) & wheelMask;
            const std::uint64_t bits = _wheelOcc[idx >> 6] >> (idx & 63);
            if (bits != 0) {
                return _curTick + off +
                       static_cast<Tick>(__builtin_ctzll(bits));
            }
            off += 64 - static_cast<Tick>(idx & 63);
        }
        return maxTick;
    }

    /**
     * Advance the current tick to @p t, migrating heap events that have
     * entered the wheel horizon. Must run before any event of tick @p t
     * executes so migrated entries precede later same-bucket appends.
     */
    void
    advanceTo(Tick t)
    {
        _curTick = t;
        while (!_heap.empty() && _heap.front().when - t < wheelSpan) {
            HeapEntry top = popHeap();
            wheelPush(top.when, std::move(_slots[top.slot]));
            _freeSlots.push_back(top.slot);
        }
    }

    /** Tick of the earliest pending event. @pre pending() > 0 */
    Tick
    nextWhen() const
    {
        Tick t = wheelNextTick();
        if (!_heap.empty() && _heap.front().when < t)
            t = _heap.front().when;
        return t;
    }

    void pushHeap(HeapEntry entry);
    HeapEntry popHeap();

    // _pool is declared before the payload containers so it outlives
    // them: destroying events returns their spilled blocks to the pool.
    EventBlockPool _pool;
    std::vector<HeapEntry> _heap; ///< far events: 4-ary min-heap
    std::vector<InlineEvent> _slots;      ///< heap payload slab
    std::vector<std::uint32_t> _freeSlots; ///< recycled slab indices
    std::array<WheelBucket, wheelSpan> _wheel; ///< near events, per tick
    std::array<std::uint64_t, wheelSpan / 64> _wheelOcc{}; ///< bucket bits
    std::size_t _wheelCount = 0;  ///< events parked in the wheel
    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _eventsExecuted = 0;
};

} // namespace drf

#endif // DRF_SIM_EVENT_QUEUE_HH
