#include "sim/event_queue.hh"

#include <algorithm>

namespace drf
{

void
EventQueue::pushHeap(HeapEntry entry)
{
    // Sift up with hole moves: the new entry is held in a register-local
    // temporary while ancestors shift down, costing one 24-byte copy per
    // level instead of a swap's three.
    std::size_t hole = _heap.size();
    _heap.push_back(entry);
    while (hole > 0) {
        std::size_t parent = (hole - 1) / arity;
        if (!before(entry, _heap[parent]))
            break;
        _heap[hole] = _heap[parent];
        hole = parent;
    }
    _heap[hole] = entry;
}

EventQueue::HeapEntry
EventQueue::popHeap()
{
    HeapEntry top = _heap.front();
    HeapEntry last = _heap.back();
    _heap.pop_back();
    if (!_heap.empty()) {
        // Sift the former last element down from the root.
        std::size_t hole = 0;
        std::size_t size = _heap.size();
        while (true) {
            std::size_t first_child = hole * arity + 1;
            if (first_child >= size)
                break;
            std::size_t best = first_child;
            std::size_t end = std::min(first_child + arity, size);
            for (std::size_t c = first_child + 1; c < end; ++c) {
                if (before(_heap[c], _heap[best]))
                    best = c;
            }
            if (!before(_heap[best], last))
                break;
            _heap[hole] = _heap[best];
            hole = best;
        }
        _heap[hole] = last;
    }
    return top;
}

bool
EventQueue::run(Tick limit, std::uint64_t max_events)
{
    const std::uint64_t budget_end =
        max_events != 0 ? _eventsExecuted + max_events : 0;

    // Tick-batched dispatch. Every event of tick t sits in t's bucket
    // in sequence order (events scheduled during t are appended behind
    // the ones scheduled before it), so draining the bucket replicates
    // strict (when, seq) order without a comparison per event. Resuming
    // mid-tick (after a budget stop) is covered too: wheelNextTick scans
    // from the current tick's own bucket.
    while (pending() > 0) {
        if (budget_end != 0 && _eventsExecuted >= budget_end)
            return false;
        const Tick t = nextWhen();
        if (t > limit) {
            advanceTo(limit);
            return false;
        }
        advanceTo(t);

        const std::size_t idx = static_cast<std::size_t>(t & wheelMask);
        WheelBucket &bucket = _wheel[idx];
        while (!bucket.empty()) {
            if (budget_end != 0 && _eventsExecuted >= budget_end)
                return false;
            // Moved out before invocation: the callback may schedule
            // further events and grow or rotate the bucket.
            InlineEvent fn = wheelPop(bucket, idx);
            ++_eventsExecuted;
            fn();
        }
    }
    return true;
}

std::uint64_t
EventQueue::runEvents(std::uint64_t max_events)
{
    if (max_events == 0)
        return 0;
    const std::uint64_t before = _eventsExecuted;
    run(maxTick, max_events);
    return _eventsExecuted - before;
}

void
EventQueue::reset()
{
    // Destroying the pending InlineEvents parks their spilled blocks
    // back on _pool; vector capacity is retained.
    _heap.clear();
    _slots.clear();
    _freeSlots.clear();
    for (WheelBucket &bucket : _wheel) {
        bucket.entries.clear();
        bucket.head = 0;
    }
    _wheelOcc.fill(0);
    _wheelCount = 0;
    _curTick = 0;
    _nextSeq = 0;
    _eventsExecuted = 0;
}

} // namespace drf
