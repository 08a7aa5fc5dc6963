/**
 * @file
 * The original std::function-based event queue, kept verbatim as a
 * validation oracle and benchmark baseline.
 *
 * The production EventQueue (event_queue.hh) replaced these entries with
 * small-buffer-optimized InlineEvents, a 4-ary heap, and a same-tick
 * FIFO fast path. Tests drive both queues with identical schedules and
 * assert identical firing orders (tests/test_queue_determinism.cc), and
 * bench/micro_throughput.cc measures the speedup of the overhaul
 * against this implementation (BM_LegacyEventQueueScheduleRun vs
 * BM_EventQueueScheduleRun). To keep the comparison honest, the
 * method bodies live out of line in legacy_event_queue.cc exactly as
 * the original event_queue.cc had them — inlining them here would make
 * the baseline faster than the code being replaced ever was. Do not use
 * this class in new simulation code.
 */

#ifndef DRF_SIM_LEGACY_EVENT_QUEUE_HH
#define DRF_SIM_LEGACY_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace drf
{

/** Reference tick-ordered queue: std::function entries, binary heap. */
class LegacyEventQueue
{
  public:
    using EventFunc = std::function<void()>;

    LegacyEventQueue() = default;

    LegacyEventQueue(const LegacyEventQueue &) = delete;
    LegacyEventQueue &operator=(const LegacyEventQueue &) = delete;

    Tick curTick() const { return _curTick; }
    std::uint64_t eventsExecuted() const { return _eventsExecuted; }
    std::size_t pending() const { return _queue.size(); }

    void schedule(Tick when, EventFunc fn);

    void
    scheduleAfter(Tick delay, EventFunc fn)
    {
        schedule(_curTick + delay, std::move(fn));
    }

    bool run(Tick limit = maxTick);
    std::uint64_t runEvents(std::uint64_t max_events);
    void reset();

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        EventFunc fn;

        bool
        operator<(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    void executeNext();

    std::vector<Entry> _queue;
    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _eventsExecuted = 0;
};

} // namespace drf

#endif // DRF_SIM_LEGACY_EVENT_QUEUE_HH
