/**
 * @file
 * Work-stealing thread pool for campaign shards.
 *
 * Each worker owns a deque: it pops its own work from the front (oldest
 * first, so a single-worker pool runs jobs in exact submission order —
 * which makes jobs=1 campaigns reproduce the serial schedule) and steals
 * from the back of a sibling's deque when empty, so a long-running shard
 * on one worker never strands queued shards behind it. Submission
 * round-robins across workers to seed the deques evenly.
 *
 * Jobs must not let exceptions escape (an escaping exception terminates
 * the process, as with any detached thread); the campaign loop runs
 * every shard through a ShardRunner, whose barrier converts failures
 * into structured results.
 */

#ifndef DRF_CAMPAIGN_THREAD_POOL_HH
#define DRF_CAMPAIGN_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace drf
{

class ThreadPool
{
  public:
    using Job = std::function<void()>;

    /**
     * @param threads Worker count; 0 means defaultThreads().
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Waits for all submitted jobs, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(_workers.size());
    }

    /** Enqueue one job. Safe to call from any thread, including jobs. */
    void submit(Job job);

    /** Block until every submitted job has finished. */
    void waitIdle();

    /**
     * Drop every queued-but-unstarted job and return how many were
     * dropped. Jobs already executing finish normally. The campaign
     * loop uses this when it stops early: the queue empties wholesale
     * instead of each job being scheduled just to observe the stop.
     */
    std::size_t cancelPending();

    /**
     * CPUs in the calling thread's affinity mask, or hardware
     * concurrency when the mask cannot be read; at least 1.
     */
    static unsigned defaultThreads();

  private:
    struct Worker
    {
        std::mutex mutex;
        std::deque<Job> jobs;
    };

    void workerLoop(unsigned idx);
    bool popOwn(unsigned idx, Job &out);
    bool steal(unsigned idx, Job &out);
    bool anyQueued() const;

    std::vector<std::unique_ptr<Worker>> _workers;
    std::vector<std::thread> _threads;

    // _sleepMutex guards the sleep/wake handshake: submitters notify
    // under it, workers re-check the deques under it before waiting, so
    // a submission can never slip between check and wait.
    mutable std::mutex _sleepMutex;
    std::condition_variable _wake;
    std::condition_variable _idle;

    std::atomic<std::uint64_t> _inFlight{0}; ///< submitted, not finished
    std::atomic<std::uint64_t> _nextWorker{0};
    std::atomic<bool> _stopping{false};
};

} // namespace drf

#endif // DRF_CAMPAIGN_THREAD_POOL_HH
