/**
 * @file
 * Thread pool for campaign shards.
 *
 * All workers take jobs from one FIFO queue, so jobs start in
 * submission order at any thread count; with one thread they also
 * finish in that order, which makes jobs=1 campaigns reproduce the
 * serial schedule. A worker that frees up always takes the oldest
 * queued job, matching the campaign loop's index-ordered drain and the
 * shrinker's preference for low candidates.
 *
 * Jobs must not let exceptions escape (an escaping exception terminates
 * the process, as with any detached thread); the campaign loop runs
 * every shard through a ShardRunner, whose barrier converts failures
 * into structured results.
 */

#ifndef DRF_CAMPAIGN_THREAD_POOL_HH
#define DRF_CAMPAIGN_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
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
        return static_cast<unsigned>(_threads.size());
    }

    /** Enqueue one job. Safe to call from any thread, including jobs. */
    void submit(Job job);

    /** Block until every submitted job has finished. */
    void waitIdle();

    /**
     * Drop every queued-but-unstarted job. Jobs already executing
     * finish normally. The campaign loop uses this when it stops
     * early: the queue empties wholesale instead of each job being
     * scheduled just to observe the stop.
     */
    void cancelPending();

    /**
     * CPUs in the calling thread's affinity mask, or hardware
     * concurrency when the mask cannot be read; at least 1.
     */
    static unsigned defaultThreads();

  private:
    void workerLoop();

    std::vector<std::thread> _threads;

    std::mutex _mutex; ///< guards everything below
    std::condition_variable _wake; ///< a job was queued, or stopping
    std::condition_variable _idle; ///< queue empty and nothing running
    std::deque<Job> _jobs;
    unsigned _running = 0;
    bool _stopping = false;
};

} // namespace drf

#endif // DRF_CAMPAIGN_THREAD_POOL_HH
