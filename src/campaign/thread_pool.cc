#include "campaign/thread_pool.hh"

#include <sched.h>

#include <algorithm>
#include <cassert>

namespace drf
{

unsigned
ThreadPool::defaultThreads()
{
    // The CPUs this thread may run on: under taskset or a cpuset that
    // is fewer than the machine has.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        int cpus = CPU_COUNT(&set);
        if (cpus > 0)
            return static_cast<unsigned>(cpus);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, hw);
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    _threads.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        _threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    waitIdle();
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
    }
    _wake.notify_all();
    for (auto &thread : _threads)
        thread.join();
}

void
ThreadPool::submit(Job job)
{
    assert(job && "submitting an empty job");
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _jobs.push_back(std::move(job));
    }
    _wake.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(_mutex);
    _idle.wait(lock, [this] { return _jobs.empty() && _running == 0; });
}

void
ThreadPool::cancelPending()
{
    std::deque<Job> dropped;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        dropped.swap(_jobs);
        if (_running == 0)
            _idle.notify_all();
    }
    // The dropped jobs' captured state is destroyed outside the lock.
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(_mutex);
    for (;;) {
        _wake.wait(lock, [this] { return _stopping || !_jobs.empty(); });
        if (_jobs.empty())
            return; // stopping, and the destructor drained the queue
        Job job = std::move(_jobs.front());
        _jobs.pop_front();
        ++_running;
        lock.unlock();
        job();
        job = Job(); // release captures before accounting
        lock.lock();
        if (--_running == 0 && _jobs.empty())
            _idle.notify_all();
    }
}

} // namespace drf
