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
    _workers.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        _workers.push_back(std::make_unique<Worker>());
    _threads.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        _threads.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    waitIdle();
    {
        std::lock_guard<std::mutex> lock(_sleepMutex);
        _stopping.store(true, std::memory_order_relaxed);
    }
    _wake.notify_all();
    for (auto &thread : _threads)
        thread.join();
}

void
ThreadPool::submit(Job job)
{
    assert(job && "submitting an empty job");
    _inFlight.fetch_add(1, std::memory_order_relaxed);
    std::size_t idx = _nextWorker.fetch_add(1, std::memory_order_relaxed)
                      % _workers.size();
    {
        std::lock_guard<std::mutex> lock(_workers[idx]->mutex);
        _workers[idx]->jobs.push_back(std::move(job));
    }
    {
        // Lock-then-notify pairs with the worker's check-then-wait.
        std::lock_guard<std::mutex> lock(_sleepMutex);
    }
    _wake.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(_sleepMutex);
    _idle.wait(lock, [this] {
        return _inFlight.load(std::memory_order_acquire) == 0;
    });
}

std::size_t
ThreadPool::cancelPending()
{
    std::size_t dropped = 0;
    for (auto &worker : _workers) {
        std::deque<Job> victims;
        {
            std::lock_guard<std::mutex> lock(worker->mutex);
            victims.swap(worker->jobs);
        }
        // Destroy the captured state outside the worker lock.
        dropped += victims.size();
    }
    if (dropped != 0 &&
        _inFlight.fetch_sub(dropped, std::memory_order_acq_rel) ==
            dropped) {
        std::lock_guard<std::mutex> lock(_sleepMutex);
        _idle.notify_all();
    }
    return dropped;
}

bool
ThreadPool::popOwn(unsigned idx, Job &out)
{
    Worker &w = *_workers[idx];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (w.jobs.empty())
        return false;
    out = std::move(w.jobs.front());
    w.jobs.pop_front();
    return true;
}

bool
ThreadPool::steal(unsigned idx, Job &out)
{
    std::size_t n = _workers.size();
    for (std::size_t off = 1; off < n; ++off) {
        Worker &victim = *_workers[(idx + off) % n];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.jobs.empty()) {
            out = std::move(victim.jobs.back());
            victim.jobs.pop_back();
            return true;
        }
    }
    return false;
}

bool
ThreadPool::anyQueued() const
{
    for (const auto &worker : _workers) {
        std::lock_guard<std::mutex> lock(worker->mutex);
        if (!worker->jobs.empty())
            return true;
    }
    return false;
}

void
ThreadPool::workerLoop(unsigned idx)
{
    for (;;) {
        Job job;
        if (popOwn(idx, job) || steal(idx, job)) {
            job();
            job = Job(); // release captures before accounting
            if (_inFlight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                std::lock_guard<std::mutex> lock(_sleepMutex);
                _idle.notify_all();
            }
            continue;
        }
        std::unique_lock<std::mutex> lock(_sleepMutex);
        if (_stopping.load(std::memory_order_relaxed))
            return;
        if (anyQueued())
            continue; // raced with a submit; retry without sleeping
        _wake.wait(lock);
    }
}

} // namespace drf
