/**
 * @file
 * Unit tests for the campaign thread pool: one FIFO queue, so jobs
 * start in submission order at any thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "campaign/thread_pool.hh"
#include "pinned_thread.hh"

using namespace drf;
using drf::testing::runPinnedToOneCpu;

TEST(ThreadPool, DefaultThreadsIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    ThreadPool pool;
    EXPECT_GE(pool.threadCount(), 1u);
}

// A jobs=0 campaign must not oversubscribe a process confined by
// taskset or a cpuset: defaultThreads() counts the affinity mask.
TEST(ThreadPool, DefaultThreadsCountsTheAffinityMask)
{
    unsigned threads = 0;
    unsigned pool_threads = 0;
    runPinnedToOneCpu([&] {
        threads = ThreadPool::defaultThreads();
        ThreadPool pool;
        pool_threads = pool.threadCount();
    });
    EXPECT_EQ(threads, 1u);
    EXPECT_EQ(pool_threads, 1u);
}

TEST(ThreadPool, RunsEveryJobExactlyOnce)
{
    constexpr int kJobs = 200;
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);

    std::mutex mutex;
    std::set<int> seen;
    for (int i = 0; i < kJobs; ++i) {
        pool.submit([i, &mutex, &seen] {
            std::lock_guard<std::mutex> lock(mutex);
            EXPECT_TRUE(seen.insert(i).second) << "job ran twice: " << i;
        });
    }
    pool.waitIdle();
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(kJobs));
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately)
{
    ThreadPool pool(2);
    pool.waitIdle();
    pool.waitIdle();
}

TEST(ThreadPool, JobsCanSubmitJobs)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i) {
        pool.submit([&pool, &count] {
            ++count;
            pool.submit([&pool, &count] {
                ++count;
                pool.submit([&count] { ++count; });
            });
        });
    }
    pool.waitIdle();
    EXPECT_EQ(count.load(), 30);
}

TEST(ThreadPool, WorkDistributesAcrossWorkers)
{
    // Rendezvous: every job waits until two distinct workers have
    // entered one. A pool that let one worker hoard the queue while
    // the others idled would leave the first job waiting forever, so
    // participation is checked without relying on timing; the timeout
    // is only a hang guard.
    ThreadPool pool(4);
    std::mutex mutex;
    std::condition_variable entered;
    std::set<std::thread::id> ids;
    std::atomic<int> count{0};
    std::atomic<int> timedOut{0};
    for (int i = 0; i < 64; ++i) {
        pool.submit([&] {
            std::unique_lock<std::mutex> lock(mutex);
            ids.insert(std::this_thread::get_id());
            entered.notify_all();
            if (!entered.wait_for(lock, std::chrono::seconds(60),
                                  [&] { return ids.size() >= 2; }))
                ++timedOut;
            ++count;
        });
    }
    pool.waitIdle();
    EXPECT_EQ(count.load(), 64);
    EXPECT_EQ(timedOut.load(), 0);
    EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPool, SubmitFromManyThreads)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
        producers.emplace_back([&pool, &count] {
            for (int i = 0; i < 50; ++i)
                pool.submit([&count] { ++count; });
        });
    }
    for (std::thread &t : producers)
        t.join();
    pool.waitIdle();
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, DestructorDrainsOutstandingJobs)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] { ++count; });
        // No waitIdle: the destructor must finish the backlog.
    }
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReusableAcrossWaves)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int wave = 0; wave < 5; ++wave) {
        for (int i = 0; i < 20; ++i)
            pool.submit([&count] { ++count; });
        pool.waitIdle();
        EXPECT_EQ(count.load(), (wave + 1) * 20);
    }
}

// A freed worker takes the oldest queued job, not the newest: the
// campaign loop drains shards in index order and the shrinker prefers
// low candidates, so the pool must not reorder work while another
// worker is busy.
TEST(ThreadPool, JobsStartInSubmissionOrderWhileAWorkerIsBusy)
{
    ThreadPool pool(2);
    std::mutex mutex;
    std::condition_variable changed;
    int entered = 0;
    bool releaseFirst = false;
    bool releaseSecond = false;
    std::vector<int> order;

    auto gate = [&](bool &release) {
        return [&] {
            std::unique_lock<std::mutex> lock(mutex);
            ++entered;
            changed.notify_all();
            changed.wait(lock, [&] { return release; });
        };
    };
    pool.submit(gate(releaseFirst));
    pool.submit(gate(releaseSecond));
    {
        std::unique_lock<std::mutex> lock(mutex);
        changed.wait(lock, [&] { return entered == 2; });
    }

    for (int i = 1; i <= 6; ++i) {
        pool.submit([i, &mutex, &changed, &order] {
            std::lock_guard<std::mutex> lock(mutex);
            order.push_back(i);
            changed.notify_all();
        });
    }
    {
        std::unique_lock<std::mutex> lock(mutex);
        releaseSecond = true;
        changed.notify_all();
        // The timeout is only a hang guard; the order check follows.
        changed.wait_for(lock, std::chrono::seconds(60),
                         [&] { return order.size() == 6; });
        releaseFirst = true;
        changed.notify_all();
    }
    pool.waitIdle();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(ThreadPool, CancelPendingDropsOnlyQueuedJobs)
{
    ThreadPool pool(1);
    std::mutex mutex;
    std::condition_variable changed;
    bool started = false;
    bool release = false;
    bool finished = false;
    std::atomic<int> queuedRan{0};

    pool.submit([&] {
        std::unique_lock<std::mutex> lock(mutex);
        started = true;
        changed.notify_all();
        changed.wait(lock, [&] { return release; });
        finished = true;
    });
    for (int i = 0; i < 5; ++i)
        pool.submit([&queuedRan] { ++queuedRan; });
    {
        std::unique_lock<std::mutex> lock(mutex);
        changed.wait(lock, [&] { return started; });
    }

    pool.cancelPending();
    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    changed.notify_all();
    pool.waitIdle();

    EXPECT_TRUE(finished);
    EXPECT_EQ(queuedRan.load(), 0);

    // The pool stays usable after a cancel.
    pool.submit([&queuedRan] { ++queuedRan; });
    pool.waitIdle();
    EXPECT_EQ(queuedRan.load(), 1);
}
