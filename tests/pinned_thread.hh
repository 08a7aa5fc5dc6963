/**
 * @file
 * Run a function on a thread pinned to one CPU, so that
 * ThreadPool::defaultThreads() — and every pool sized by it — sees a
 * single CPU whatever the host has.
 */

#ifndef DRF_TESTS_PINNED_THREAD_HH
#define DRF_TESTS_PINNED_THREAD_HH

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <thread>

namespace drf::testing
{

/** Run @p fn on a new thread whose affinity is one allowed CPU. */
template <typename Fn>
void
runPinnedToOneCpu(Fn fn)
{
    std::thread pinned([&fn] {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
        int cpu = 0;
        while (!CPU_ISSET(cpu, &allowed))
            ++cpu;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(one), &one),
                  0);
        fn();
    });
    pinned.join();
}

} // namespace drf::testing

#endif // DRF_TESTS_PINNED_THREAD_HH
