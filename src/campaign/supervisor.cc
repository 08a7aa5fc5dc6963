#include "campaign/supervisor.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define DRF_SUPERVISOR_HAVE_FORK 1
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define DRF_SUPERVISOR_HAVE_FORK 0
#endif

#include "campaign/campaign_json.hh"
#include "campaign/journal.hh"
#include "campaign/posix_io.hh"
#include "chaos/chaos.hh"
#include "trace/repro.hh"
#include "trace/trace_file.hh"

namespace drf
{

namespace
{

using Clock = std::chrono::steady_clock;

thread_local unsigned t_shardAttempt = 1;

// Set by the signal handler; polled through SignalGuard::caught().
// Async-signal-safe by construction (one relaxed atomic store).
std::atomic<int> g_signalCaught{0};

void
onTerminationSignal(int sig)
{
    g_signalCaught.store(sig, std::memory_order_relaxed);
}

/** One shard attempt under watch: its deadline and how to reap it. */
struct WatchedTask
{
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;     ///< attempt finished (any way)
    bool timedOut = false; ///< reaped by the watchdog
    Clock::time_point deadline{};
#if DRF_SUPERVISOR_HAVE_FORK
    pid_t childPid = -1; ///< fork mode: the child to SIGKILL
#endif
    ShardOutcome outcome; ///< in-process mode result slot
};

/** Build a host-level outcome (no stats, no grids — just triage). */
ShardOutcome
hostOutcome(const ShardSpec &spec, std::size_t index, unsigned attempt,
            FailureClass cls, std::string report)
{
    ShardOutcome out;
    out.name = spec.name;
    out.seed = spec.seed;
    out.index = index;
    out.attempts = attempt;
    out.result.passed = false;
    out.result.failureClass = cls;
    out.result.report = std::move(report);
    return out;
}

/**
 * In-process exception barrier: run the shard on the calling thread,
 * converting escapes into host triage (uncaught throw -> HostCrash,
 * bad_alloc -> ResourceExhausted, ResourceExhaustedError -> retriable).
 */
ShardOutcome
runInProcess(const ShardSpec &spec, std::size_t index, unsigned attempt)
{
    t_shardAttempt = attempt;
    ShardOutcome out;
    try {
        out = spec.run();
    } catch (const ResourceExhaustedError &e) {
        out = hostOutcome(spec, index, attempt,
                          FailureClass::ResourceExhausted, e.what());
    } catch (const std::bad_alloc &) {
        out = hostOutcome(spec, index, attempt,
                          FailureClass::ResourceExhausted,
                          "shard ran out of memory (std::bad_alloc)");
    } catch (const std::exception &e) {
        out = hostOutcome(spec, index, attempt, FailureClass::HostCrash,
                          std::string("uncaught shard exception: ") +
                              e.what());
    } catch (...) {
        out = hostOutcome(spec, index, attempt, FailureClass::HostCrash,
                          "uncaught shard exception of unknown type");
    }
    t_shardAttempt = 1;
    if (out.name.empty())
        out.name = spec.name;
    out.seed = spec.seed;
    out.index = index;
    out.attempts = attempt;
    return out;
}

#if DRF_SUPERVISOR_HAVE_FORK

// Serializes the pipe()+fork()+close() window so a concurrently forked
// child can never inherit another shard's pipe write end (which would
// keep that shard's parent blocked on read() past its child's death).
// Process-wide (not per-ShardRunner): a fleet worker and a test harness
// in one process must still serialize against each other.
std::mutex g_forkMutex;

#endif // DRF_SUPERVISOR_HAVE_FORK

std::string
sanitizeFileName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        if (!ok)
            c = '_';
    }
    return out;
}

/**
 * Re-record a DRFTRC01 repro trace for a failing shard with preset
 * provenance. Protocol-level failures re-record in-process (they are
 * deterministic and bounded). Host-level failures re-record inside a
 * bounded forked child when fork isolation is on; without fork
 * isolation a JSON stub preserving preset + seed is written instead —
 * re-running a shard that just hung the host in-process could hang the
 * supervisor itself.
 */
void
captureRepro(const SupervisorConfig &cfg, const ShardSpec &spec,
             const ShardOutcome &out)
{
    if (cfg.reproDir.empty() || out.result.passed || !spec.gpuPreset)
        return;
#if DRF_SUPERVISOR_HAVE_FORK
    ::mkdir(cfg.reproDir.c_str(), 0777); // best effort
#endif
    std::string base = cfg.reproDir + "/" + sanitizeFileName(out.name);
    bool host = isHostFailureClass(out.result.failureClass);

    if (!host) {
        ReproTrace trace = recordGpuRun(*spec.gpuPreset);
        saveTraceFile(base + ".trace", trace);
        return;
    }

#if DRF_SUPERVISOR_HAVE_FORK
    if (cfg.forkIsolation) {
        pid_t pid = -1;
        {
            std::lock_guard<std::mutex> lock(g_forkMutex);
            pid = ::fork();
        }
        if (pid == 0) {
            // Bound the re-record: SIGALRM's default action kills the
            // child if the preset itself hangs.
            double timeout = cfg.shardTimeoutSeconds;
            unsigned cap = static_cast<unsigned>(
                std::max(5.0, 2.0 * std::max(0.0, timeout)));
            ::alarm(cap);
            ReproTrace trace = recordGpuRun(*spec.gpuPreset);
            saveTraceFile(base + ".trace", trace);
            ::_exit(0);
        }
        if (pid > 0) {
            int status = 0;
            while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
        }
        return;
    }
#endif

    // In-process host failure: preserve identity without re-running.
    JsonWriter w;
    w.beginObject();
    w.key("kind").value("hostfail_stub");
    w.key("name").value(out.name);
    w.key("seed").value(out.seed);
    w.key("preset").value(spec.gpuPreset->name);
    w.key("failure_class")
        .value(failureClassName(out.result.failureClass));
    w.key("report").value(out.result.report);
    w.endObject();
    std::ofstream stub(base + ".hostfail.json");
    stub << w.str() << '\n';
}

} // namespace

/**
 * ShardRunner internals: the deadline watchdog and the per-attempt
 * isolation modes. One instance supervises any number of concurrent
 * run() calls; the watchdog thread exists only when a wall-clock
 * deadline is configured.
 */
struct ShardRunner::Impl
{
    const SupervisorConfig cfg;
    std::function<bool()> stopCheck;

    std::mutex watchMutex;
    std::vector<std::shared_ptr<WatchedTask>> watched;

    std::atomic<bool> shutdown{false};
    std::thread watchdog;

    explicit Impl(const SupervisorConfig &c) : cfg(c)
    {
        if (cfg.shardTimeoutSeconds > 0.0)
            watchdog = std::thread([this] { watchdogLoop(); });
    }

    ~Impl()
    {
        shutdown.store(true, std::memory_order_release);
        if (watchdog.joinable())
            watchdog.join();
    }

    bool
    stopRequested() const
    {
        return stopCheck && stopCheck();
    }

    void
    registerTask(const std::shared_ptr<WatchedTask> &task)
    {
        std::lock_guard<std::mutex> lock(watchMutex);
        watched.push_back(task);
    }

    /** Scan deadlines, reaping overdue attempts. */
    void
    watchdogLoop()
    {
        while (!shutdown.load(std::memory_order_acquire)) {
            Clock::time_point now = Clock::now();
            {
                std::lock_guard<std::mutex> lock(watchMutex);
                for (auto &task : watched) {
                    std::lock_guard<std::mutex> tl(task->mutex);
                    if (task->done || task->timedOut)
                        continue;
                    if (now < task->deadline)
                        continue;
                    task->timedOut = true;
#if DRF_SUPERVISOR_HAVE_FORK
                    if (task->childPid > 0)
                        ::kill(task->childPid, SIGKILL);
#endif
                    task->cv.notify_all();
                }
                watched.erase(
                    std::remove_if(watched.begin(), watched.end(),
                                   [](const auto &task) {
                                       std::lock_guard<std::mutex> tl(
                                           task->mutex);
                                       return task->done;
                                   }),
                    watched.end());
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }

    /**
     * In-process attempt with a wall-clock deadline: the shard runs on
     * a dedicated thread; on timeout the thread is abandoned (detached)
     * and the shard becomes a HostTimeout. The thread owns copies of
     * everything it touches (spec, task), so abandoning it is safe — it
     * can only waste one core until the process exits, which is the
     * best that can be done for a truly wedged shard without process
     * isolation.
     */
    ShardOutcome
    runWithDeadline(const ShardSpec &spec, std::size_t index,
                    unsigned attempt)
    {
        auto task = std::make_shared<WatchedTask>();
        task->deadline =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(
                    cfg.shardTimeoutSeconds));
        registerTask(task);

        std::thread worker([task, spec, index, attempt]() {
            ShardOutcome out = runInProcess(spec, index, attempt);
            std::lock_guard<std::mutex> lock(task->mutex);
            task->outcome = std::move(out);
            task->done = true;
            task->cv.notify_all();
        });

        std::unique_lock<std::mutex> lock(task->mutex);
        task->cv.wait(lock,
                      [&] { return task->done || task->timedOut; });
        if (task->done) {
            lock.unlock();
            worker.join();
            return std::move(task->outcome);
        }
        lock.unlock();
        worker.detach();
        return hostOutcome(
            spec, index, attempt, FailureClass::HostTimeout,
            "shard exceeded its wall-clock deadline (" +
                std::to_string(cfg.shardTimeoutSeconds) +
                " s); worker thread abandoned");
    }

#if DRF_SUPERVISOR_HAVE_FORK

    /**
     * Fork-isolated attempt: the child runs the shard under the
     * in-process barrier and reports the outcome over a pipe as one
     * journal-format line; the parent triages the wait status. Anything
     * that kills the child — segfault, abort, a sanitizer's _exit(1) —
     * is a HostCrash; a watchdog SIGKILL is a HostTimeout; fork/pipe
     * trouble or a torn outcome line is ResourceExhausted (retriable).
     */
    ShardOutcome
    runForked(const ShardSpec &spec, std::size_t index,
              unsigned attempt)
    {
        int fds[2] = {-1, -1};
        pid_t pid = -1;
        {
            std::lock_guard<std::mutex> lock(g_forkMutex);
            if (::pipe(fds) != 0) {
                return hostOutcome(spec, index, attempt,
                                   FailureClass::ResourceExhausted,
                                   std::string("pipe() failed: ") +
                                       std::strerror(errno));
            }
            t_shardAttempt = attempt; // inherited across fork()
            pid = ::fork();
            if (pid == 0) {
                // Child: run the shard, ship the outcome, _exit
                // without running atexit/static destructors (the
                // parent owns them).
                ::close(fds[0]);
                ShardOutcome out = runInProcess(spec, index, attempt);
                std::string line = shardOutcomeToJson(out);
                line.push_back('\n');
                io::writeAll(fds[1], line);
                ::close(fds[1]);
                ::_exit(0);
            }
            t_shardAttempt = 1;
            ::close(fds[1]);
            if (pid < 0) {
                ::close(fds[0]);
                return hostOutcome(spec, index, attempt,
                                   FailureClass::ResourceExhausted,
                                   std::string("fork() failed: ") +
                                       std::strerror(errno));
            }
        }

        auto task = std::make_shared<WatchedTask>();
        task->childPid = pid;
        if (cfg.shardTimeoutSeconds > 0.0) {
            task->deadline =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        cfg.shardTimeoutSeconds));
            registerTask(task);
        }

        // Drain before waitpid so a chatty child can't deadlock on a
        // full pipe; EOF arrives when the child exits or is killed.
        std::string data = io::readToEof(fds[0]);
        ::close(fds[0]);

        int status = 0;
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
        {
            std::lock_guard<std::mutex> lock(task->mutex);
            task->done = true;
        }

        bool timed_out;
        {
            std::lock_guard<std::mutex> lock(task->mutex);
            timed_out = task->timedOut;
        }
        if (timed_out) {
            return hostOutcome(
                spec, index, attempt, FailureClass::HostTimeout,
                "shard exceeded its wall-clock deadline (" +
                    std::to_string(cfg.shardTimeoutSeconds) +
                    " s); child process killed");
        }
        if (WIFSIGNALED(status)) {
            return hostOutcome(spec, index, attempt,
                               FailureClass::HostCrash,
                               "shard child terminated by signal " +
                                   std::to_string(WTERMSIG(status)));
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
            return hostOutcome(
                spec, index, attempt, FailureClass::HostCrash,
                "shard child exited with status " +
                    std::to_string(WEXITSTATUS(status)) +
                    " (crash handler or sanitizer abort)");
        }

        ShardOutcome out;
        std::string line = data.substr(0, data.find('\n'));
        if (!parseShardOutcome(line, out)) {
            return hostOutcome(
                spec, index, attempt,
                FailureClass::ResourceExhausted,
                "shard child produced no parseable outcome "
                "(torn pipe write)");
        }
        out.index = index;
        out.attempts = attempt;
        return out;
    }

#endif // DRF_SUPERVISOR_HAVE_FORK

    /** Dispatch one attempt to the configured isolation mode. */
    ShardOutcome
    runAttempt(const ShardSpec &spec, std::size_t index,
               unsigned attempt)
    {
#if DRF_SUPERVISOR_HAVE_FORK
        if (cfg.forkIsolation)
            return runForked(spec, index, attempt);
#endif
        if (cfg.shardTimeoutSeconds > 0.0)
            return runWithDeadline(spec, index, attempt);
        return runInProcess(spec, index, attempt);
    }

    /** Run one shard to a final outcome: attempts + retries. */
    ShardOutcome
    runSupervised(ShardSpec &spec, std::size_t index)
    {
        // Apply the simulation event budget by rebuilding the runner
        // from the preset (this replaces any wrapper around run()).
        if (cfg.shardEventBudget != 0 && spec.gpuPreset) {
            GpuTestPreset preset = *spec.gpuPreset;
            preset.tester.eventBudget = cfg.shardEventBudget;
            ShardSpec budgeted = gpuShard(preset);
            spec.run = std::move(budgeted.run);
            spec.gpuPreset = std::move(budgeted.gpuPreset);
        }

        unsigned attempt = 1;
        for (;;) {
            ShardOutcome out = runAttempt(spec, index, attempt);
            bool transient = out.result.failureClass ==
                             FailureClass::ResourceExhausted;
            if (transient && attempt <= cfg.maxRetries &&
                !stopRequested()) {
                std::uint64_t base =
                    static_cast<std::uint64_t>(cfg.retryBackoffMs)
                    << (attempt - 1);
                // Deterministic jitter: hashed from (shard seed,
                // attempt), so two workers retrying sibling shards
                // after one ResourceExhausted burst don't hammer the
                // host in lockstep, while the exact delay for a given
                // shard stays reproducible.
                std::uint64_t extra = 0;
                if (cfg.retryJitterPct > 0 && base > 0) {
                    std::uint64_t span =
                        base * cfg.retryJitterPct / 100 + 1;
                    char tag[32];
                    std::snprintf(tag, sizeof(tag), "retry-%u",
                                  attempt);
                    extra = chaos::deriveSeed(spec.seed, tag) % span;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(base + extra));
                ++attempt;
                continue;
            }
            out.attempts = attempt;
            return out;
        }
    }
};

ShardRunner::ShardRunner(const SupervisorConfig &cfg)
    : _impl(std::make_unique<Impl>(cfg))
{
    // Fleet transports and journal writes may hit closed pipes; a
    // supervised process must see EPIPE, not die.
    io::ignoreSigpipe();
}

ShardRunner::ShardRunner(const ShardPolicy &policy)
    : ShardRunner([&policy] {
          SupervisorConfig cfg;
          static_cast<ShardPolicy &>(cfg) = policy;
          return cfg;
      }())
{
}

ShardRunner::~ShardRunner() = default;

void
ShardRunner::setStopCheck(std::function<bool()> stop_check)
{
    _impl->stopCheck = std::move(stop_check);
}

ShardOutcome
ShardRunner::run(ShardSpec spec, std::size_t index)
{
    ShardOutcome out = _impl->runSupervised(spec, index);
    captureRepro(_impl->cfg, spec, out);
    return out;
}

unsigned
currentShardAttempt()
{
    return t_shardAttempt;
}

SignalGuard::SignalGuard(bool enable) : _enabled(enable)
{
    if (!_enabled)
        return;
    g_signalCaught.store(0, std::memory_order_relaxed);
    _oldInt = std::signal(SIGINT, onTerminationSignal);
    _oldTerm = std::signal(SIGTERM, onTerminationSignal);
}

SignalGuard::~SignalGuard()
{
    if (!_enabled)
        return;
    std::signal(SIGINT, _oldInt == SIG_ERR ? SIG_DFL : _oldInt);
    std::signal(SIGTERM, _oldTerm == SIG_ERR ? SIG_DFL : _oldTerm);
}

bool
SignalGuard::caught() const
{
    return _enabled &&
           g_signalCaught.load(std::memory_order_relaxed) != 0;
}

} // namespace drf
