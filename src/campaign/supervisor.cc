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
#include <optional>
#include <thread>
#include <utility>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

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

// Retry backoff jitter, as a percentage of the base delay. Derived
// deterministically from the shard's seed and the attempt number (same
// shard, same delays), so the retry storm of a fleet of workers
// de-synchronizes without real randomness in a reproducible campaign.
constexpr unsigned kRetryJitterPct = 50;

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

/** The wall-clock deadline @p seconds from now; none when <= 0. */
Clock::time_point
deadlineAfter(double seconds)
{
    if (seconds <= 0.0)
        return Clock::time_point::max();
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

/** The HostTimeout report of an attempt reaped at its deadline. */
std::string
deadlineReport(double seconds, const char *reaped)
{
    return "shard exceeded its wall-clock deadline (" +
           std::to_string(seconds) + " s); " + reaped;
}

/**
 * In-process attempt with a wall-clock deadline: the shard runs on a
 * dedicated thread while the calling thread waits for its result until
 * the deadline; past it the thread is abandoned (detached) and the
 * shard becomes a HostTimeout. The thread owns copies of everything it
 * touches (spec, result slot), so abandoning it is safe — it can only
 * waste one core until the process exits, which is the best that can be
 * done for a truly wedged shard without process isolation.
 */
ShardOutcome
runWithDeadline(const ShardSpec &spec, std::size_t index,
                unsigned attempt, double timeout_seconds)
{
    struct Slot
    {
        std::mutex mutex;
        std::condition_variable cv;
        std::optional<ShardOutcome> outcome;
    };
    auto slot = std::make_shared<Slot>();
    std::thread worker([slot, spec, index, attempt]() {
        ShardOutcome out = runInProcess(spec, index, attempt);
        std::lock_guard<std::mutex> lock(slot->mutex);
        slot->outcome = std::move(out);
        slot->cv.notify_all();
    });

    std::unique_lock<std::mutex> lock(slot->mutex);
    if (slot->cv.wait_until(lock, deadlineAfter(timeout_seconds),
                            [&] { return slot->outcome.has_value(); })) {
        lock.unlock();
        worker.join();
        return std::move(*slot->outcome);
    }
    lock.unlock();
    worker.detach();
    return hostOutcome(spec, index, attempt, FailureClass::HostTimeout,
                       deadlineReport(timeout_seconds,
                                      "worker thread abandoned"));
}

// Serializes the pipe()+fork()+close() window so a concurrently forked
// child can never inherit another shard's pipe write end (which would
// keep that shard's parent blocked on read() past its child's death).
// Process-wide (not per-ShardRunner): a fleet worker and a test harness
// in one process must still serialize against each other.
std::mutex g_forkMutex;

/**
 * Fork-isolated attempt: the child runs the shard under the in-process
 * barrier and reports the outcome over a pipe as one journal-format
 * line; the parent drains the pipe until EOF or the deadline, SIGKILLs
 * a child still running at the deadline, and triages the wait status.
 * Anything that kills the child — segfault, abort, a sanitizer's
 * _exit(1) — is a HostCrash; the deadline SIGKILL is a HostTimeout;
 * fork/pipe trouble or a torn outcome line is ResourceExhausted
 * (retriable).
 */
ShardOutcome
runForked(const ShardSpec &spec, std::size_t index, unsigned attempt,
          double timeout_seconds)
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
            // Child: run the shard, ship the outcome, _exit without
            // running atexit/static destructors (the parent owns them).
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

    // Drain before waitpid so a chatty child can't deadlock on a full
    // pipe; EOF arrives when the child exits.
    bool timed_out = false;
    std::string data =
        io::readToEof(fds[0], deadlineAfter(timeout_seconds), &timed_out);
    ::close(fds[0]);
    if (timed_out)
        ::kill(pid, SIGKILL);

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {}

    if (timed_out) {
        return hostOutcome(spec, index, attempt, FailureClass::HostTimeout,
                           deadlineReport(timeout_seconds,
                                          "child process killed"));
    }
    if (WIFSIGNALED(status)) {
        return hostOutcome(spec, index, attempt, FailureClass::HostCrash,
                           "shard child terminated by signal " +
                               std::to_string(WTERMSIG(status)));
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        return hostOutcome(spec, index, attempt, FailureClass::HostCrash,
                           "shard child exited with status " +
                               std::to_string(WEXITSTATUS(status)) +
                               " (crash handler or sanitizer abort)");
    }

    ShardOutcome out;
    std::string line = data.substr(0, data.find('\n'));
    if (!parseShardOutcome(line, out)) {
        return hostOutcome(spec, index, attempt,
                           FailureClass::ResourceExhausted,
                           "shard child produced no parseable outcome "
                           "(torn pipe write)");
    }
    out.index = index;
    out.attempts = attempt;
    return out;
}

/** Dispatch one attempt to the isolation mode @p policy asks for. */
ShardOutcome
runAttempt(const ShardPolicy &policy, const ShardSpec &spec,
           std::size_t index, unsigned attempt)
{
    if (policy.forkIsolation)
        return runForked(spec, index, attempt,
                         policy.shardTimeoutSeconds);
    if (policy.shardTimeoutSeconds > 0.0)
        return runWithDeadline(spec, index, attempt,
                               policy.shardTimeoutSeconds);
    return runInProcess(spec, index, attempt);
}

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
 * deterministic and bounded). Host-level failures re-record in one more
 * forked attempt when fork isolation is on, bounded by max(5 s, 2 x the
 * shard deadline); without fork isolation a JSON stub preserving
 * preset + seed is written instead — re-running a shard that just hung
 * the host in-process could hang the supervisor itself.
 */
void
captureRepro(const ShardPolicy &policy, const std::string &repro_dir,
             const ShardSpec &spec, const ShardOutcome &out)
{
    if (repro_dir.empty() || out.result.passed || !spec.gpuPreset)
        return;
    ::mkdir(repro_dir.c_str(), 0777); // best effort
    std::string base = repro_dir + "/" + sanitizeFileName(out.name);
    bool host = isHostFailureClass(out.result.failureClass);

    if (!host) {
        ReproTrace trace = recordGpuRun(*spec.gpuPreset);
        saveTraceFile(base + ".trace", trace);
        return;
    }

    if (policy.forkIsolation) {
        ShardSpec rerecord;
        rerecord.name = out.name;
        rerecord.seed = out.seed;
        rerecord.run = [preset = spec.gpuPreset, path = base + ".trace"] {
            saveTraceFile(path, recordGpuRun(*preset));
            return ShardOutcome{};
        };
        runForked(rerecord, out.index, 1,
                  std::max(5.0, 2.0 * policy.shardTimeoutSeconds));
        return;
    }

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

ShardRunner::ShardRunner(const ShardPolicy &policy, std::string repro_dir)
    : _policy(policy), _reproDir(std::move(repro_dir))
{
    // Fleet transports and journal writes may hit closed pipes; a
    // supervised process must see EPIPE, not die.
    io::ignoreSigpipe();
}

void
ShardRunner::setStopCheck(std::function<bool()> stop_check)
{
    _stopCheck = std::move(stop_check);
}

ShardOutcome
ShardRunner::run(ShardSpec spec, std::size_t index)
{
    // Apply the simulation event budget by rebuilding the runner from
    // the preset (this replaces any wrapper around run()).
    if (_policy.shardEventBudget != 0 && spec.gpuPreset) {
        GpuTestPreset preset = *spec.gpuPreset;
        preset.tester.eventBudget = _policy.shardEventBudget;
        ShardSpec budgeted = gpuShard(preset);
        spec.run = std::move(budgeted.run);
        spec.gpuPreset = std::move(budgeted.gpuPreset);
    }

    unsigned attempt = 1;
    ShardOutcome out = runAttempt(_policy, spec, index, attempt);
    while (out.result.failureClass == FailureClass::ResourceExhausted &&
           attempt <= _policy.maxRetries &&
           !(_stopCheck && _stopCheck())) {
        std::uint64_t base =
            static_cast<std::uint64_t>(_policy.retryBackoffMs)
            << (attempt - 1);
        // Deterministic jitter: hashed from (shard seed, attempt), so
        // two workers retrying sibling shards after one
        // ResourceExhausted burst don't hammer the host in lockstep,
        // while the exact delay for a given shard stays reproducible.
        std::uint64_t extra = 0;
        if (base > 0) {
            char tag[32];
            std::snprintf(tag, sizeof(tag), "retry-%u", attempt);
            extra = chaos::deriveSeed(spec.seed, tag) %
                    (base * kRetryJitterPct / 100 + 1);
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(base + extra));
        out = runAttempt(_policy, spec, index, ++attempt);
    }
    out.attempts = attempt;
    captureRepro(_policy, _reproDir, spec, out);
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
