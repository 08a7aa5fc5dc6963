/**
 * @file
 * Shard supervision: isolation, hang/crash triage, bounded retry, and
 * repro capture — the one shard barrier every campaign runs through.
 *
 * The in-process campaign loop (guidance/adaptive_campaign.hh, which
 * runCampaign and runSupervisedCampaign drive too) and every fleet
 * worker run each shard through a ShardRunner, so a shard fails — and
 * retries, and times out — identically wherever it runs. A shard is a
 * fault-contained unit: a campaign left running unattended for hours
 * survives anything a single shard does to its host:
 *
 *  - Isolation. Every attempt runs under an exception barrier that
 *    turns an uncaught throw into FailureClass::HostCrash and
 *    std::bad_alloc into ResourceExhausted. With forkIsolation, the
 *    attempt runs in a forked child that reports its outcome over a
 *    pipe using the journal line format — a segfault or sanitizer abort
 *    kills only the child and is triaged as HostCrash with the seed
 *    preserved.
 *
 *  - Reaping. Each attempt enforces its own wall-clock deadline
 *    (shardTimeoutSeconds) on the thread that waits for it: a forked
 *    child's pipe is drained until the deadline and the child is then
 *    SIGKILLed; an in-process shard's result is waited for until the
 *    deadline and its (detached) worker thread is then abandoned.
 *    Either way the shard becomes a HostTimeout outcome and the
 *    campaign keeps going. The simulation event budget
 *    (shardEventBudget) complements it deterministically from inside
 *    the simulation — a livelocked shard that stays busy without
 *    finishing exhausts the budget and self-reports HostTimeout. Both
 *    complement the in-sim forward-progress watchdog, which can only
 *    see a *stuck* request, not a stuck host.
 *
 *  - Retry. Only ResourceExhausted outcomes (fork/pipe failure, OOM,
 *    torn pipe output, injected transient faults) are retried, up to
 *    maxRetries with exponential backoff, re-running the *same*
 *    (config, seed) so determinism is preserved. Protocol-level
 *    failures are verdicts about the simulated system — deterministic
 *    per seed — and are never retried; neither are HostCrash or
 *    HostTimeout, which a retry would just reproduce (or worse, mask).
 *
 *  - Repro capture. Any failing shard with preset provenance
 *    (ShardSpec::gpuPreset) gets a DRFTRC01 trace re-recorded into
 *    reproDir, feeding tools/shrink_repro; host-level failures under
 *    fork isolation re-record in one more forked attempt, bounded by
 *    max(5 s, 2 x shardTimeoutSeconds), and in-process host failures
 *    fall back to a JSON stub preserving preset + seed.
 *
 * Checkpointing and graceful shutdown are campaign-level and live in
 * the loop: with journalPath set, each merged shard is appended to an
 * append-only JSONL journal (journal.hh) in shard-index order; resume
 * adopts journaled protocol-level outcomes instead of re-running them
 * (a host-level outcome describes the old host environment, not the
 * deterministic simulation, so those shards get a fresh chance); and
 * with handleSignals, SIGINT/SIGTERM (caught by a SignalGuard) stop the
 * campaign gracefully — running shards finish and are journaled,
 * unstarted ones are skipped, and the result is marked interrupted.
 *
 * The supervisor's own test harness is the host-fault injector
 * (host_fault.hh), which deterministically makes designated shards
 * crash, hang, or fail transiently — mirroring how proto/fault.hh
 * validates the tester itself.
 */

#ifndef DRF_CAMPAIGN_SUPERVISOR_HH
#define DRF_CAMPAIGN_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "campaign/campaign.hh"

namespace drf
{

/**
 * Transient host-level failure (fork/OOM/IO). Shards may throw it to
 * signal "the host environment failed me, the same (config, seed) may
 * well succeed"; the supervisor triages it as
 * FailureClass::ResourceExhausted and retries.
 */
class ResourceExhaustedError : public std::runtime_error
{
  public:
    explicit ResourceExhaustedError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * 1-based attempt number of the supervised shard invocation running on
 * the calling thread (1 outside a supervised shard). Deterministic
 * across isolation modes: the supervisor sets it before invoking the
 * shard, and fork() clones the calling thread, so a shard child
 * observes the same value. The host-fault injector keys its transient
 * faults on it.
 */
unsigned currentShardAttempt();

/**
 * How every attempt of a shard is supervised. A fleet coordinator
 * ships it to its workers in the Welcome frame (fleet/protocol.hh), so
 * one struct is shared by SupervisorConfig, the coordinator's config
 * and the wire message.
 */
struct ShardPolicy
{
    /** Run each attempt in a forked child. */
    bool forkIsolation = false;

    /** Per-shard wall-clock deadline in seconds; <= 0 disables. */
    double shardTimeoutSeconds = 0.0;

    /** Per-shard simulation event budget; 0 disables. Applied through
     *  ShardSpec::gpuPreset (shards without provenance are unaffected). */
    std::uint64_t shardEventBudget = 0;

    /** Retries after a transient (ResourceExhausted) failure. */
    unsigned maxRetries = 2;

    /** Backoff before retry N is retryBackoffMs << (N - 1). */
    unsigned retryBackoffMs = 10;
};

/** Supervision policy on top of a CampaignConfig. */
struct SupervisorConfig : ShardPolicy
{
    CampaignConfig campaign;

    /** Append-only JSONL journal path; empty disables checkpointing. */
    std::string journalPath;

    /** Load journalPath first and skip completed shards. */
    bool resume = false;

    /** Directory for repro traces of failing shards; empty disables. */
    std::string reproDir;

    /** Install SIGINT/SIGTERM handlers for graceful shutdown (restored
     *  on return). Off by default: embedding processes own their
     *  signal dispositions unless they opt in. */
    bool handleSignals = false;
};

/**
 * Per-shard supervised execution engine: isolation (fork or in-process
 * barrier), the wall-clock deadline, the event budget, bounded
 * transient retry, and repro capture into @p repro_dir — everything the
 * supervisor does to *one* shard. It owns no thread: each attempt's
 * deadline is enforced by the thread that called run(). The campaign
 * loop drives one instance from its thread pool; a fleet worker
 * (src/fleet) drives one per process, and the fleet coordinator one
 * for the leases it runs itself, so each shard gets the same fault
 * containment wherever it runs.
 *
 * Thread-safe: run() may be called concurrently from many threads.
 * Campaign-level policy (journal, resume, signals, merge, early stop)
 * stays with the caller; setStopCheck lets the caller's early-stop
 * state suppress retries that no longer matter.
 */
class ShardRunner
{
  public:
    explicit ShardRunner(const ShardPolicy &policy,
                         std::string repro_dir = {});

    /**
     * Install a predicate consulted before each transient retry; when
     * it returns true the current attempt's outcome becomes final.
     * Not thread-safe against concurrent run() — install it first.
     */
    void setStopCheck(std::function<bool()> stop_check);

    /**
     * Run @p spec (campaign position @p index) to a final outcome:
     * attempts + transient retries + repro capture on failure.
     */
    ShardOutcome run(ShardSpec spec, std::size_t index);

  private:
    const ShardPolicy _policy;
    const std::string _reproDir;
    std::function<bool()> _stopCheck;
};

/**
 * RAII SIGINT/SIGTERM capture for a graceful shutdown: while the guard
 * lives, a termination signal only sets a flag the campaign loop polls;
 * the previous handlers come back on destruction. A disabled guard
 * installs nothing and never reports a signal.
 */
class SignalGuard
{
  public:
    explicit SignalGuard(bool enable);
    ~SignalGuard();

    SignalGuard(const SignalGuard &) = delete;
    SignalGuard &operator=(const SignalGuard &) = delete;

    /** True once SIGINT or SIGTERM arrived while the guard was armed. */
    bool caught() const;

  private:
    bool _enabled;
    void (*_oldInt)(int) = nullptr;
    void (*_oldTerm)(int) = nullptr;
};

} // namespace drf

#endif // DRF_CAMPAIGN_SUPERVISOR_HH
