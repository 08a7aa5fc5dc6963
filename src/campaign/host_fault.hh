/**
 * @file
 * Host-fault injector: deterministic crash/hang/transient faults for
 * supervised campaign shards.
 *
 * proto/fault.hh validates the *tester* by corrupting simulated
 * protocol traffic; this header validates the *supervisor* by breaking
 * the host-side shard itself. A designated shard index can be armed to:
 *
 *  - Crash: raise(SIGSEGV) mid-shard — exercises fork isolation and
 *    HostCrash triage (and, in-process, the sanitizer/abort path);
 *  - Hang: spin in a sleep loop forever — exercises the per-attempt
 *    wall-clock deadline (the abandoned in-process thread, or the
 *    forked child SIGKILLed once its pipe drain times out) and
 *    HostTimeout triage;
 *  - Transient: throw ResourceExhaustedError until the configured
 *    attempt number is reached — exercises bounded retry. Keyed on
 *    currentShardAttempt(), which is a pure per-thread value that
 *    survives fork(), so the behavior is identical across isolation
 *    modes and needs no shared state between attempts.
 *
 * Faults trigger deterministically (by shard index, not probability) so
 * tests and the CI resilience drill can assert exact triage counts.
 */

#ifndef DRF_CAMPAIGN_HOST_FAULT_HH
#define DRF_CAMPAIGN_HOST_FAULT_HH

#include <chrono>
#include <csignal>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/supervisor.hh"

namespace drf
{

enum class HostFaultKind
{
    None,      ///< shard runs normally
    Crash,     ///< raise(SIGSEGV) before the shard body
    Hang,      ///< sleep forever; only a reaper ends it
    Transient, ///< throw ResourceExhaustedError on early attempts
};

inline const char *
hostFaultKindName(HostFaultKind kind)
{
    switch (kind) {
      case HostFaultKind::None: return "none";
      case HostFaultKind::Crash: return "crash";
      case HostFaultKind::Hang: return "hang";
      case HostFaultKind::Transient: return "transient";
    }
    return "invalid";
}

inline std::optional<HostFaultKind>
parseHostFaultKind(const std::string &name)
{
    for (int i = 0; i <= static_cast<int>(HostFaultKind::Transient);
         ++i) {
        HostFaultKind kind = static_cast<HostFaultKind>(i);
        if (name == hostFaultKindName(kind))
            return kind;
    }
    return std::nullopt;
}

/** Per-shard host-fault rule. */
struct HostFaultRule
{
    HostFaultKind kind = HostFaultKind::None;

    /** Transient only: attempts 1..failAttempts throw; the next attempt
     *  runs the shard normally. */
    unsigned failAttempts = 1;
};

/**
 * Arms host faults on shard indices and wraps ShardSpec runners so the
 * fault fires inside the supervised attempt (in the forked child when
 * fork isolation is on).
 */
class HostFaultInjector
{
  public:
    /** Arm @p kind on shard @p index. */
    void
    arm(std::size_t index, HostFaultKind kind, unsigned fail_attempts = 1)
    {
        _rules[index] = HostFaultRule{kind, fail_attempts};
    }

    /** Execute the armed fault action for @p rule (shard-side). */
    static void
    act(const HostFaultRule &rule)
    {
        switch (rule.kind) {
          case HostFaultKind::None:
            return;
          case HostFaultKind::Crash:
            std::raise(SIGSEGV);
            return;
          case HostFaultKind::Hang:
            for (;;)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
          case HostFaultKind::Transient:
            if (currentShardAttempt() <= rule.failAttempts) {
                throw ResourceExhaustedError(
                    "injected transient host fault (attempt " +
                    std::to_string(currentShardAttempt()) + " of " +
                    std::to_string(rule.failAttempts) +
                    " designated to fail)");
            }
            return;
        }
    }

    /**
     * Wrap the runners of every armed shard in @p shards. Unarmed
     * shards are untouched; armed shards keep their name/seed/preset
     * (so triage, journaling, and repro capture still identify them).
     */
    void
    armShards(std::vector<ShardSpec> &shards) const
    {
        for (const auto &entry : _rules) {
            if (entry.first >= shards.size())
                continue;
            if (entry.second.kind == HostFaultKind::None)
                continue;
            ShardSpec &spec = shards[entry.first];
            HostFaultRule rule = entry.second;
            auto inner = std::move(spec.run);
            spec.run = [rule, inner = std::move(inner)]() {
                HostFaultInjector::act(rule);
                return inner();
            };
        }
    }

  private:
    std::map<std::size_t, HostFaultRule> _rules;
};

} // namespace drf

#endif // DRF_CAMPAIGN_HOST_FAULT_HH
