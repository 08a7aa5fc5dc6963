/**
 * @file
 * gem5-DPRINTF-style debug tracing with named flags.
 *
 * Components log through DLOG(queue, "FlagName", "message " << value).
 * Flags are enabled per-process via Logger::enable("FlagName") or the
 * DRF_DEBUG_FLAGS environment variable (comma separated). Logging compiles
 * to a cheap flag check when disabled.
 *
 * The tester also uses the logger's ring buffer to reconstruct the recent
 * transaction history around a detected failure (Section III.D of the
 * paper): the last N formatted records are always retained, even when no
 * flag is enabled, and dumped on demand.
 */

#ifndef DRF_SIM_LOGGER_HH
#define DRF_SIM_LOGGER_HH

#include <atomic>
#include <deque>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/types.hh"

namespace drf
{

/**
 * Process-wide trace sink. Singleton by design: trace flags mirror gem5's
 * global --debug-flags behaviour.
 *
 * All methods are thread-safe: campaign shards (see src/campaign/) run
 * one simulation per thread but share this sink, so flag lookups and the
 * retained-history ring are guarded by an internal mutex. enabled()
 * skips that mutex while no flag is enabled at all (the common case on
 * every campaign thread), through an atomic kept in step with the flag
 * set by enable/disable/disableAll.
 */
class Logger
{
  public:
    /** Access the process-wide instance. */
    static Logger &get();

    /** Enable a trace flag ("all" enables everything). */
    void enable(const std::string &flag);

    /** Disable a previously enabled flag. */
    void disable(const std::string &flag);

    /** Disable all flags. */
    void disableAll();

    /**
     * True if messages for @p flag should be printed to stdout.
     * Lock-free (and false) while no flag is enabled.
     */
    bool enabled(const std::string &flag) const;

    /**
     * Record (and maybe print) one message.
     *
     * @param tick Simulated time of the record.
     * @param flag Trace flag category.
     * @param who  Component name.
     * @param msg  Preformatted message body.
     */
    void record(Tick tick, const std::string &flag, const std::string &who,
                const std::string &msg);

    /** Retained recent records, oldest first. */
    std::vector<std::string> history() const;

    /** Dump retained history to stderr (used on failure). */
    void dumpHistory() const;

    /** Resize the retained-history ring buffer (0 disables retention). */
    void setHistoryDepth(std::size_t depth);

    /** Drop retained history (e.g., between test cases). */
    void clearHistory();

  private:
    Logger();

    /** Re-derive _anyEnabled after a flag change; _mutex held. */
    void syncAnyEnabledLocked();

    mutable std::mutex _mutex;
    std::unordered_set<std::string> _flags;
    bool _allEnabled = false;
    /** _allEnabled || !_flags.empty(), readable without _mutex. */
    std::atomic<bool> _anyEnabled{false};
    std::deque<std::string> _history;
    std::size_t _historyDepth = 256;
};

} // namespace drf

/**
 * Log one message on behalf of a component.
 *
 * @param eq   EventQueue (for the timestamp).
 * @param flag Trace flag name (string literal).
 * @param who  Component name (std::string).
 * @param expr Ostream expression, e.g. "addr=" << addr.
 */
#define DLOG(eq, flag, who, expr)                                          \
    do {                                                                   \
        std::ostringstream dlog_ss__;                                      \
        dlog_ss__ << expr;                                                 \
        ::drf::Logger::get().record((eq).curTick(), flag, who,             \
                                    dlog_ss__.str());                      \
    } while (0)

#endif // DRF_SIM_LOGGER_HH
