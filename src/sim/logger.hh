/**
 * @file
 * gem5-DPRINTF-style debug tracing with named flags.
 *
 * Components log through DLOG(queue, "FlagName", "message " << value).
 * Flags are enabled per-process via Logger::enable("FlagName") or the
 * DRF_DEBUG_FLAGS environment variable (comma separated). Logging compiles
 * to a cheap flag check when disabled: nothing is formatted or retained
 * unless the flag is enabled.
 *
 * The logger keeps no history. A failure report's recent transactions
 * (Section III.D of the paper) come from the tester's own ring of
 * completed operations (GpuTester::recentHistory), and the trace
 * recorder (src/trace/) captures whole runs for replay.
 */

#ifndef DRF_SIM_LOGGER_HH
#define DRF_SIM_LOGGER_HH

#include <atomic>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_set>

#include "sim/types.hh"

namespace drf
{

/**
 * Process-wide trace sink. Singleton by design: trace flags mirror gem5's
 * global --debug-flags behaviour.
 *
 * All methods are thread-safe: campaign shards (see src/campaign/) run
 * one simulation per thread but share this sink, so flag lookups are
 * guarded by an internal mutex. enabled()
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
     * Print one message if @p flag is enabled; return at once (before
     * formatting anything) if it is not.
     *
     * @param tick Simulated time of the record.
     * @param flag Trace flag category.
     * @param who  Component name.
     * @param msg  Preformatted message body.
     */
    void record(Tick tick, const std::string &flag, const std::string &who,
                const std::string &msg);

  private:
    Logger();

    /** Re-derive _anyEnabled after a flag change; _mutex held. */
    void syncAnyEnabledLocked();

    mutable std::mutex _mutex;
    std::unordered_set<std::string> _flags;
    bool _allEnabled = false;
    /** _allEnabled || !_flags.empty(), readable without _mutex. */
    std::atomic<bool> _anyEnabled{false};
};

} // namespace drf

/**
 * Log one message on behalf of a component; @p expr is formatted only
 * if @p flag is enabled.
 *
 * @param eq   EventQueue (for the timestamp).
 * @param flag Trace flag name (string literal).
 * @param who  Component name (std::string).
 * @param expr Ostream expression, e.g. "addr=" << addr.
 */
#define DLOG(eq, flag, who, expr)                                          \
    do {                                                                   \
        if (::drf::Logger::get().enabled(flag)) {                          \
            std::ostringstream dlog_ss__;                                  \
            dlog_ss__ << expr;                                             \
            ::drf::Logger::get().record((eq).curTick(), flag, who,         \
                                        dlog_ss__.str());                  \
        }                                                                  \
    } while (0)

#endif // DRF_SIM_LOGGER_HH
