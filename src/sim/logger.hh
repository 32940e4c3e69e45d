/**
 * @file
 * gem5-DPRINTF-style debug tracing with named flags.
 *
 * Components log through DLOG(queue, "FlagName", "message " << value).
 * Flags are enabled per-process via Logger::enable("FlagName") or the
 * DRF_DEBUG_FLAGS environment variable (comma separated). A record whose
 * flag is disabled is dropped. Callers guard expensive messages with
 * enabled(), so tracing costs a flag check when it is off.
 *
 * The logger keeps no history. The Table V failure report (Section III.D
 * of the paper) is built by the tester from RefMemory's last-reader and
 * last-writer records and its own recent-transaction ring.
 */

#ifndef DRF_SIM_LOGGER_HH
#define DRF_SIM_LOGGER_HH

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
 * one simulation per thread but share this sink, so flag lookups and
 * printing are guarded by an internal mutex.
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

    /** True if messages for @p flag should be printed to stdout. */
    bool enabled(const std::string &flag) const;

    /**
     * Print one message to stdout if @p flag is enabled.
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

    mutable std::mutex _mutex;
    std::unordered_set<std::string> _flags;
    bool _allEnabled = false;
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
