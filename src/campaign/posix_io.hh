/**
 * @file
 * Robust POSIX fd I/O: the one place short writes, EINTR, and EPIPE are
 * handled.
 *
 * Three consumers write to fds that can fail mid-transfer — the journal
 * (a file that may hit a full disk), the supervisor's fork pipe (whose
 * reader can die first), and the fleet's TCP transport (whose peer can
 * be SIGKILLed at any byte). All of them must treat a short write as
 * "keep going", EINTR as "retry", and EPIPE/ECONNRESET as "the peer is
 * gone, report it, don't die". Centralizing that here keeps the three
 * call sites from each growing a subtly different retry loop.
 *
 * The supervisor reads its fork pipe with readToEof, a drain bounded by
 * the shard's wall-clock deadline: that is where the parent notices a
 * hung child, which it then SIGKILLs.
 *
 * Writes to a closed pipe/socket normally raise SIGPIPE, whose default
 * action terminates the process before write() even returns EPIPE;
 * every fleet/pipe entry point calls ignoreSigpipe() first so the error
 * comes back through the return value instead.
 */

#ifndef DRF_CAMPAIGN_POSIX_IO_HH
#define DRF_CAMPAIGN_POSIX_IO_HH

#include <chrono>
#include <cstddef>
#include <string>

namespace drf::io
{

/**
 * Write all @p len bytes to @p fd, retrying short writes and EINTR.
 * Returns false on any hard error (EPIPE included); errno is preserved
 * for the caller's diagnostics.
 */
bool writeAll(int fd, const void *data, std::size_t len);

/** writeAll over a string. */
bool writeAll(int fd, const std::string &data);

/**
 * Read exactly @p len bytes into @p buf, retrying EINTR and short
 * reads. Returns false on error or EOF before @p len bytes arrived.
 */
bool readExact(int fd, void *buf, std::size_t len);

/**
 * Read until EOF or @p deadline, whichever comes first (the fork-pipe
 * drain). time_point::max() means no deadline. Sets @p timed_out when
 * the deadline ended the read; errors end it early without setting it.
 */
std::string readToEof(int fd, std::chrono::steady_clock::time_point deadline,
                      bool *timed_out);

/**
 * Process-wide, idempotent SIGPIPE -> SIG_IGN. Call before writing to
 * any fd whose reader can vanish (sockets, pipes).
 */
void ignoreSigpipe();

} // namespace drf::io

#endif // DRF_CAMPAIGN_POSIX_IO_HH
