#include "campaign/posix_io.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <csignal>
#include <mutex>

#include <poll.h>
#include <unistd.h>

namespace drf::io
{

bool
writeAll(int fd, const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    std::size_t off = 0;
    while (off < len) {
        ssize_t n = ::write(fd, p + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeAll(int fd, const std::string &data)
{
    return writeAll(fd, data.data(), data.size());
}

bool
readExact(int fd, void *buf, std::size_t len)
{
    char *p = static_cast<char *>(buf);
    std::size_t off = 0;
    while (off < len) {
        ssize_t n = ::read(fd, p + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-object
        off += static_cast<std::size_t>(n);
    }
    return true;
}

std::string
readToEof(int fd, std::chrono::steady_clock::time_point deadline,
          bool *timed_out)
{
    using Clock = std::chrono::steady_clock;
    *timed_out = false;
    std::string data;
    char buf[4096];
    for (;;) {
        int wait_ms = -1;
        if (deadline != Clock::time_point::max()) {
            auto left = std::chrono::ceil<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
            if (left <= 0) {
                *timed_out = true;
                break;
            }
            wait_ms = static_cast<int>(
                std::min<decltype(left)>(left, INT_MAX));
        }
        pollfd pfd{fd, POLLIN, 0};
        int ready = ::poll(&pfd, 1, wait_ms);
        if (ready < 0 && errno != EINTR)
            break;
        if (ready <= 0)
            continue; // EINTR or the deadline: re-check the clock
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        data.append(buf, static_cast<std::size_t>(n));
    }
    return data;
}

void
ignoreSigpipe()
{
    static std::once_flag once;
    std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

} // namespace drf::io
