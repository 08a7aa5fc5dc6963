#include "fleet/worker.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "campaign/journal.hh"
#include "campaign/posix_io.hh"
#include "campaign/supervisor.hh"
#include "chaos/wire_chaos.hh"
#include "fleet/protocol.hh"
#include "fleet/wire.hh"

namespace drf::fleet
{

namespace
{

/** Backoff before reconnect attempt N is N * this. */
constexpr std::uint64_t kReconnectBackoffMs = 100;

int
connectTo(const std::string &host, unsigned short port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/**
 * Send one frame through the wire-chaos plan (no-op plan when
 * @p wc is null). Caller holds the per-fd send mutex. Returns false
 * when the stream must be considered dead: a real send failure, or an
 * injected truncation (the receiver is now mid-frame and can only
 * resynchronize by reconnecting).
 */
bool
chaosSend(int fd, chaos::WireChaos *wc, MsgType type,
          const std::string &payload)
{
    if (!wc)
        return sendFrame(fd, type, payload);
    std::string frame = encodeFrame(type, payload);
    chaos::FramePlan plan =
        wc->planFrame(frame.size(), kFrameMutableOffset);
    if (plan.drop)
        return true; // discarded in flight; sender can't tell
    if (plan.delayMs > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(plan.delayMs));
    if (plan.flipOffset >= 0 &&
        static_cast<std::size_t>(plan.flipOffset) < frame.size())
        frame[static_cast<std::size_t>(plan.flipOffset)] ^=
            static_cast<char>(plan.flipMask);
    if (plan.truncateTo < frame.size()) {
        frame.resize(plan.truncateTo);
        sendRawFrame(fd, frame);
        return false; // poisoned the stream mid-frame
    }
    for (unsigned i = 0; i < plan.copies; ++i) {
        if (!sendRawFrame(fd, frame))
            return false;
    }
    return true;
}

/**
 * Simulate a worker that computes the wrong answer: bump the events
 * counter in the serialized record. Any single-character change that
 * keeps the line parseable works — the point is a well-formed record
 * whose *content* diverges from the deterministic truth.
 */
void
perturbLine(std::string &line)
{
    std::size_t pos = line.find("\"events\":");
    if (pos == std::string::npos || pos + 9 >= line.size())
        return;
    char &digit = line[pos + 9];
    if (digit >= '0' && digit <= '8')
        ++digit;
    else if (digit == '9')
        digit = '8';
}

/** Stamp the end-to-end digest prefix onto a result line. */
std::string
stampDigest(const std::string &digest_over, const std::string &line)
{
    char head[20];
    std::snprintf(head, sizeof(head), "%016llx ",
                  static_cast<unsigned long long>(
                      chaos::fnv1a64(digest_over)));
    return head + line;
}

enum class SessionEnd
{
    CleanShutdown, ///< coordinator sent Shutdown: campaign over
    Lost,          ///< EOF / send failure / poisoned stream
    VersionReject, ///< handshake parsed but versions disagree
};

/** One connected session: handshake through Shutdown/loss. */
SessionEnd
runSession(int fd, const WorkerConfig &cfg, chaos::WireChaos *wc,
           std::uint64_t &completed)
{
    HelloMsg hello;
    hello.worker = cfg.name.empty()
                       ? "local:" + std::to_string(::getpid())
                       : cfg.name;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    Frame welcome_frame;
    WelcomeMsg welcome;
    // The handshake itself is never chaos-wrapped: fault injection
    // models a flaky network *during* a campaign, and a drill that
    // could lose its own enrollment would just measure connect retry.
    if (!sendFrame(fd, MsgType::Hello, serializeHello(hello)) ||
        !recvFrame(fd, welcome_frame) ||
        welcome_frame.type != MsgType::Welcome ||
        !parseWelcome(welcome_frame.payload, welcome))
        return SessionEnd::Lost;
    if (welcome.protocolVersion != kProtocolVersion)
        return SessionEnd::VersionReject;

    ShardRunner runner(welcome);

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<ShardLease> queue; // depth enforced coordinator-side
    bool running = false;         // a lease taken, its Result not sent
    std::uint64_t leases_taken = 0;
    std::atomic<bool> done{false};
    std::atomic<bool> got_shutdown{false};
    std::mutex send_mutex; // Result and Heartbeat frames interleave

    runner.setStopCheck(
        [&done] { return done.load(std::memory_order_acquire); });
    // Set under the lock so no waiter on cv misses the wake-up.
    auto end_session = [&] {
        {
            std::lock_guard<std::mutex> lock(mutex);
            done.store(true, std::memory_order_release);
        }
        cv.notify_all();
    };

    std::thread reader([&] {
        for (;;) {
            Frame frame;
            if (!recvFrame(fd, frame))
                break;
            if (frame.type == MsgType::Shutdown) {
                got_shutdown.store(true, std::memory_order_release);
                break;
            }
            if (frame.type != MsgType::Lease)
                continue;
            ShardLease lease;
            if (!parseLease(frame.payload, lease)) {
                // Never counted as taken, so the idle rule cannot
                // recover it; the straggler rule copies it elsewhere.
                std::fprintf(stderr,
                              "fleet worker: unparseable lease\n");
                continue;
            }
            {
                std::lock_guard<std::mutex> lock(mutex);
                queue.push_back(std::move(lease));
            }
            cv.notify_all();
        }
        end_session();
    });

    std::thread heartbeat([&] {
        unsigned period = welcome.heartbeatMs == 0
                              ? 500u
                              : welcome.heartbeatMs;
        for (;;) {
            HeartbeatMsg hb;
            {
                // Woken by the session's end, so it joins at once.
                std::unique_lock<std::mutex> lock(mutex);
                if (cv.wait_for(lock, std::chrono::milliseconds(period),
                                [&] {
                                    return done.load(
                                        std::memory_order_acquire);
                                }))
                    break;
                hb.idle = queue.empty() && !running;
                hb.leasesTaken = leases_taken;
            }
            std::lock_guard<std::mutex> send_lock(send_mutex);
            if (!chaosSend(fd, wc, MsgType::Heartbeat,
                           serializeHeartbeat(hb)))
                break;
        }
    });

    for (;;) {
        ShardLease lease;
        {
            // The previous lease's Result went out before this lock is
            // taken, so a heartbeat that sees !running sends after it.
            std::unique_lock<std::mutex> lock(mutex);
            running = false;
            cv.wait(lock, [&] {
                return !queue.empty() ||
                       done.load(std::memory_order_acquire);
            });
            if (queue.empty())
                break; // done and drained
            lease = std::move(queue.front());
            queue.pop_front();
            running = true;
            ++leases_taken;
        }
        ShardSpec spec = leaseToSpec(lease);
        ShardOutcome out;
        if (spec.name == lease.name) {
            out = runner.run(std::move(spec), lease.index);
        } else {
            // The two ends disagree about genomeToPreset. Running the
            // wrong configuration would poison the campaign, and
            // dropping the lease would have it handed back here
            // forever: fail the shard loudly instead.
            out.name = lease.name;
            out.seed = lease.seed;
            out.index = lease.index;
            out.result.passed = false;
            out.result.failureClass = FailureClass::HostCrash;
            out.result.report = "lease name mismatch: coordinator '" +
                                lease.name + "', worker '" + spec.name +
                                "'";
        }
        std::string line = shardOutcomeToJson(out);
        std::string wire_line = line;
        if (cfg.corruptEveryN != 0 &&
            lease.index % cfg.corruptEveryN == 0)
            perturbLine(wire_line);
        // Loud corruption digests the true line (the mismatch is the
        // detection signal); silent corruption digests the lie and can
        // only be caught by cross-worker quorum.
        const std::string &digest_over =
            cfg.corruptSilently ? wire_line : line;
        std::string payload = stampDigest(digest_over, wire_line);
        if (cfg.dieOnResult != 0 && completed + 1 >= cfg.dieOnResult) {
            // Crash injection: die holding the result, never send it.
            ::raise(SIGKILL);
        }
        {
            std::lock_guard<std::mutex> send_lock(send_mutex);
            if (!chaosSend(fd, wc, MsgType::Result, payload)) {
                end_session();
                break;
            }
        }
        ++completed;
    }

    end_session();
    ::shutdown(fd, SHUT_RDWR);
    if (reader.joinable())
        reader.join();
    if (heartbeat.joinable())
        heartbeat.join();
    return got_shutdown.load(std::memory_order_acquire)
               ? SessionEnd::CleanShutdown
               : SessionEnd::Lost;
}

} // namespace

int
runWorker(const WorkerConfig &cfg)
{
    io::ignoreSigpipe();

    std::unique_ptr<chaos::WireChaos> wire_chaos;
    if (cfg.wireChaos.any())
        wire_chaos = std::make_unique<chaos::WireChaos>(cfg.chaosSeed,
                                                        cfg.wireChaos);

    std::uint64_t completed = 0; // results sent, across sessions
    bool ever_connected = false;
    unsigned attempts = 0;
    for (;;) {
        int fd = connectTo(cfg.host, cfg.port);
        if (fd >= 0) {
            SessionEnd end =
                runSession(fd, cfg, wire_chaos.get(), completed);
            ::close(fd);
            if (end == SessionEnd::CleanShutdown)
                return 0;
            if (end == SessionEnd::VersionReject) {
                std::fprintf(stderr,
                              "fleet worker: protocol version "
                              "mismatch, refusing to serve\n");
                return 2;
            }
            ever_connected = true;
        } else if (!ever_connected) {
            std::fprintf(stderr,
                          "fleet worker: cannot connect to %s:%u\n",
                          cfg.host.c_str(), unsigned(cfg.port));
            return 2;
        }
        // Lost session (or lost coordinator): linear-backoff rejoin.
        // The coordinator treats a reconnect as a brand-new worker and
        // re-leases whatever this process was holding.
        ++attempts;
        if (attempts > cfg.maxReconnects) {
            std::fprintf(stderr,
                          "fleet worker: gave up after %u reconnect "
                          "attempts\n",
                          cfg.maxReconnects);
            return 3;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kReconnectBackoffMs * attempts));
    }
}

} // namespace drf::fleet
