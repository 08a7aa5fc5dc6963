#include "fleet/coordinator.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define DRF_FLEET_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define DRF_FLEET_HAVE_SOCKETS 0
#endif

#include "campaign/campaign_json.hh"
#include "campaign/journal.hh"
#include "campaign/posix_io.hh"
#include "chaos/chaos.hh"
#include "fleet/protocol.hh"
#include "fleet/wire.hh"

namespace drf::fleet
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Comparison key for cross-worker result equality: the record with its
 * host-side nondeterminism (wall time, transient-retry count) zeroed.
 * Two honest workers running the same shard produce byte-identical
 * keys even though their verbatim lines differ in host_seconds — only
 * a worker that computed (or reported) a different *outcome* diverges.
 */
std::string
canonicalResultKey(const ShardOutcome &src)
{
    ShardOutcome c = src;
    c.attempts = 1;
    c.result.hostSeconds = 0.0;
    return shardOutcomeToJson(c);
}

enum class DigestCheck
{
    Bare, ///< no digest prefix (legacy / local path)
    Ok,   ///< prefix present, matches the line
    Bad,  ///< prefix present, line digests differently
};

/**
 * Split a Result payload into its record line, verifying the end-to-end
 * digest when present ("%016llx <line>"). Bare lines are accepted: the
 * local execution path and pre-digest peers produce them, and the frame
 * CRC already covers transport damage — the digest's job is catching a
 * worker whose *computation* went wrong.
 */
DigestCheck
splitResultPayload(const std::string &payload, std::string &line)
{
    if (payload.size() > 17 && payload[16] == ' ') {
        std::uint64_t want = 0;
        bool hex = true;
        for (int i = 0; i < 16; ++i) {
            char c = payload[static_cast<std::size_t>(i)];
            if (c >= '0' && c <= '9')
                want = (want << 4) | static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                want = (want << 4) |
                       (static_cast<unsigned>(c - 'a') + 10);
            else {
                hex = false;
                break;
            }
        }
        if (hex) {
            line = payload.substr(17);
            return chaos::fnv1a64(line) == want ? DigestCheck::Ok
                                                : DigestCheck::Bad;
        }
    }
    line = payload;
    return DigestCheck::Bare;
}

} // namespace

/**
 * The fleet executor: leases the loop's shards to worker processes,
 * and runs them here when no worker can. It posts an index once its
 * answer is trusted; every later answer for it is a duplicate.
 */
struct FleetCoordinator::Impl final : ShardExecutor
{
    ShardSource &source;
    const CoordinatorConfig cfg;

    int listenFd = -1;
    unsigned short portBound = 0;
    std::atomic<bool> shutdown{false};
    std::thread acceptThread;

    /** One connected worker process. */
    struct Worker
    {
        int fd = -1;
        std::string name;
        bool alive = false;
        Clock::time_point lastSeen{};
        std::deque<std::size_t> held; ///< lease indices held
        std::uint64_t completed = 0;
        std::thread reader;
    };

    struct OutstandingLease
    {
        ShardLease lease;
        Clock::time_point issuedAt{};
        unsigned holders = 0;
    };

    /** A first answer held back until its quorum cross-check lands. */
    struct Unverified
    {
        ShardOutcome out;
        std::string key; ///< canonicalResultKey
        /** The lease this answer retired, kept so a divergence can
         *  re-run the shard authoritatively. */
        ShardLease lease;
        bool hasLease = false;
    };

    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::shared_ptr<Worker>> workers;
    std::deque<ShardLease> pending; ///< unleased, index order
    std::map<std::size_t, OutstandingLease> outstanding;
    /** Submitted indices not yet posted; an answer for any other index
     *  is a duplicate or a straggler. */
    std::set<std::size_t> open;
    /** Trusted outcomes not yet taken by wait(). */
    std::vector<Post> posts;
    /** First answers of sampled indices awaiting their cross-check. */
    std::map<std::size_t, Unverified> unverified;
    /** Indices caught diverging: socket results are quarantined until
     *  the local authoritative re-run lands. */
    std::set<std::size_t> poisoned;
    /** Unposted indices already duplicated for quorum. */
    std::set<std::size_t> quorumIssued;
    /** One in-flight cross-check: when it was issued and to whom. */
    struct PendingCheck
    {
        Clock::time_point issuedAt;
        const Worker *verifier = nullptr;
    };
    /** Sampled indices whose second answer hasn't arrived: their first
     *  answer is not posted while these are pending (else a lying
     *  primary result could be merged before its cross-check lands and
     *  the straggler verdict would be discarded). A check is abandoned
     *  when its verifier dies or a generous deadline passes — never on
     *  the lease timeout, which is transport-scale while the verifier
     *  is legitimately busy draining its own queue first. */
    std::map<std::size_t, PendingCheck> quorumPending;
    /** Diverged leases awaiting their authoritative local re-run. */
    std::deque<ShardLease> repairQueue;
    /** Shards no lease can describe, run here (driving thread only). */
    std::deque<std::pair<ShardSpec, std::size_t>> localOnly;

    std::unique_ptr<ShardRunner> localRunner;

    FleetResult stats;

    Impl(ShardSource &src, const CoordinatorConfig &c)
        : source(src), cfg(c)
    {
        io::ignoreSigpipe();
    }

    // ---- socket plumbing --------------------------------------------

    bool
    bindAndListen()
    {
#if DRF_FLEET_HAVE_SOCKETS
        listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd < 0)
            return false;
        int one = 1;
        ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(cfg.port);
        if (::inet_pton(AF_INET, cfg.bindAddress.c_str(),
                        &addr.sin_addr) != 1)
            return false;
        if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listenFd, 16) != 0) {
            ::close(listenFd);
            listenFd = -1;
            return false;
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(listenFd,
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0)
            portBound = ntohs(bound.sin_port);
        return true;
#else
        return false;
#endif
    }

    void
    acceptLoop()
    {
#if DRF_FLEET_HAVE_SOCKETS
        while (!shutdown.load(std::memory_order_acquire)) {
            int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0) {
                if (errno == EINTR)
                    continue;
                break; // listen fd shut down
            }
            Frame hello;
            HelloMsg hm;
            if (!recvFrame(fd, hello) ||
                hello.type != MsgType::Hello ||
                !parseHello(hello.payload, hm) ||
                hm.protocolVersion != kProtocolVersion) {
                ::close(fd);
                continue;
            }
            WelcomeMsg wm;
            static_cast<ShardPolicy &>(wm) = cfg;
            wm.queueDepth = cfg.queueDepth;
            wm.heartbeatMs = cfg.heartbeatMs;
            if (!sendFrame(fd, MsgType::Welcome,
                           serializeWelcome(wm))) {
                ::close(fd);
                continue;
            }

            auto worker = std::make_shared<Worker>();
            worker->fd = fd;
            worker->name = hm.worker;
            worker->alive = true;
            worker->lastSeen = Clock::now();
            {
                std::lock_guard<std::mutex> lock(mutex);
                workers.push_back(worker);
                ++stats.workersSeen;
                topUpLocked(*worker);
                enforceQuorumLocked();
            }
            worker->reader =
                std::thread([this, worker] { readerLoop(worker); });
            cv.notify_all();
        }
#endif
    }

    void
    readerLoop(const std::shared_ptr<Worker> &worker)
    {
        for (;;) {
            Frame frame;
            WireStatus status = recvFrameEx(worker->fd, frame);
            if (status == WireStatus::Eof)
                break;
            if (status != WireStatus::Ok) {
                // Checksum failure or insane length: the byte stream
                // can no longer be framed. Structured recovery, not
                // absorption: count it, kill the connection, and let
                // the dead-worker path re-lease everything this worker
                // held. The worker reconnects as a fresh peer.
                std::lock_guard<std::mutex> lock(mutex);
                ++stats.frameCorruptions;
                markDeadLocked(*worker);
                cv.notify_all();
                break;
            }
            bool poisoned_stream = false;
            {
                std::lock_guard<std::mutex> lock(mutex);
                worker->lastSeen = Clock::now();
                switch (frame.type) {
                  case MsgType::Result: {
                    std::string line;
                    if (splitResultPayload(frame.payload, line) ==
                        DigestCheck::Bad) {
                        // The frame survived the wire intact but the
                        // worker's own digest disagrees with its line:
                        // this peer's output cannot be trusted.
                        ++stats.digestMismatches;
                        markDeadLocked(*worker);
                        poisoned_stream = true;
                        break;
                    }
                    ++worker->completed;
                    handleResultLineLocked(line);
                    topUpLocked(*worker);
                    enforceQuorumLocked();
                    break;
                  }
                  case MsgType::Steal:
                    topUpLocked(*worker);
                    enforceQuorumLocked();
                    stealForLocked(*worker);
                    break;
                  case MsgType::Heartbeat:
                    break; // lastSeen already refreshed
                  default:
                    break; // unknown frames are ignored, not fatal
                }
                cv.notify_all();
            }
            if (poisoned_stream)
                break;
        }
        std::lock_guard<std::mutex> lock(mutex);
        markDeadLocked(*worker);
        cv.notify_all();
    }

    // ---- lease bookkeeping (mutex held) -----------------------------

    void
    sendLeaseLocked(Worker &worker, const ShardLease &lease)
    {
        auto [it, fresh] = outstanding.try_emplace(lease.index);
        if (fresh) {
            it->second.lease = lease;
            it->second.issuedAt = Clock::now();
        }
        ++it->second.holders;
        worker.held.push_back(lease.index);
        ++stats.leasesIssued;
        if (!sendFrame(worker.fd, MsgType::Lease,
                       serializeLease(lease)))
            markDeadLocked(worker);
    }

    /** Fill @p worker's queue from the pending list. */
    void
    topUpLocked(Worker &worker)
    {
        while (worker.alive && !pending.empty() &&
               worker.held.size() < cfg.queueDepth) {
            ShardLease lease = std::move(pending.front());
            pending.pop_front();
            sendLeaseLocked(worker, lease);
        }
    }

    /**
     * Work stealing, proactive half: an idle worker duplicates the
     * oldest lease still outstanding on exactly one other worker. The
     * first result for the index wins; the merge drops the loser.
     */
    void
    stealForLocked(Worker &worker)
    {
        if (!worker.alive || !worker.held.empty() || !pending.empty())
            return;
        Clock::time_point now = Clock::now();
        std::map<std::size_t, OutstandingLease>::iterator oldest =
            outstanding.end();
        for (auto it = outstanding.begin(); it != outstanding.end();
             ++it) {
            if (it->second.holders != 1 || settledLocked(it->first))
                continue;
            double age = std::chrono::duration<double>(
                             now - it->second.issuedAt)
                             .count();
            if (age < cfg.stealMinAgeSeconds)
                continue;
            if (oldest == outstanding.end() ||
                it->second.issuedAt < oldest->second.issuedAt)
                oldest = it;
        }
        if (oldest == outstanding.end())
            return;
        ++stats.releases;
        sendLeaseLocked(worker, oldest->second.lease);
    }

    /**
     * Work stealing, recovery half: a dead worker's outstanding leases
     * go back to the pending queue (front, preserving index order as
     * much as possible) for the next top-up.
     */
    void
    markDeadLocked(Worker &worker)
    {
        if (!worker.alive)
            return;
        worker.alive = false;
#if DRF_FLEET_HAVE_SOCKETS
        ::shutdown(worker.fd, SHUT_RDWR);
#endif
        std::vector<ShardLease> returned;
        for (std::size_t index : worker.held) {
            auto it = outstanding.find(index);
            if (it == outstanding.end() || settledLocked(index))
                continue;
            if (--it->second.holders == 0) {
                returned.push_back(it->second.lease);
                outstanding.erase(it);
                ++stats.releases;
            }
        }
        worker.held.clear();
        std::sort(returned.begin(), returned.end(),
                  [](const ShardLease &a, const ShardLease &b) {
                      return a.index < b.index;
                  });
        for (auto rit = returned.rbegin(); rit != returned.rend();
             ++rit)
            pending.push_front(std::move(*rit));
    }

    /** Reap workers silent past the heartbeat timeout. */
    void
    reapSilentLocked()
    {
        if (cfg.heartbeatTimeoutSeconds <= 0.0)
            return;
        Clock::time_point now = Clock::now();
        for (auto &worker : workers) {
            if (!worker->alive)
                continue;
            double silent = std::chrono::duration<double>(
                                now - worker->lastSeen)
                                .count();
            if (silent > cfg.heartbeatTimeoutSeconds)
                markDeadLocked(*worker);
        }
    }

    /** The least-loaded alive worker not holding @p index, or null. */
    Worker *
    leastLoadedWithoutLocked(std::size_t index)
    {
        Worker *target = nullptr;
        for (auto &worker : workers) {
            bool holds_it = std::find(worker->held.begin(),
                                      worker->held.end(),
                                      index) != worker->held.end();
            if (!worker->alive || holds_it)
                continue;
            if (!target || worker->held.size() < target->held.size())
                target = worker.get();
        }
        return target;
    }

    /** Duplicate leases outstanding longer than the lease timeout. */
    void
    releaseOverdueLocked()
    {
        if (cfg.leaseTimeoutSeconds <= 0.0)
            return;
        Clock::time_point now = Clock::now();
        for (auto &[index, ol] : outstanding) {
            if (ol.holders != 1 || settledLocked(index))
                continue;
            if (std::chrono::duration<double>(now - ol.issuedAt)
                    .count() < cfg.leaseTimeoutSeconds)
                continue;
            Worker *target = leastLoadedWithoutLocked(index);
            if (!target)
                continue;
            ol.issuedAt = now; // restart the clock, avoid a storm
            ++stats.releases;
            sendLeaseLocked(*target, ol.lease);
        }
    }

    void
    topUpAllLocked()
    {
        for (auto &worker : workers) {
            if (worker->alive)
                topUpLocked(*worker);
        }
    }

    /**
     * Opt-in result verification: duplicate every sampled outstanding
     * lease (index % verifyQuorum == 0) onto a second worker so two
     * independent processes answer the same shard. Runs under the same
     * mutex hold as every top-up, so a sampled result cannot arrive
     * before its duplicate is issued. Candidates are collected
     * before any lease is sent: sendLeaseLocked can mark a worker dead
     * and mutate `outstanding` mid-iteration.
     */
    void
    enforceQuorumLocked()
    {
        if (cfg.verifyQuorum == 0)
            return;
        std::vector<std::size_t> candidates;
        for (auto &[index, ol] : outstanding) {
            if (index % cfg.verifyQuorum != 0 || ol.holders != 1)
                continue;
            if (settledLocked(index) || poisoned.count(index) ||
                quorumIssued.count(index))
                continue;
            candidates.push_back(index);
        }
        for (std::size_t index : candidates) {
            auto it = outstanding.find(index);
            if (it == outstanding.end())
                continue;
            Worker *target = leastLoadedWithoutLocked(index);
            if (!target)
                continue; // single-worker fleet: nothing to compare
            ShardLease lease = it->second.lease;
            quorumIssued.insert(index);
            ++stats.quorumLeases;
            sendLeaseLocked(*target, lease);
            if (target->alive)
                quorumPending[index] =
                    PendingCheck{Clock::now(), target};
        }
    }

    /** Abandon cross-checks that can no longer resolve — the verifier
     *  died, or a deadline sized for whole shard queues (not frames)
     *  passed — and post the first answer unverified. Sampling is
     *  best-effort under churn, but every index must always post. */
    void
    expireQuorumLocked()
    {
        double bound =
            std::max({cfg.heartbeatTimeoutSeconds,
                      2.0 * cfg.leaseTimeoutSeconds, 5.0});
        for (auto it = quorumPending.begin();
             it != quorumPending.end();) {
            bool dead = it->second.verifier &&
                        !it->second.verifier->alive;
            if (!dead && secondsSince(it->second.issuedAt) <= bound) {
                ++it;
                continue;
            }
            auto first = unverified.find(it->first);
            if (first != unverified.end()) {
                postLocked(first->first, std::move(first->second.out));
                unverified.erase(first);
            }
            it = quorumPending.erase(it);
        }
    }

    std::size_t
    aliveLocked() const
    {
        std::size_t alive = 0;
        for (const auto &worker : workers)
            alive += worker->alive ? 1 : 0;
        return alive;
    }

    /** True once @p index has an answer (posted or being verified). */
    bool
    settledLocked(std::size_t index) const
    {
        return open.count(index) == 0 || unverified.count(index) != 0;
    }

    /** No worker can take leases: the coordinator runs them itself. */
    bool
    noFleetLocked() const
    {
        return cfg.expectedWorkers == 0 ||
               (cfg.localFallback && aliveLocked() == 0);
    }

    /** Shards only the driving thread can run right now. */
    bool
    localWorkLocked() const
    {
        return !localOnly.empty() || !repairQueue.empty() ||
               (noFleetLocked() && !pending.empty());
    }

    // ---- result intake ----------------------------------------------

    /** Hand @p index's outcome to the loop; later answers are
     *  duplicates. */
    void
    postLocked(std::size_t index, std::optional<ShardOutcome> out)
    {
        open.erase(index);
        quorumIssued.erase(index);
        posts.emplace_back(index, std::move(out));
    }

    /**
     * The one funnel every executed shard passes through — socket
     * Result frames and coordinator-local runs. The first answer
     * posts at once unless a quorum cross-check is pending for it;
     * then the second answer decides.
     */
    void
    handleResultLineLocked(const std::string &line)
    {
        ShardOutcome out;
        if (!parseShardOutcome(line, out))
            return; // torn frame; the lease stays re-leasable
        std::size_t index = out.index;

        // Retire the lease wherever it is held (keeping a copy: a
        // later divergence needs it to re-lease or re-run the shard).
        ShardLease lease;
        bool has_lease = false;
        auto it = outstanding.find(index);
        if (it != outstanding.end()) {
            lease = it->second.lease;
            has_lease = true;
            outstanding.erase(it);
            for (auto &worker : workers) {
                auto held = std::find(worker->held.begin(),
                                      worker->held.end(), index);
                if (held != worker->held.end())
                    worker->held.erase(held);
            }
        }

        if (poisoned.count(index) || open.count(index) == 0) {
            // A straggler: the index was posted already (or never
            // submitted), or caught diverging, and then only the local
            // authoritative re-run may settle it.
            quorumPending.erase(index);
            ++stats.duplicateResults;
            return;
        }

        auto first = unverified.find(index);
        if (first == unverified.end()) {
            if (quorumPending.count(index) == 0) {
                postLocked(index, std::move(out));
                return;
            }
            std::string key = canonicalResultKey(out);
            unverified.emplace(index,
                               Unverified{std::move(out), std::move(key),
                                          std::move(lease), has_lease});
            return;
        }

        // The cross-check: a second answer for a sampled index.
        quorumPending.erase(index);
        if (first->second.key == canonicalResultKey(out)) {
            ++stats.duplicateResults;
            postLocked(index, std::move(first->second.out));
            unverified.erase(first);
            return;
        }
        // Two workers returned byte-different records for the same
        // deterministic shard: one of them lied without tripping CRC or
        // digest. Neither copy can be trusted — quarantine the index
        // and queue the authoritative local tiebreak, which posts it.
        ++stats.quorumDivergences;
        stats.divergedIndices.push_back(index);
        if (!first->second.hasLease && !has_lease) {
            // Without a lease to re-run from (shouldn't happen for
            // leased shards) the first answer has to stand.
            postLocked(index, std::move(first->second.out));
        } else {
            poisoned.insert(index);
            repairQueue.push_back(first->second.hasLease
                                      ? std::move(first->second.lease)
                                      : std::move(lease));
        }
        unverified.erase(first);
    }

    // ---- the executor interface (driving thread) -------------------

    void
    submit(ShardSpec spec, std::size_t index) override
    {
        std::optional<ShardLease> lease = source.leaseForSeed(spec.seed);
        std::lock_guard<std::mutex> lock(mutex);
        open.insert(index);
        if (!lease || lease->name != spec.name) {
            // Not describable on the wire: run it here.
            localOnly.emplace_back(std::move(spec), index);
            return;
        }
        lease->index = index;
        pending.push_back(std::move(*lease));
        topUpAllLocked();
        // Quorum duplicates go out under this same mutex hold, so no
        // sampled result can arrive before its duplicate lease exists
        // (a result beating the duplicate would be posted unverified).
        enforceQuorumLocked();
    }

    /** What the alive workers can hold; at least one, for the
     *  coordinator itself or late joiners. */
    std::size_t
    capacity() override
    {
        std::lock_guard<std::mutex> lock(mutex);
        return std::max<std::size_t>(1, aliveLocked() * cfg.queueDepth);
    }

    /**
     * Run what only this thread can run, wait up to 100 ms for posts,
     * then do the fleet's upkeep: reap silent workers, re-lease
     * overdue leases, top up, sample and expire cross-checks.
     */
    std::vector<Post>
    wait(bool) override
    {
        runLocalWork();
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait_for(lock, std::chrono::milliseconds(100), [this] {
            return !posts.empty() || localWorkLocked();
        });
        reapSilentLocked();
        releaseOverdueLocked();
        topUpAllLocked();
        enforceQuorumLocked();
        expireQuorumLocked();
        return std::exchange(posts, {});
    }

    /** Unleased and local-only shards post nullopt; leased ones finish. */
    void
    stop() override
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const ShardLease &lease : pending)
            postLocked(lease.index, std::nullopt);
        pending.clear();
        for (const auto &[spec, index] : localOnly)
            postLocked(index, std::nullopt);
        localOnly.clear();
    }

    // ---- local execution (coordinator as worker of last resort) -----

    /** Run one shard here under the workers' supervision policy. */
    ShardOutcome
    runHere(ShardSpec spec, std::size_t index)
    {
        if (!localRunner)
            localRunner = std::make_unique<ShardRunner>(cfg);
        return localRunner->run(std::move(spec), index);
    }

    /** Run one shard here, through the same serialize/parse funnel a
     *  socket result takes, so every path yields identical records. */
    void
    runLocally(ShardSpec spec, std::size_t index)
    {
        ShardOutcome out = runHere(std::move(spec), index);
        std::string line = shardOutcomeToJson(out);
        std::lock_guard<std::mutex> lock(mutex);
        ++stats.localRuns;
        handleResultLineLocked(line);
    }

    /**
     * Run, unlocked, every shard no worker can take: local-only
     * shards, pending leases while the fleet is empty, and repairs. A
     * repair re-runs a quarantined lease through the deterministic
     * local ShardRunner and posts that answer as authoritative: the
     * untrusted copies were discarded, so the corrupt result never
     * reaches the merge or the aggregates.
     */
    void
    runLocalWork()
    {
        while (!localOnly.empty()) {
            auto [spec, index] = std::move(localOnly.front());
            localOnly.pop_front();
            runLocally(std::move(spec), index);
        }
        for (;;) {
            ShardLease lease;
            bool repair = false;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (!repairQueue.empty()) {
                    lease = std::move(repairQueue.front());
                    repairQueue.pop_front();
                    repair = true;
                } else if (noFleetLocked() && !pending.empty()) {
                    lease = std::move(pending.front());
                    pending.pop_front();
                } else {
                    return;
                }
            }
            if (!repair) {
                runLocally(leaseToSpec(lease), lease.index);
                continue;
            }
            ShardOutcome out = runHere(leaseToSpec(lease), lease.index);
            std::lock_guard<std::mutex> lock(mutex);
            ++stats.localRuns;
            poisoned.erase(lease.index);
            postLocked(lease.index, std::move(out));
        }
    }

    // ---- shutdown ---------------------------------------------------

    void
    stopFleet()
    {
        shutdown.store(true, std::memory_order_release);
#if DRF_FLEET_HAVE_SOCKETS
        if (listenFd >= 0)
            ::shutdown(listenFd, SHUT_RDWR);
#endif
        if (acceptThread.joinable())
            acceptThread.join();

        std::vector<std::shared_ptr<Worker>> snapshot;
        {
            std::lock_guard<std::mutex> lock(mutex);
            snapshot = workers;
            for (auto &worker : snapshot) {
                if (worker->alive)
                    sendFrame(worker->fd, MsgType::Shutdown, "");
#if DRF_FLEET_HAVE_SOCKETS
                ::shutdown(worker->fd, SHUT_RD);
#endif
            }
        }
        for (auto &worker : snapshot) {
            if (worker->reader.joinable())
                worker->reader.join();
#if DRF_FLEET_HAVE_SOCKETS
            if (worker->fd >= 0) {
                ::close(worker->fd);
                worker->fd = -1;
            }
#endif
        }
#if DRF_FLEET_HAVE_SOCKETS
        if (listenFd >= 0) {
            ::close(listenFd);
            listenFd = -1;
        }
#endif
    }
};

FleetCoordinator::FleetCoordinator(ShardSource &source,
                                   const CoordinatorConfig &cfg)
    : _impl(std::make_unique<Impl>(source, cfg))
{
}

FleetCoordinator::~FleetCoordinator()
{
    _impl->stopFleet();
}

bool
FleetCoordinator::listen()
{
    if (_impl->cfg.expectedWorkers == 0)
        return true; // degenerate fleet: no socket at all
    return _impl->bindAndListen();
}

unsigned short
FleetCoordinator::boundPort() const
{
    return _impl->portBound;
}

FleetResult
FleetCoordinator::run()
{
    Impl &im = *_impl;
    const CoordinatorConfig &cfg = im.cfg;

    if (cfg.expectedWorkers > 0 && im.listenFd >= 0) {
        im.acceptThread = std::thread([&im] { im.acceptLoop(); });

        // Give the fleet a chance to assemble; localFallback (or late
        // joiners) covers a shortfall.
        Clock::time_point wait_start = Clock::now();
        std::unique_lock<std::mutex> lock(im.mutex);
        im.cv.wait_for(
            lock,
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(
                    std::max(0.0, cfg.workerWaitSeconds))),
            [&] {
                return im.stats.workersSeen >= cfg.expectedWorkers ||
                       secondsSince(wait_start) >=
                           cfg.workerWaitSeconds;
            });
    }

    SupervisorConfig loop_cfg;
    loop_cfg.campaign = mergePolicy(cfg.campaign);
    loop_cfg.journalPath = cfg.journalPath;
    loop_cfg.resume = cfg.resume;
    JournalTriage journal;
    AdaptiveCampaignResult adaptive =
        runCampaignLoop(im.source, im, loop_cfg, cfg.maxRounds,
                        cfg.journalPolicy, &journal);
    im.stopFleet();

    FleetResult result = std::move(im.stats);
    result.adaptive = std::move(adaptive);
    result.adaptive.jobs = cfg.expectedWorkers == 0
                               ? 1u
                               : std::max(1u, result.workersSeen);
    result.campaign = result.adaptive;
    result.resumeCrcSkipped = journal.resume.crcSkipped;
    result.resumeParseSkipped = journal.resume.parseSkipped;
    result.journalStatus = journal.writer;
    return result;
}

std::string
fleetTriageJson(const FleetResult &result)
{
    JsonWriter w;
    w.beginObject();
    w.key("workers_seen").value(result.workersSeen);
    w.key("workers").value(result.adaptive.jobs);
    w.key("wall_seconds").value(result.adaptive.wallSeconds);
    w.key("busy_seconds").value(result.adaptive.shardSecondsSum);
    w.key("leases_issued").value(result.leasesIssued);
    w.key("releases").value(result.releases);
    w.key("duplicate_results").value(result.duplicateResults);
    w.key("local_runs").value(result.localRuns);
    w.key("shards_resumed")
        .value(static_cast<std::uint64_t>(result.adaptive.shardsResumed));
    w.key("halted").value(result.adaptive.interrupted);
    w.key("frame_corruptions").value(result.frameCorruptions);
    w.key("digest_mismatches").value(result.digestMismatches);
    w.key("quorum_leases").value(result.quorumLeases);
    w.key("quorum_divergences").value(result.quorumDivergences);
    w.key("divergences").beginArray();
    for (std::size_t index : result.divergedIndices) {
        w.beginObject();
        w.key("index").value(static_cast<std::uint64_t>(index));
        w.key("class").value(
            failureClassName(FailureClass::WorkerDivergence));
        w.endObject();
    }
    w.endArray();
    w.key("resume_crc_skipped").value(result.resumeCrcSkipped);
    w.key("resume_parse_skipped").value(result.resumeParseSkipped);
    w.key("journal").raw(journalStatusJson(result.journalStatus));
    w.endObject();
    return w.str();
}

} // namespace drf::fleet
