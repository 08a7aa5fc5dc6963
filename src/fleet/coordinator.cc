#include "fleet/coordinator.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

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

/**
 * Split a Result payload ("%016llx <line>") into its record line and
 * check the end-to-end digest. A payload without the prefix fails as
 * a mismatch: every worker that passes the Hello check stamps one. The
 * frame CRC already covers transport damage — the digest's job is
 * catching a worker whose *computation* went wrong.
 */
bool
splitResultPayload(const std::string &payload, std::string &line)
{
    if (payload.size() <= 17 || payload[16] != ' ')
        return false;
    std::uint64_t want = 0;
    for (int i = 0; i < 16; ++i) {
        char c = payload[static_cast<std::size_t>(i)];
        if (c >= '0' && c <= '9')
            want = (want << 4) | static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            want = (want << 4) | (static_cast<unsigned>(c - 'a') + 10);
        else
            return false;
    }
    line = payload.substr(17);
    return chaos::fnv1a64(line) == want;
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

    /** One connected worker process; a reconnect is a new Worker. */
    struct Worker
    {
        int fd = -1;
        std::string name;
        bool alive = false;
        Clock::time_point lastSeen{};
        std::uint64_t leasesSent = 0; ///< Lease frames sent this session
        std::thread reader;
    };

    /** Where a sampled index's quorum cross-check stands. */
    enum class Check
    {
        None,     ///< not duplicated for quorum
        Pending,  ///< duplicated; a second answer decides
        Dropped,  ///< abandoned: the first answer posts unverified
        Diverged, ///< answers differed; only the local re-run posts
    };

    /**
     * One submitted index that has not been posted yet. An answer for
     * an index without a record is a duplicate or a straggler.
     */
    struct Shard
    {
        /** What a worker runs; unset for a shard no lease can
         *  describe, which runs here from spec. */
        std::optional<ShardLease> lease;
        ShardSpec spec;
        /** Workers that hold the lease, queued or running, and owe an
         *  answer. */
        std::vector<const Worker *> holders;
        /** When the lease last left pending. */
        Clock::time_point issuedAt{};

        Check check = Check::None;
        Clock::time_point checkIssuedAt{};
        /** The first answer, held back while its check is pending. */
        std::optional<ShardOutcome> first;
        const Worker *firstFrom = nullptr;
        std::string firstKey; ///< canonicalResultKey(*first)
    };
    using ShardMap = std::map<std::size_t, Shard>;

    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::shared_ptr<Worker>> workers;
    ShardMap shards;
    std::deque<std::size_t> pending;     ///< unleased, index order
    std::deque<std::size_t> localOnly;   ///< no lease: run here
    std::deque<std::size_t> repairQueue; ///< diverged: re-run here
    /** Trusted outcomes not yet taken by wait(). */
    std::vector<Post> posts;

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
    }

    void
    acceptLoop()
    {
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
                    if (!splitResultPayload(frame.payload, line)) {
                        // The frame survived the wire intact but the
                        // worker's own digest disagrees with its line
                        // (or is missing): this peer's output cannot
                        // be trusted.
                        ++stats.digestMismatches;
                        markDeadLocked(*worker);
                        poisoned_stream = true;
                        break;
                    }
                    handleResultLineLocked(line, worker.get());
                    topUpLocked(*worker);
                    enforceQuorumLocked();
                    break;
                  }
                  case MsgType::Heartbeat: {
                    // An idle worker that has taken every lease sent
                    // to it owes no answer: whatever it is still
                    // listed as holding lost its Result on the wire.
                    HeartbeatMsg hb;
                    if (parseHeartbeat(frame.payload, hb) && hb.idle &&
                        hb.leasesTaken == worker->leasesSent) {
                        releaseHeldLocked(*worker);
                        topUpLocked(*worker);
                        enforceQuorumLocked();
                    }
                    break;
                  }
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

    static bool
    holds(const Shard &shard, const Worker &worker)
    {
        return std::find(shard.holders.begin(), shard.holders.end(),
                         &worker) != shard.holders.end();
    }

    /** Leases @p worker is running or has queued. */
    std::size_t
    heldLocked(const Worker &worker) const
    {
        std::size_t held = 0;
        for (const auto &[index, shard] : shards)
            held += holds(shard, worker) ? 1 : 0;
        return held;
    }

    void
    sendLeaseLocked(Worker &worker, std::size_t index)
    {
        Shard &shard = shards.at(index);
        if (shard.holders.empty())
            shard.issuedAt = Clock::now();
        shard.holders.push_back(&worker);
        ++worker.leasesSent;
        ++stats.leasesIssued;
        if (!sendFrame(worker.fd, MsgType::Lease,
                       serializeLease(*shard.lease)))
            markDeadLocked(worker);
    }

    /** Fill @p worker's queue from the pending list. */
    void
    topUpLocked(Worker &worker)
    {
        while (worker.alive && !pending.empty() &&
               heldLocked(worker) < cfg.queueDepth) {
            std::size_t index = pending.front();
            pending.pop_front();
            sendLeaseLocked(worker, index);
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
     * Take @p worker off every lease it holds — it died, or it lost
     * their Results. A lease left with no holder and no answer returns
     * to the front of pending, in index order, for the next top-up. A
     * pending cross-check that can no longer get two answers is
     * dropped, and its first answer, if any, posts unverified:
     * sampling is best-effort under churn, but every index must post.
     */
    void
    releaseHeldLocked(const Worker &worker)
    {
        std::vector<std::size_t> returned; // map order: index order
        for (auto it = shards.begin(); it != shards.end();) {
            Shard &shard = it->second;
            auto held = std::find(shard.holders.begin(),
                                  shard.holders.end(), &worker);
            if (held == shard.holders.end()) {
                ++it;
                continue;
            }
            shard.holders.erase(held);
            if (shard.check == Check::Pending &&
                shard.holders.size() + (shard.first ? 1 : 0) < 2) {
                shard.check = Check::Dropped;
                if (shard.first) {
                    it = postLocked(it, std::move(shard.first));
                    continue;
                }
            }
            if (shard.holders.empty() && !shard.first &&
                shard.check != Check::Diverged) {
                returned.push_back(it->first);
                ++stats.releases;
            }
            ++it;
        }
        pending.insert(pending.begin(), returned.begin(), returned.end());
    }

    void
    markDeadLocked(Worker &worker)
    {
        if (!worker.alive)
            return;
        worker.alive = false;
        ::shutdown(worker.fd, SHUT_RDWR);
        releaseHeldLocked(worker);
    }

    /** Reap workers silent past the heartbeat timeout. */
    void
    reapSilentLocked()
    {
        if (cfg.heartbeatTimeoutSeconds <= 0.0)
            return;
        for (auto &worker : workers) {
            if (worker->alive &&
                secondsSince(worker->lastSeen) >
                    cfg.heartbeatTimeoutSeconds)
                markDeadLocked(*worker);
        }
    }

    /** The least-loaded alive worker not holding @p index, or null. */
    Worker *
    leastLoadedWithoutLocked(std::size_t index)
    {
        const Shard &shard = shards.at(index);
        Worker *target = nullptr;
        std::size_t target_held = 0;
        for (auto &worker : workers) {
            if (!worker->alive || holds(shard, *worker))
                continue;
            std::size_t held = heldLocked(*worker);
            if (!target || held < target_held) {
                target = worker.get();
                target_held = held;
            }
        }
        return target;
    }

    /**
     * The straggler rule: a lease held by exactly one worker for longer
     * than stragglerSeconds is duplicated, oldest first, onto a worker
     * that still holds nothing after top-up. The first answer posts;
     * the other is dropped as a duplicate.
     */
    void
    duplicateStragglersLocked()
    {
        std::vector<Worker *> idle;
        for (auto &worker : workers) {
            if (worker->alive && heldLocked(*worker) == 0)
                idle.push_back(worker.get());
        }
        if (idle.empty())
            return;
        std::vector<std::pair<Clock::time_point, std::size_t>> late;
        for (const auto &[index, shard] : shards) {
            if (shard.holders.size() == 1 && !shard.first &&
                shard.check != Check::Diverged &&
                secondsSince(shard.issuedAt) > cfg.stragglerSeconds)
                late.emplace_back(shard.issuedAt, index);
        }
        std::sort(late.begin(), late.end());
        for (std::size_t i = 0; i < late.size() && i < idle.size(); ++i) {
            auto it = shards.find(late[i].second);
            if (it == shards.end() || it->second.holders.size() != 1)
                continue; // a failed send in this loop released it
            ++stats.releases;
            sendLeaseLocked(*idle[i], late[i].second);
        }
    }

    /**
     * Opt-in result verification: duplicate every sampled lease
     * (index % verifyQuorum == 0) held by one worker onto a second, so
     * two independent processes answer the same shard. Runs under the
     * same mutex hold as every top-up, so a sampled result cannot
     * arrive before its duplicate is issued. Candidates are collected
     * before any lease is sent: sendLeaseLocked can mark a worker dead
     * and post or re-queue shards mid-iteration.
     */
    void
    enforceQuorumLocked()
    {
        if (cfg.verifyQuorum == 0)
            return;
        std::vector<std::size_t> candidates;
        for (const auto &[index, shard] : shards) {
            if (index % cfg.verifyQuorum == 0 &&
                shard.holders.size() == 1 && shard.check == Check::None)
                candidates.push_back(index);
        }
        for (std::size_t index : candidates) {
            auto it = shards.find(index);
            if (it == shards.end() || it->second.holders.size() != 1)
                continue;
            Worker *target = leastLoadedWithoutLocked(index);
            if (!target)
                continue; // single-worker fleet: nothing to compare
            it->second.check = Check::Pending;
            it->second.checkIssuedAt = Clock::now();
            ++stats.quorumLeases;
            sendLeaseLocked(*target, index);
        }
    }

    /** Abandon cross-checks past a deadline sized for whole shard
     *  queues (not frames) — the verifier is legitimately busy draining
     *  its own queue first — and post the first answer unverified. */
    void
    expireQuorumLocked()
    {
        const double bound = std::max(cfg.heartbeatTimeoutSeconds, 5.0);
        for (auto it = shards.begin(); it != shards.end();) {
            Shard &shard = it->second;
            if (shard.check != Check::Pending ||
                secondsSince(shard.checkIssuedAt) <= bound) {
                ++it;
                continue;
            }
            shard.check = Check::Dropped;
            if (shard.first)
                it = postLocked(it, std::move(shard.first));
            else
                ++it;
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

    /** No worker can take leases: the coordinator runs them itself. */
    bool
    noFleetLocked() const
    {
        return cfg.expectedWorkers == 0 || aliveLocked() == 0;
    }

    /** Shards only the driving thread can run right now. */
    bool
    localWorkLocked() const
    {
        return !localOnly.empty() || !repairQueue.empty() ||
               (noFleetLocked() && !pending.empty());
    }

    // ---- result intake ----------------------------------------------

    /** Hand @p it's outcome to the loop and drop its record; later
     *  answers are duplicates. Returns the next record. */
    ShardMap::iterator
    postLocked(ShardMap::iterator it, std::optional<ShardOutcome> out)
    {
        // A dead worker's late answer can post a shard already queued
        // again for re-lease.
        std::erase(pending, it->first);
        posts.emplace_back(it->first, std::move(out));
        return shards.erase(it);
    }

    /**
     * The one funnel every executed shard passes through — socket
     * Result frames (@p from their worker) and coordinator-local runs
     * (@p from null). The first answer posts at once unless a quorum
     * cross-check is pending for it; then a second answer, from
     * another worker, decides.
     */
    void
    handleResultLineLocked(const std::string &line, const Worker *from)
    {
        ShardOutcome out;
        if (!parseShardOutcome(line, out))
            return; // torn frame; the lease stays re-leasable
        auto it = shards.find(out.index);
        if (it == shards.end()) {
            ++stats.duplicateResults; // posted already
            return;
        }
        Shard &shard = it->second;
        std::erase(shard.holders, from);
        if (shard.check == Check::Diverged ||
            (shard.first && shard.firstFrom == from)) {
            // Caught diverging, so only the local re-run may settle
            // it; or a duplicated frame of the first answer.
            ++stats.duplicateResults;
            return;
        }
        if (shard.check != Check::Pending) {
            postLocked(it, std::move(out));
            return;
        }
        if (!shard.first) {
            shard.firstKey = canonicalResultKey(out);
            shard.first = std::move(out);
            shard.firstFrom = from;
            return;
        }

        // The cross-check: a second answer for a sampled index.
        if (shard.firstKey == canonicalResultKey(out)) {
            ++stats.duplicateResults;
            postLocked(it, std::move(shard.first));
            return;
        }
        // Two workers returned byte-different records for the same
        // deterministic shard: one of them lied without tripping CRC or
        // digest. Neither copy can be trusted — quarantine the index
        // and queue the authoritative local tiebreak, which posts it.
        ++stats.quorumDivergences;
        stats.divergedIndices.push_back(it->first);
        shard.check = Check::Diverged;
        shard.first.reset();
        repairQueue.push_back(it->first);
    }

    // ---- the executor interface (driving thread) -------------------

    void
    submit(ShardSpec spec, std::size_t index) override
    {
        std::optional<ShardLease> lease = source.leaseForSeed(spec.seed);
        std::lock_guard<std::mutex> lock(mutex);
        Shard &shard = shards[index];
        if (!lease || lease->name != spec.name) {
            // Not describable on the wire: run it here.
            shard.spec = std::move(spec);
            localOnly.push_back(index);
            return;
        }
        lease->index = index;
        shard.lease = std::move(lease);
        pending.push_back(index);
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
     * then do the fleet's upkeep: reap silent workers, top up, sample
     * cross-checks, duplicate stragglers and expire cross-checks.
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
        topUpAllLocked();
        enforceQuorumLocked();
        duplicateStragglersLocked();
        expireQuorumLocked();
        return std::exchange(posts, {});
    }

    /** Unleased and local-only shards post nullopt; leased ones finish. */
    void
    stop() override
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (std::size_t index : std::exchange(pending, {}))
            postLocked(shards.find(index), std::nullopt);
        for (std::size_t index : std::exchange(localOnly, {}))
            postLocked(shards.find(index), std::nullopt);
    }

    // ---- local execution (coordinator as worker of last resort) -----

    /**
     * Run, unlocked, every shard no worker can take: local-only
     * shards, repairs, and pending leases while the fleet is empty.
     * Each runs under the workers' supervision policy and passes the
     * same serialize/parse funnel a socket result takes, so every path
     * yields identical records. A repair re-runs a quarantined lease
     * and posts that answer as authoritative: the untrusted copies
     * were discarded, so the corrupt result never reaches the merge or
     * the aggregates.
     */
    void
    runLocalWork()
    {
        for (;;) {
            std::size_t index = 0;
            ShardSpec spec;
            std::optional<ShardLease> lease;
            bool repair = false;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (!localOnly.empty()) {
                    index = localOnly.front();
                    localOnly.pop_front();
                    spec = std::move(shards.at(index).spec);
                } else if (!repairQueue.empty()) {
                    index = repairQueue.front();
                    repairQueue.pop_front();
                    lease = shards.at(index).lease;
                    repair = true;
                } else if (noFleetLocked() && !pending.empty()) {
                    index = pending.front();
                    pending.pop_front();
                    lease = shards.at(index).lease;
                } else {
                    return;
                }
            }
            if (lease)
                spec = leaseToSpec(*lease);
            if (!localRunner)
                localRunner = std::make_unique<ShardRunner>(cfg);
            ShardOutcome out = localRunner->run(std::move(spec), index);
            std::lock_guard<std::mutex> lock(mutex);
            ++stats.localRuns;
            if (repair)
                postLocked(shards.find(index), std::move(out));
            else
                handleResultLineLocked(shardOutcomeToJson(out), nullptr);
        }
    }

    // ---- shutdown ---------------------------------------------------

    void
    stopFleet()
    {
        shutdown.store(true, std::memory_order_release);
        if (listenFd >= 0)
            ::shutdown(listenFd, SHUT_RDWR);
        if (acceptThread.joinable())
            acceptThread.join();

        std::vector<std::shared_ptr<Worker>> snapshot;
        {
            std::lock_guard<std::mutex> lock(mutex);
            snapshot = workers;
            for (auto &worker : snapshot) {
                if (worker->alive)
                    sendFrame(worker->fd, MsgType::Shutdown, "");
                ::shutdown(worker->fd, SHUT_RD);
            }
        }
        for (auto &worker : snapshot) {
            if (worker->reader.joinable())
                worker->reader.join();
            if (worker->fd >= 0) {
                ::close(worker->fd);
                worker->fd = -1;
            }
        }
        if (listenFd >= 0) {
            ::close(listenFd);
            listenFd = -1;
        }
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

        // Give the fleet a chance to assemble; late joiners (or local
        // execution, if none arrives) cover a shortfall.
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
