/**
 * @file
 * One-call local fleet: coordinator + N forked worker processes on
 * localhost. The convenience wrapper `tools/fleet run` and the fleet
 * tests build on; multi-host deployments run `tools/fleet coordinator`
 * and `tools/fleet worker` separately instead.
 *
 * Ordering is load-bearing: the coordinator binds its listen socket
 * (learning the ephemeral port) *before* any thread exists, then forks
 * the workers — fork() and threads don't mix — and only then starts
 * the accept/reader machinery inside run().
 */

#ifndef DRF_FLEET_FLEET_HH
#define DRF_FLEET_FLEET_HH

#include "chaos/chaos.hh"
#include "fleet/coordinator.hh"

namespace drf::fleet
{

struct LocalFleetConfig
{
    CoordinatorConfig coordinator;

    /** Worker processes to fork; 0 = degenerate fleet (coordinator
     *  runs every shard itself, in index order — the golden). */
    unsigned workers = 0;

    /** Crash injection: worker 0 SIGKILLs itself instead of sending
     *  its Nth result (see WorkerConfig::dieOnResult); 0 disables. */
    unsigned dieOnResult = 0;

    /**
     * Wire fault rates applied to every forked worker's outbound
     * frames. Each worker gets an independent deterministic fault
     * stream derived from coordinator.chaosSeed and its worker slot
     * (NOT its pid), so a fleet run's fault schedule reproduces.
     */
    chaos::WireRates wireChaos;

    /** Result-corruption injection for worker 0 (see WorkerConfig). */
    unsigned corruptEveryN = 0;
    bool corruptSilently = false;

    /** Reconnect budget for each forked worker; under heavy wire
     *  chaos every corrupted frame costs the worker a session, so
     *  drills raise this well above the WorkerConfig default. */
    unsigned maxReconnects = 5;
};

/**
 * Run one campaign over a localhost fleet. Sets
 * coordinator.expectedWorkers = workers, forks the workers, runs the
 * coordinator to completion, and reaps the children. Returns the
 * coordinator's result; with @p listen_ok (optional) reports whether
 * the socket could be bound (on failure the campaign still completes
 * via the local path).
 */
FleetResult runLocalFleet(ShardSource &source,
                          const LocalFleetConfig &cfg,
                          bool *listen_ok = nullptr);

} // namespace drf::fleet

#endif // DRF_FLEET_FLEET_HH
