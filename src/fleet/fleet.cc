#include "fleet/fleet.hh"

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "fleet/worker.hh"

namespace drf::fleet
{

FleetResult
runLocalFleet(ShardSource &source, const LocalFleetConfig &cfg,
              bool *listen_ok)
{
    CoordinatorConfig coord_cfg = cfg.coordinator;
    coord_cfg.expectedWorkers = cfg.workers;

    FleetCoordinator coordinator(source, coord_cfg);
    bool bound = coordinator.listen();
    if (listen_ok)
        *listen_ok = bound;

    std::vector<pid_t> children;
    if (bound && coord_cfg.expectedWorkers > 0) {
        unsigned short port = coordinator.boundPort();
        for (unsigned i = 0; i < cfg.workers; ++i) {
            pid_t pid = ::fork();
            if (pid == 0) {
                WorkerConfig wc;
                wc.port = port;
                wc.name = "local:" + std::to_string(::getpid());
                if (i == 0) {
                    wc.dieOnResult = cfg.dieOnResult;
                    wc.corruptEveryN = cfg.corruptEveryN;
                    wc.corruptSilently = cfg.corruptSilently;
                }
                wc.wireChaos = cfg.wireChaos;
                wc.chaosSeed = chaos::deriveSeed(
                    coord_cfg.chaosSeed,
                    "wire:worker-" + std::to_string(i));
                wc.maxReconnects = cfg.maxReconnects;
                ::_exit(runWorker(wc));
            }
            if (pid < 0) {
                std::perror("fleet: fork");
                break;
            }
            children.push_back(pid);
        }
    }

    FleetResult result = coordinator.run();

    // The campaign is over and every result is in. A worker whose
    // stream was poisoned mid-campaign may still be walking its
    // reconnect backoff against the now-closed port — don't wait out
    // that loop, end it.
    for (pid_t pid : children)
        (void)::kill(pid, SIGTERM);
    for (pid_t pid : children) {
        int status = 0;
        (void)::waitpid(pid, &status, 0);
    }
    return result;
}

} // namespace drf::fleet
