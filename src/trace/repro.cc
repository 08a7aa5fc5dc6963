#include "trace/repro.hh"

#include <algorithm>

#include "campaign/campaign_json.hh"
#include "tester/tester_failure.hh"

namespace drf
{

ReproTrace
recordGpuRun(const ApuSystemConfig &sys_cfg,
             const GpuTesterConfig &tester_cfg, const RecordOptions &opts)
{
    ReproTrace trace;
    trace.system = sys_cfg;
    trace.tester = tester_cfg;
    trace.tester.record = nullptr;
    trace.tester.replay = nullptr;

    ApuSystem sys(sys_cfg);
    TraceRecorder events;
    if (opts.captureEvents)
        sys.attachTrace(events);

    GpuTesterConfig run_cfg = trace.tester;
    run_cfg.record = &trace.schedule;
    GpuTester tester(sys, run_cfg);
    trace.result = tester.run();

    if (opts.captureEvents)
        trace.events = events.events();
    return trace;
}

ReproTrace
recordGpuRun(const GpuTestPreset &preset, const RecordOptions &opts)
{
    ReproTrace trace = recordGpuRun(preset.system, preset.tester, opts);
    trace.presetName = preset.name;
    return trace;
}

TesterResult
replayGpuRun(const ReproTrace &trace, const EpisodeSchedule &schedule,
             bool arm_fault, TraceRecorder *events,
             const SchedulePerturbation *perturb)
{
    ApuSystemConfig sys_cfg = trace.system;
    if (!arm_fault)
        sys_cfg.fault = FaultKind::None;

    ApuSystem sys(sys_cfg);
    if (events != nullptr)
        sys.attachTrace(*events);

    GpuTesterConfig run_cfg = trace.tester;
    run_cfg.record = nullptr;
    run_cfg.replay = &schedule;
    if (perturb != nullptr && !perturb->empty())
        run_cfg.perturb = perturb;
    GpuTester tester(sys, run_cfg);
    return tester.run();
}

TesterResult
replayGpuRun(const ReproTrace &trace)
{
    return replayGpuRun(trace, trace.schedule);
}

std::string
reproToJson(const ReproTrace &trace, const EpisodeSchedule &shrunk,
            const TesterResult &result)
{
    JsonWriter w;
    w.beginObject();
    w.key("preset").value(trace.presetName);
    w.key("seed").value(trace.tester.seed);
    w.key("fault").value(faultKindName(trace.system.fault));
    w.key("fault_trigger_pct").value(trace.system.faultTriggerPct);
    w.key("fault_seed").value(trace.system.faultSeed);

    w.key("system").beginObject();
    w.key("protocol").value(protocolKindName(trace.system.l1.protocol));
    w.key("num_cus").value(trace.system.numCus);
    w.key("num_gpu_l2s").value(trace.system.numGpuL2s);
    w.key("num_cpu_caches").value(trace.system.numCpuCaches);
    w.key("line_bytes").value(trace.system.lineBytes);
    w.key("l1_size_bytes").value(trace.system.l1.sizeBytes);
    w.key("l1_assoc").value(trace.system.l1.assoc);
    w.key("l2_size_bytes").value(trace.system.l2.sizeBytes);
    w.key("l2_assoc").value(trace.system.l2.assoc);
    w.endObject();

    w.key("tester").beginObject();
    w.key("scope_mode").value(scopeModeName(trace.tester.scopeMode));
    w.key("wfs_per_cu").value(trace.tester.wfsPerCu);
    w.key("lanes").value(trace.tester.lanes);
    w.key("episodes_per_wf").value(trace.tester.episodesPerWf);
    w.key("actions_per_episode")
        .value(trace.tester.episodeGen.actionsPerEpisode);
    w.key("num_sync_vars").value(trace.tester.variables.numSyncVars);
    w.key("num_normal_vars").value(trace.tester.variables.numNormalVars);
    w.endObject();

    w.key("original").beginObject();
    w.key("episodes").value(std::uint64_t(trace.schedule.size()));
    w.key("failure_class")
        .value(failureClassName(trace.result.failureClass));
    w.key("ticks").value(trace.result.ticks);
    w.endObject();

    w.key("repro").beginObject();
    w.key("episodes").value(std::uint64_t(shrunk.size()));
    w.key("failure_class").value(failureClassName(result.failureClass));
    w.key("ticks").value(result.ticks);
    // The Table V dump: last reader / last writer of the offending
    // variable plus the recent transaction history.
    w.key("report").value(result.report);
    w.endObject();

    w.key("schedule").beginArray();
    for (const Episode &e : shrunk.episodes) {
        w.beginObject();
        w.key("episode_id").value(e.id);
        w.key("wavefront").value(e.wavefrontId);
        w.key("sync_var").value(e.syncVar);
        w.key("scope").value(scopeName(e.scope));
        w.key("actions").value(std::uint64_t(e.numActions()));
        // Sort by VarId so the report's ordering is not an artifact of
        // generation order.
        std::vector<VarId> writes;
        for (const Episode::WriteEntry &entry : e.writes)
            writes.push_back(entry.var);
        std::sort(writes.begin(), writes.end());
        w.key("writes").beginArray();
        for (VarId var : writes) {
            const Episode::WriteInfo &info = *e.findWrite(var);
            w.beginObject();
            w.key("var").value(var);
            w.key("lane").value(info.lane);
            w.key("value").value(info.value);
            w.endObject();
        }
        w.endArray();
        std::vector<VarId> reads(e.reads.begin(), e.reads.end());
        std::sort(reads.begin(), reads.end());
        w.key("reads").beginArray();
        for (VarId var : reads)
            w.value(var);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace drf
