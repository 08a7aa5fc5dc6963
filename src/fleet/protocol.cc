#include "fleet/protocol.hh"

#include <cstdio>

#include "campaign/campaign_json.hh"
#include "campaign/json_value.hh"
#include "guidance/genome.hh"
#include "proto/fault.hh"

namespace drf::fleet
{

namespace
{

/** Render a double with enough digits to round-trip exactly. */
std::string
exactDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

const JsonValue *
expect(const JsonValue &obj, const char *key, JsonValue::Type type)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->type != type)
        return nullptr;
    return v;
}

} // namespace

std::string
serializeHello(const HelloMsg &msg)
{
    JsonWriter w;
    w.beginObject();
    w.key("v").value(msg.protocolVersion);
    w.key("worker").value(msg.worker);
    w.key("pid").value(msg.pid);
    w.endObject();
    return w.str();
}

bool
parseHello(const std::string &payload, HelloMsg &out)
{
    JsonValue root;
    if (!parseJson(payload, root) ||
        root.type != JsonValue::Type::Object)
        return false;
    const JsonValue *v = expect(root, "v", JsonValue::Type::Number);
    const JsonValue *worker =
        expect(root, "worker", JsonValue::Type::String);
    const JsonValue *pid = expect(root, "pid", JsonValue::Type::Number);
    if (!v || !worker || !pid)
        return false;
    out.protocolVersion = static_cast<unsigned>(v->asU64());
    out.worker = worker->string;
    out.pid = pid->asU64();
    return true;
}

std::string
serializeWelcome(const WelcomeMsg &msg)
{
    JsonWriter w;
    w.beginObject();
    w.key("v").value(msg.protocolVersion);
    w.key("fork_isolation").value(msg.forkIsolation);
    w.key("shard_timeout_seconds");
    w.raw(exactDouble(msg.shardTimeoutSeconds));
    w.key("shard_event_budget").value(msg.shardEventBudget);
    w.key("max_retries").value(msg.maxRetries);
    w.key("retry_backoff_ms").value(msg.retryBackoffMs);
    w.key("queue_depth").value(msg.queueDepth);
    w.key("heartbeat_ms").value(msg.heartbeatMs);
    w.endObject();
    return w.str();
}

bool
parseWelcome(const std::string &payload, WelcomeMsg &out)
{
    JsonValue root;
    if (!parseJson(payload, root) ||
        root.type != JsonValue::Type::Object)
        return false;
    const JsonValue *v = expect(root, "v", JsonValue::Type::Number);
    const JsonValue *fork =
        expect(root, "fork_isolation", JsonValue::Type::Bool);
    const JsonValue *timeout =
        expect(root, "shard_timeout_seconds", JsonValue::Type::Number);
    const JsonValue *budget =
        expect(root, "shard_event_budget", JsonValue::Type::Number);
    const JsonValue *retries =
        expect(root, "max_retries", JsonValue::Type::Number);
    const JsonValue *backoff =
        expect(root, "retry_backoff_ms", JsonValue::Type::Number);
    const JsonValue *depth =
        expect(root, "queue_depth", JsonValue::Type::Number);
    const JsonValue *heartbeat =
        expect(root, "heartbeat_ms", JsonValue::Type::Number);
    if (!v || !fork || !timeout || !budget || !retries || !backoff ||
        !depth || !heartbeat)
        return false;
    out.protocolVersion = static_cast<unsigned>(v->asU64());
    out.forkIsolation = fork->boolean;
    out.shardTimeoutSeconds = timeout->asDouble();
    out.shardEventBudget = budget->asU64();
    out.maxRetries = static_cast<unsigned>(retries->asU64());
    out.retryBackoffMs = static_cast<unsigned>(backoff->asU64());
    out.queueDepth = static_cast<unsigned>(depth->asU64());
    out.heartbeatMs = static_cast<unsigned>(heartbeat->asU64());
    return true;
}

std::string
serializeHeartbeat(const HeartbeatMsg &msg)
{
    JsonWriter w;
    w.beginObject();
    w.key("idle").value(msg.idle);
    w.key("leases_taken").value(msg.leasesTaken);
    w.endObject();
    return w.str();
}

bool
parseHeartbeat(const std::string &payload, HeartbeatMsg &out)
{
    JsonValue root;
    if (!parseJson(payload, root) ||
        root.type != JsonValue::Type::Object)
        return false;
    const JsonValue *idle = expect(root, "idle", JsonValue::Type::Bool);
    const JsonValue *taken =
        expect(root, "leases_taken", JsonValue::Type::Number);
    if (!idle || !taken)
        return false;
    out.idle = idle->boolean;
    out.leasesTaken = taken->asU64();
    return true;
}

std::string
serializeLease(const ShardLease &lease)
{
    JsonWriter w;
    w.beginObject();
    w.key("v").value(kProtocolVersion);
    w.key("index").value(static_cast<std::uint64_t>(lease.index));
    w.key("name").value(lease.name);
    w.key("seed").value(lease.seed);

    w.key("genome").beginObject();
    w.key("cache_class")
        .value(cacheSizeClassName(lease.genome.cacheClass));
    w.key("actions_per_episode").value(lease.genome.actionsPerEpisode);
    w.key("episodes_per_wf").value(lease.genome.episodesPerWf);
    w.key("atomic_locs").value(lease.genome.atomicLocs);
    w.key("coloc_density");
    w.raw(exactDouble(lease.genome.colocDensity));
    w.key("num_cus").value(lease.genome.numCus);
    w.key("protocol").value(protocolKindName(lease.genome.protocol));
    w.key("scope_mode").value(scopeModeName(lease.genome.scopeMode));
    w.endObject();

    w.key("scale").beginObject();
    w.key("lanes").value(lease.scale.lanes);
    w.key("wfs_per_cu").value(lease.scale.wfsPerCu);
    w.key("num_normal_vars")
        .value(static_cast<std::uint64_t>(lease.scale.numNormalVars));
    w.key("fault").value(faultKindName(lease.scale.fault));
    w.key("fault_trigger_pct").value(lease.scale.faultTriggerPct);
    w.endObject();

    w.endObject();
    return w.str();
}

bool
parseLease(const std::string &payload, ShardLease &out)
{
    JsonValue root;
    if (!parseJson(payload, root) ||
        root.type != JsonValue::Type::Object)
        return false;
    const JsonValue *index =
        expect(root, "index", JsonValue::Type::Number);
    const JsonValue *name = expect(root, "name", JsonValue::Type::String);
    const JsonValue *seed = expect(root, "seed", JsonValue::Type::Number);
    const JsonValue *genome =
        expect(root, "genome", JsonValue::Type::Object);
    const JsonValue *scale =
        expect(root, "scale", JsonValue::Type::Object);
    if (!index || !name || !seed || !genome || !scale)
        return false;

    const JsonValue *cache_class =
        expect(*genome, "cache_class", JsonValue::Type::String);
    const JsonValue *actions =
        expect(*genome, "actions_per_episode", JsonValue::Type::Number);
    const JsonValue *episodes =
        expect(*genome, "episodes_per_wf", JsonValue::Type::Number);
    const JsonValue *atomic_locs =
        expect(*genome, "atomic_locs", JsonValue::Type::Number);
    const JsonValue *density =
        expect(*genome, "coloc_density", JsonValue::Type::Number);
    const JsonValue *num_cus =
        expect(*genome, "num_cus", JsonValue::Type::Number);
    const JsonValue *protocol =
        expect(*genome, "protocol", JsonValue::Type::String);
    const JsonValue *scope_mode =
        expect(*genome, "scope_mode", JsonValue::Type::String);
    if (!cache_class || !actions || !episodes || !atomic_locs ||
        !density || !num_cus || !protocol || !scope_mode)
        return false;
    auto parsed_class = parseCacheSizeClass(cache_class->string);
    auto parsed_protocol = parseProtocolKind(protocol->string);
    auto parsed_scope = parseScopeMode(scope_mode->string);
    if (!parsed_class || !parsed_protocol || !parsed_scope)
        return false;

    const JsonValue *lanes =
        expect(*scale, "lanes", JsonValue::Type::Number);
    const JsonValue *wfs =
        expect(*scale, "wfs_per_cu", JsonValue::Type::Number);
    const JsonValue *vars =
        expect(*scale, "num_normal_vars", JsonValue::Type::Number);
    const JsonValue *fault =
        expect(*scale, "fault", JsonValue::Type::String);
    const JsonValue *trigger =
        expect(*scale, "fault_trigger_pct", JsonValue::Type::Number);
    if (!lanes || !wfs || !vars || !fault || !trigger)
        return false;
    auto parsed_fault = parseFaultKind(fault->string);
    if (!parsed_fault)
        return false;

    ShardLease lease;
    lease.index = static_cast<std::size_t>(index->asU64());
    lease.name = name->string;
    lease.seed = seed->asU64();
    lease.genome.cacheClass = *parsed_class;
    lease.genome.actionsPerEpisode =
        static_cast<unsigned>(actions->asU64());
    lease.genome.episodesPerWf =
        static_cast<unsigned>(episodes->asU64());
    lease.genome.atomicLocs =
        static_cast<unsigned>(atomic_locs->asU64());
    lease.genome.colocDensity = density->asDouble();
    lease.genome.numCus = static_cast<unsigned>(num_cus->asU64());
    lease.genome.protocol = *parsed_protocol;
    lease.genome.scopeMode = *parsed_scope;
    lease.scale.lanes = static_cast<unsigned>(lanes->asU64());
    lease.scale.wfsPerCu = static_cast<unsigned>(wfs->asU64());
    lease.scale.numNormalVars =
        static_cast<std::uint32_t>(vars->asU64());
    lease.scale.fault = *parsed_fault;
    lease.scale.faultTriggerPct =
        static_cast<unsigned>(trigger->asU64());
    out = std::move(lease);
    return true;
}

ShardSpec
leaseToSpec(const ShardLease &lease)
{
    GpuTestPreset preset =
        genomeToPreset(lease.genome, lease.scale, lease.seed);
    return gpuShard(preset);
}

} // namespace drf::fleet
