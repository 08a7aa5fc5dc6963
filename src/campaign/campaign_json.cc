#include "campaign/campaign_json.hh"

#include <cstdio>

namespace drf
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

void
JsonWriter::preValue()
{
    if (_needComma)
        _out << ",";
    _needComma = true;
}

JsonWriter &
JsonWriter::beginObject()
{
    preValue();
    _out << "{";
    _needComma = false;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    _out << "}";
    _needComma = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    preValue();
    _out << "[";
    _needComma = false;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    _out << "]";
    _needComma = true;
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    preValue();
    _out << jsonEscape(name) << ":";
    _needComma = false;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    preValue();
    _out << jsonEscape(v);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    preValue();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    _out << buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    preValue();
    _out << v;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    preValue();
    _out << v;
    return *this;
}

JsonWriter &
JsonWriter::value(unsigned v)
{
    preValue();
    _out << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    preValue();
    _out << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::nullValue()
{
    preValue();
    _out << "null";
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    preValue();
    _out << json;
    return *this;
}

std::string
campaignToJson(const CampaignResult &result,
               const std::string &coverage_test_type)
{
    JsonWriter w;
    w.beginObject();
    w.key("passed").value(result.passed);
    w.key("jobs").value(result.jobs);
    w.key("shards_planned")
        .value(static_cast<std::uint64_t>(result.shardsPlanned));
    w.key("shards_run")
        .value(static_cast<std::uint64_t>(result.shardsRun));
    w.key("shards_skipped")
        .value(static_cast<std::uint64_t>(result.shardsSkipped));
    w.key("shards_resumed")
        .value(static_cast<std::uint64_t>(result.shardsResumed));
    w.key("host_crashes")
        .value(static_cast<std::uint64_t>(result.hostCrashes));
    w.key("host_timeouts")
        .value(static_cast<std::uint64_t>(result.hostTimeouts));
    w.key("resource_exhausted")
        .value(static_cast<std::uint64_t>(result.resourceExhausted));
    w.key("retries").value(result.retriesPerformed);
    w.key("interrupted").value(result.interrupted);
    w.key("total_ticks").value(result.totalTicks);
    w.key("total_events").value(result.totalEvents);
    w.key("total_episodes").value(result.totalEpisodes);
    w.key("total_loads_checked").value(result.totalLoadsChecked);
    w.key("total_stores_retired").value(result.totalStoresRetired);
    w.key("total_atomics_checked").value(result.totalAtomicsChecked);
    w.key("shard_seconds_sum").value(result.shardSecondsSum);
    w.key("wall_seconds").value(result.wallSeconds);
    w.key("episodes_per_sec").value(result.episodesPerSec);
    w.key("events_per_sec").value(result.eventsPerSec);

    w.key("l1_union_pct");
    if (result.l1Union)
        w.value(result.l1Union->coveragePct(coverage_test_type));
    else
        w.nullValue();
    w.key("l2_union_pct");
    if (result.l2Union)
        w.value(result.l2Union->coveragePct(coverage_test_type));
    else
        w.nullValue();
    w.key("dir_union_pct");
    if (result.dirUnion)
        w.value(result.dirUnion->coveragePct(coverage_test_type));
    else
        w.nullValue();

    w.key("shards_to_saturation");
    if (result.shardsToSaturation)
        w.value(static_cast<std::uint64_t>(*result.shardsToSaturation));
    else
        w.nullValue();

    w.key("first_failure");
    if (result.firstFailure) {
        w.beginObject();
        w.key("name").value(result.firstFailure->name);
        w.key("seed").value(result.firstFailure->seed);
        w.key("index")
            .value(static_cast<std::uint64_t>(result.firstFailure->index));
        w.key("failure_class")
            .value(failureClassName(result.firstFailure->failureClass));
        w.key("report").value(result.firstFailure->report);
        w.endObject();
    } else {
        w.nullValue();
    }

    w.key("saturation_curve").beginArray();
    for (const CoveragePoint &p : result.saturationCurve) {
        w.beginObject();
        w.key("shards")
            .value(static_cast<std::uint64_t>(p.shardsCompleted));
        w.key("l1_pct").value(p.l1Pct);
        w.key("l2_pct").value(p.l2Pct);
        w.key("cumulative_events").value(p.cumulativeEvents);
        w.key("wall_seconds").value(p.wallSeconds);
        w.key("shard_name").value(p.shardName);
        w.key("shard_seed").value(p.shardSeed);
        w.key("shard_episodes").value(p.shardEpisodes);
        w.key("shard_actions").value(p.shardActions);
        w.key("cumulative_episodes").value(p.cumulativeEpisodes);
        w.key("cumulative_actions").value(p.cumulativeActions);
        w.key("new_cells").value(static_cast<std::uint64_t>(
            p.newL1Cells + p.newL2Cells + p.newDirCells));
        w.endObject();
    }
    w.endArray();

    w.endObject();
    return w.str();
}

} // namespace drf
