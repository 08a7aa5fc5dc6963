/**
 * @file
 * Machine-readable campaign summaries.
 *
 * A deliberately small hand-rolled JSON emitter (no third-party
 * dependency) used by the benches to write their BENCH_*.json records
 * and by anything else that wants campaign results in a pipeline.
 */

#ifndef DRF_CAMPAIGN_CAMPAIGN_JSON_HH
#define DRF_CAMPAIGN_CAMPAIGN_JSON_HH

#include <cstdint>
#include <sstream>
#include <string>

#include "campaign/campaign.hh"

namespace drf
{

/**
 * Minimal streaming JSON writer: objects, arrays, scalar values. The
 * caller is responsible for well-formed nesting; commas and key quoting
 * are handled here.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Start a keyed member (inside an object). */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(unsigned v);
    JsonWriter &value(bool v);
    JsonWriter &nullValue();

    /** Splice a pre-rendered JSON fragment as one value. */
    JsonWriter &raw(const std::string &json);

    std::string str() const { return _out.str(); }

  private:
    void preValue();

    std::ostringstream _out;
    bool _needComma = false;
};

/** Escape a string for embedding in a JSON document (adds quotes). */
std::string jsonEscape(const std::string &s);

/** Render one campaign result as a JSON object. */
std::string campaignToJson(const CampaignResult &result,
                           const std::string &coverage_test_type);

} // namespace drf

#endif // DRF_CAMPAIGN_CAMPAIGN_JSON_HH
