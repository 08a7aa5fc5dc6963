/**
 * @file
 * Binary serialization of ReproTrace ("DRFTRC01").
 *
 * The format is field-wise little-endian — every integer is written
 * byte by byte, never memcpy'd from a struct — so a trace recorded on
 * one host loads identically on any other regardless of struct layout
 * or endianness. Derived episode indexes (writes/reads) are rebuilt on
 * load rather than stored.
 *
 * Layout: 8-byte magic, u32 version, then the system config, tester
 * config, recorded result, episode schedule, and event stream, each as
 * a fixed field sequence (see trace_file.cc). Loaders reject bad
 * magic/version/truncation by returning false.
 */

#ifndef DRF_TRACE_TRACE_FILE_HH
#define DRF_TRACE_TRACE_FILE_HH

#include <iosfwd>
#include <string>

#include "trace/repro.hh"

namespace drf
{

/** The current (newest) DRFTRC01 format version this build writes. */
std::uint32_t traceFormatVersion();

/** Serialize @p trace to @p os. @return false on stream failure. */
bool saveTrace(std::ostream &os, const ReproTrace &trace);

/**
 * Serialize @p trace to @p os in an older format @p version (clamped to
 * [1, traceFormatVersion()]). Fields the requested version cannot
 * represent are dropped: guidance (v1), protocol/scope headers and
 * per-episode scopes (v2 and below), sync event records (v3 and below).
 * Exists for cross-version compatibility testing; production writers
 * always use the current version.
 */
bool saveTrace(std::ostream &os, const ReproTrace &trace,
               std::uint32_t version);

/** Serialize @p trace to @p path. @return false on any failure. */
bool saveTraceFile(const std::string &path, const ReproTrace &trace);

/** Why a trace failed to load (or Ok). */
enum class TraceLoadStatus
{
    Ok,            ///< trace loaded completely
    Unreadable,    ///< the file could not be opened
    BadMagic,      ///< not a DRFTRC01 stream at all
    FutureVersion, ///< well-formed header, but a version newer than this
                   ///< build writes — upgrade, don't re-record
    Corrupt,       ///< truncation or out-of-range field
};

/** Human-readable status name. */
const char *traceLoadStatusName(TraceLoadStatus status);

/**
 * Deserialize a trace from @p is into @p trace, reporting *why* a load
 * failed. On FutureVersion, @p found_version (when non-null) receives
 * the version the stream declared, so tools can tell the user exactly
 * which newer format they hit.
 */
TraceLoadStatus loadTraceStatus(std::istream &is, ReproTrace &trace,
                                std::uint32_t *found_version = nullptr);

/** loadTraceStatus from a file path. */
TraceLoadStatus loadTraceFileStatus(const std::string &path,
                                    ReproTrace &trace,
                                    std::uint32_t *found_version = nullptr);

} // namespace drf

#endif // DRF_TRACE_TRACE_FILE_HH
