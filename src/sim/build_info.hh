/**
 * @file
 * Build provenance for machine-readable outputs.
 *
 * The committed bench JSON records (BENCH_msg_path.json,
 * BENCH_hotpath.json, ...) are only comparable when they come from like
 * builds; recording the git revision and CMake build type alongside
 * cpu_model lets a reader of a stale record see exactly what produced
 * the numbers. The values are injected at configure time by the root
 * CMakeLists; a build outside CMake gets "unknown".
 */

#ifndef DRF_SIM_BUILD_INFO_HH
#define DRF_SIM_BUILD_INFO_HH

namespace drf
{

#ifndef DRF_GIT_SHA
#define DRF_GIT_SHA "unknown"
#endif
#ifndef DRF_BUILD_TYPE
#define DRF_BUILD_TYPE "unknown"
#endif

/** Abbreviated git revision of the source tree ("unknown" if absent). */
inline const char *buildGitSha() { return DRF_GIT_SHA; }

/** CMake build type the binary was compiled with. */
inline const char *buildType() { return DRF_BUILD_TYPE; }

} // namespace drf

#endif // DRF_SIM_BUILD_INFO_HH
