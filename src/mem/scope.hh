/**
 * @file
 * Synchronization scopes for scoped weak-memory testing.
 *
 * GPU memory models scope acquire/release operations to a thread
 * hierarchy level: a CTA-scope release only promises visibility to the
 * releasing workgroup (whose coherence point is the CU-local L1), while
 * a GPU-scope release makes prior stores visible device-wide (the L1
 * must drain write-throughs / write back ownership before the release
 * completes). `None` means "unscoped" and carries the conservative
 * device-wide semantics — it is the value every pre-scope packet and
 * episode carries, so default-configured runs are bit-identical to the
 * unscoped implementation.
 */

#ifndef DRF_MEM_SCOPE_HH
#define DRF_MEM_SCOPE_HH

#include <cstdint>
#include <optional>
#include <string>

namespace drf
{

/** Synchronization scope of an acquire/release operation. */
enum class Scope : std::uint8_t
{
    None = 0,  ///< unscoped: conservative GPU-wide semantics
    Cta,       ///< workgroup scope: the CU-local L1 is the sync point
    Gpu,       ///< device scope: visible to every CU
};

inline constexpr std::uint32_t scopeCount = 3;

/** Printable scope name ("none" / "cta" / "gpu"). */
const char *scopeName(Scope s);

/**
 * How the tester assigns scopes to episodes.
 *
 *  - None:   no scope draws at all; every episode is unscoped. This is
 *            the default and reproduces pre-scope behavior exactly
 *            (zero extra RNG draws, so golden digests are preserved).
 *  - Scoped: each episode draws CTA or GPU scope, and generation obeys
 *            the scoped-DRF discipline: a CTA-scoped episode only
 *            touches variables whose visibility is already established
 *            for its CU, so a correct protocol must still pass.
 *  - Racy:   each episode draws a scope but the discipline is off —
 *            CTA-scoped synchronization is deliberately insufficient
 *            for the sharing that occurs. A correct scoped protocol
 *            *should* fail these runs with ScopeViolation; this is the
 *            negative arm (the scope analog of fault injection).
 */
enum class ScopeMode : std::uint8_t
{
    None = 0,
    Scoped,
    Racy,
};

inline constexpr std::uint32_t scopeModeCount = 3;

/** Printable mode name ("none" / "scoped" / "racy"). */
const char *scopeModeName(ScopeMode m);

/** Parse a scope-mode name; nullopt on unknown names. */
std::optional<ScopeMode> parseScopeMode(const std::string &name);

} // namespace drf

#endif // DRF_MEM_SCOPE_HH
