/**
 * @file
 * Coherence state-transition coverage instrumentation.
 *
 * Every protocol controller owns a CoverageGrid over its (event, state)
 * space and reports each transition it takes. The evaluation classifies
 * cells the way the paper's Fig. 7 does:
 *
 *  - Undef:  no transition is defined from the state via the event; if it
 *            fires anyway the protocol implementation is faulty.
 *  - Active: a defined transition that was observed during testing.
 *  - Inact:  a defined transition never observed.
 *  - Impsb:  a defined transition unreachable for a given test type
 *            (e.g., PrbInv at the GPU L2 when only the GPU tester runs).
 *
 * Coverage = Active / (Defined - Impsb), computed over "reachable"
 * transitions exactly as in Section IV.B.
 */

#ifndef DRF_COVERAGE_COVERAGE_HH
#define DRF_COVERAGE_COVERAGE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace drf
{

/** Classification of one (event, state) cell for reporting. */
enum class CellClass
{
    Undef,
    Inact,
    Active,
    Impsb,
};

/** Printable name of a cell class. */
const char *cellClassName(CellClass c);

/**
 * Static description of a controller's transition space: state names,
 * event names, which cells are defined, and named sets of cells that are
 * unreachable under particular test types.
 */
class TransitionSpec
{
  public:
    TransitionSpec(std::string controller_name,
                   std::vector<std::string> states,
                   std::vector<std::string> events);

    const std::string &name() const { return _name; }
    const std::vector<std::string> &states() const { return _states; }
    const std::vector<std::string> &events() const { return _events; }

    std::size_t numStates() const { return _states.size(); }
    std::size_t numEvents() const { return _events.size(); }
    std::size_t numCells() const { return _states.size() * _events.size(); }

    /** Flat cell index for (event, state). */
    std::size_t
    cell(std::size_t event, std::size_t state) const
    {
        return event * _states.size() + state;
    }

    /** Declare (event, state) as a defined transition. */
    void define(std::size_t event, std::size_t state);

    /** True if the cell has a defined transition. */
    bool defined(std::size_t event, std::size_t state) const;

    /** Total number of defined cells. */
    std::size_t definedCount() const;

    /**
     * Mark (event, state) unreachable under test type @p test_type
     * (e.g. "gpu_tester", "cpu_tester").
     */
    void markImpossible(const std::string &test_type, std::size_t event,
                        std::size_t state);

    /** True if the cell is unreachable under @p test_type. */
    bool impossible(const std::string &test_type, std::size_t event,
                    std::size_t state) const;

    /** Number of impossible cells under @p test_type. */
    std::size_t impossibleCount(const std::string &test_type) const;

    /** Defined minus impossible: the reachable-transition count. */
    std::size_t reachableCount(const std::string &test_type) const;

    /** Look up a state index by name. Asserts on unknown names. */
    std::size_t stateIndex(const std::string &state_name) const;

    /** Look up an event index by name. Asserts on unknown names. */
    std::size_t eventIndex(const std::string &event_name) const;

  private:
    std::string _name;
    std::vector<std::string> _states;
    std::vector<std::string> _events;
    std::vector<bool> _defined;
    std::map<std::string, std::set<std::size_t>> _impossibleSets;
};

/**
 * Hit counts over one controller's transition space.
 */
class CoverageGrid
{
  public:
    explicit CoverageGrid(const TransitionSpec &spec);

    const TransitionSpec &spec() const { return *_spec; }

    /** Record one activation of (event, state). */
    void hit(std::size_t event, std::size_t state);

    /** Hit count of one cell. */
    std::uint64_t count(std::size_t event, std::size_t state) const;

    /**
     * Overwrite one cell's hit count, adjusting totalHits by the delta.
     * Deserialization hook: the campaign journal and the fork-isolation
     * pipe rebuild shard grids cell-by-cell (src/campaign/journal.cc);
     * exact counts — not just the active set — keep resumed aggregates
     * bit-identical to an uninterrupted run.
     */
    void setCount(std::size_t event, std::size_t state,
                  std::uint64_t count);

    /** Total transition activations recorded. */
    std::uint64_t totalHits() const { return _totalHits; }

    /**
     * Merge another grid over the same spec (union coverage).
     *
     * Not internally synchronized: when grids produced by parallel
     * campaign shards are merged, the caller serializes the merges (the
     * campaign runner holds its results mutex; see src/campaign/).
     */
    void merge(const CoverageGrid &other);

    /**
     * Number of cells active in @p other but not (yet) in this grid —
     * the coverage @p other would add if merged. This is the
     * feedback-directed generator's reward primitive (newly covered
     * cells per episode; see src/guidance/).
     */
    std::size_t newlyCovered(const CoverageGrid &other) const;

    /**
     * Set difference of active cells: a grid (over the same spec) with
     * one hit in every cell active in this grid but not in @p other.
     */
    CoverageGrid diff(const CoverageGrid &other) const;

    /**
     * Order-independent digest of the *active cell set* (spec shape +
     * which cells have a nonzero count; hit magnitudes are ignored).
     * Two unions covering the same cells digest identically even when
     * their hit counts differ.
     */
    std::uint64_t activeDigest() const;

    /** Forget all hits. */
    void reset();

    /** Classify one cell under a test type ("" = nothing impossible). */
    CellClass classify(std::size_t event, std::size_t state,
                       const std::string &test_type = "") const;

    /** Number of Active cells under @p test_type. */
    std::size_t activeCount(const std::string &test_type = "") const;

    /**
     * Transition coverage in percent: Active / (Defined - Impsb) * 100.
     */
    double coveragePct(const std::string &test_type = "") const;

    /**
     * Render a Fig. 5-style heat map: rows are events, columns states,
     * shading by log10 of the hit count.
     */
    void renderHeatMap(std::ostream &os) const;

    /**
     * Render a Fig. 7-style classification map using one letter per cell:
     * 'U'ndef, 'A'ctive, '.' inactive, 'X' impossible.
     */
    void renderClassMap(std::ostream &os,
                        const std::string &test_type = "") const;

  private:
    const TransitionSpec *_spec;
    std::vector<std::uint64_t> _counts;
    std::uint64_t _totalHits = 0;
};

/**
 * Incremental union of coverage grids that adopts its spec from the
 * first grid added. This is the one way union coverage is built
 * everywhere — the per-system L1/L2 union helpers, the figure benches,
 * and the campaign runner's cross-shard merge all funnel through it —
 * so "empty grid + merge loop" is written exactly once.
 */
class CoverageAccumulator
{
  public:
    CoverageAccumulator() = default;

    /**
     * Merge @p grid into the union of its spec. Grids over *different*
     * specs (e.g. the VIPER and LRCC variants of the L1 in a
     * mixed-protocol campaign) accumulate into separate per-spec
     * unions, keyed by spec name, so merging never crosses protocol
     * boundaries.
     *
     * @return the number of cells @p grid newly covered — active in it
     *         but not in its spec's union before the merge.
     */
    std::size_t add(const CoverageGrid &grid);

    /** True until the first add(). */
    bool empty() const { return _unions.empty(); }

    /**
     * The primary accumulated union (the first spec seen). @pre
     * !empty(). Single-protocol campaigns — the common case — only ever
     * have this one.
     */
    const CoverageGrid &grid() const;

    /** All per-spec unions, in first-adoption order. */
    const std::vector<CoverageGrid> &grids() const { return _unions; }

    /**
     * Coverage percentage aggregated over every spec union (active
     * cells over reachable cells, summed before dividing); 0 while
     * empty.
     */
    double coveragePct(const std::string &test_type = "") const;

    /** Active-cell count summed over every spec union; 0 while empty. */
    std::size_t activeCount(const std::string &test_type = "") const;

  private:
    std::vector<CoverageGrid> _unions;
};

} // namespace drf

#endif // DRF_COVERAGE_COVERAGE_HH
