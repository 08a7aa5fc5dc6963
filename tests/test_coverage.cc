/**
 * @file
 * Unit tests for the transition-coverage instrumentation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "coverage/coverage.hh"
#include "golden_digest.hh"
#include "proto/cpu_cache.hh"
#include "proto/directory.hh"
#include "proto/gpu_l1.hh"
#include "proto/gpu_l2.hh"

using namespace drf;

namespace
{

TransitionSpec
makeSpec()
{
    TransitionSpec spec("Toy", {"I", "V"}, {"Load", "Store", "Probe"});
    spec.define(0, 0); // Load x I
    spec.define(0, 1); // Load x V
    spec.define(1, 1); // Store x V
    spec.define(2, 1); // Probe x V
    spec.markImpossible("solo", 2, 1); // Probe unreachable when alone
    return spec;
}

} // namespace

TEST(TransitionSpec, Counts)
{
    TransitionSpec spec = makeSpec();
    EXPECT_EQ(spec.numStates(), 2u);
    EXPECT_EQ(spec.numEvents(), 3u);
    EXPECT_EQ(spec.numCells(), 6u);
    EXPECT_EQ(spec.definedCount(), 4u);
    EXPECT_EQ(spec.impossibleCount("solo"), 1u);
    EXPECT_EQ(spec.impossibleCount("other"), 0u);
    EXPECT_EQ(spec.reachableCount("solo"), 3u);
    EXPECT_EQ(spec.reachableCount(""), 4u);
}

TEST(TransitionSpec, DefinedLookup)
{
    TransitionSpec spec = makeSpec();
    EXPECT_TRUE(spec.defined(0, 0));
    EXPECT_FALSE(spec.defined(1, 0)); // Store x I undefined
    EXPECT_FALSE(spec.defined(2, 0));
}

TEST(TransitionSpec, NameLookups)
{
    TransitionSpec spec = makeSpec();
    EXPECT_EQ(spec.stateIndex("V"), 1u);
    EXPECT_EQ(spec.eventIndex("Probe"), 2u);
}

TEST(CoverageGrid, HitCountsAndTotal)
{
    TransitionSpec spec = makeSpec();
    CoverageGrid grid(spec);
    grid.hit(0, 0);
    grid.hit(0, 0);
    grid.hit(1, 1);
    EXPECT_EQ(grid.count(0, 0), 2u);
    EXPECT_EQ(grid.count(1, 1), 1u);
    EXPECT_EQ(grid.count(0, 1), 0u);
    EXPECT_EQ(grid.totalHits(), 3u);
}

TEST(CoverageGrid, Classification)
{
    TransitionSpec spec = makeSpec();
    CoverageGrid grid(spec);
    grid.hit(0, 0);
    EXPECT_EQ(grid.classify(0, 0), CellClass::Active);
    EXPECT_EQ(grid.classify(0, 1), CellClass::Inact);
    EXPECT_EQ(grid.classify(1, 0), CellClass::Undef);
    EXPECT_EQ(grid.classify(2, 1, "solo"), CellClass::Impsb);
    EXPECT_EQ(grid.classify(2, 1, ""), CellClass::Inact);
}

TEST(CoverageGrid, CoveragePct)
{
    TransitionSpec spec = makeSpec();
    CoverageGrid grid(spec);
    grid.hit(0, 0);
    grid.hit(0, 1);
    grid.hit(1, 1);
    // 3 of 4 defined; with "solo" the probe cell is excluded: 3/3.
    EXPECT_DOUBLE_EQ(grid.coveragePct(""), 75.0);
    EXPECT_DOUBLE_EQ(grid.coveragePct("solo"), 100.0);
}

TEST(CoverageGrid, ImpossibleCellHitStillCounts)
{
    // If traffic does reach a cell marked impossible for another test
    // type, classification without that test type shows it active.
    TransitionSpec spec = makeSpec();
    CoverageGrid grid(spec);
    grid.hit(2, 1);
    EXPECT_EQ(grid.classify(2, 1, ""), CellClass::Active);
    EXPECT_EQ(grid.classify(2, 1, "solo"), CellClass::Impsb);
}

TEST(CoverageGrid, MergeUnions)
{
    TransitionSpec spec = makeSpec();
    CoverageGrid a(spec), b(spec);
    a.hit(0, 0);
    b.hit(1, 1);
    b.hit(0, 0);
    a.merge(b);
    EXPECT_EQ(a.count(0, 0), 2u);
    EXPECT_EQ(a.count(1, 1), 1u);
    EXPECT_EQ(a.activeCount(""), 2u);
    EXPECT_EQ(a.totalHits(), 3u);
}

TEST(CoverageGrid, NewlyCoveredCountsOnlyFreshCells)
{
    TransitionSpec spec = makeSpec();
    CoverageGrid base(spec), incoming(spec);
    base.hit(0, 0);
    incoming.hit(0, 0); // already covered
    incoming.hit(1, 1); // fresh
    incoming.hit(2, 1); // fresh
    EXPECT_EQ(base.newlyCovered(incoming), 2u);
    // Symmetric view: base adds nothing new beyond what incoming has.
    EXPECT_EQ(incoming.newlyCovered(base), 0u);
    // Against an empty grid everything in incoming is new.
    CoverageGrid empty(spec);
    EXPECT_EQ(empty.newlyCovered(incoming), 3u);
    EXPECT_EQ(incoming.newlyCovered(empty), 0u);
}

TEST(CoverageGrid, DiffKeepsOnlyExclusiveCells)
{
    TransitionSpec spec = makeSpec();
    CoverageGrid a(spec), b(spec);
    a.hit(0, 0);
    a.hit(0, 0);
    a.hit(1, 1);
    b.hit(1, 1);
    CoverageGrid d = a.diff(b);
    EXPECT_EQ(d.count(0, 0), 1u); // exclusive to a, recorded as 1 hit
    EXPECT_EQ(d.count(1, 1), 0u); // shared, dropped
    EXPECT_EQ(d.activeCount(""), 1u);
}

TEST(CoverageGrid, ActiveDigestIgnoresHitMagnitudes)
{
    TransitionSpec spec = makeSpec();
    CoverageGrid a(spec), b(spec);
    a.hit(0, 0);
    b.hit(0, 0);
    b.hit(0, 0);
    b.hit(0, 0);
    EXPECT_EQ(a.activeDigest(), b.activeDigest());

    b.hit(1, 1);
    EXPECT_NE(a.activeDigest(), b.activeDigest());

    CoverageGrid empty(spec);
    EXPECT_NE(empty.activeDigest(), a.activeDigest());
}

TEST(CoverageAccumulator, AddReturnsNewlyCoveredCells)
{
    TransitionSpec spec = makeSpec();
    CoverageGrid first(spec), second(spec);
    first.hit(0, 0);
    first.hit(0, 1);
    second.hit(0, 1); // already in the union
    second.hit(1, 1); // fresh

    CoverageAccumulator acc;
    EXPECT_TRUE(acc.empty());
    EXPECT_EQ(acc.add(first), 2u); // adopts the spec, all cells fresh
    EXPECT_EQ(acc.add(second), 1u);
    EXPECT_EQ(acc.add(second), 0u); // nothing new the second time
    EXPECT_EQ(acc.activeCount(""), 3u);
}

TEST(CoverageGrid, Reset)
{
    TransitionSpec spec = makeSpec();
    CoverageGrid grid(spec);
    grid.hit(0, 0);
    grid.reset();
    EXPECT_EQ(grid.totalHits(), 0u);
    EXPECT_EQ(grid.activeCount(""), 0u);
}

TEST(CoverageGrid, RenderHeatMapShowsUndef)
{
    TransitionSpec spec = makeSpec();
    CoverageGrid grid(spec);
    grid.hit(0, 0);
    std::ostringstream os;
    grid.renderHeatMap(os);
    std::string out = os.str();
    EXPECT_NE(out.find("Toy"), std::string::npos);
    EXPECT_NE(out.find('U'), std::string::npos);
    EXPECT_NE(out.find("Load"), std::string::npos);
}

TEST(CoverageGrid, RenderClassMapLettersPresent)
{
    TransitionSpec spec = makeSpec();
    CoverageGrid grid(spec);
    grid.hit(0, 0);
    std::ostringstream os;
    grid.renderClassMap(os, "solo");
    std::string out = os.str();
    EXPECT_NE(out.find('A'), std::string::npos); // active
    EXPECT_NE(out.find('X'), std::string::npos); // impossible
    EXPECT_NE(out.find('U'), std::string::npos); // undefined
}

TEST(CellClassNames, Stable)
{
    EXPECT_STREQ(cellClassName(CellClass::Undef), "Undef");
    EXPECT_STREQ(cellClassName(CellClass::Inact), "Inact");
    EXPECT_STREQ(cellClassName(CellClass::Active), "Active");
    EXPECT_STREQ(cellClassName(CellClass::Impsb), "Impsb");
}

namespace
{

/**
 * Digest of a spec's shape: its names, which cells are defined, and
 * which are Impsb under each test type the experiments classify by.
 */
std::uint64_t
specDigest(const TransitionSpec &spec)
{
    drf::testing::Digest d;
    d.str(spec.name());
    for (const std::string &s : spec.states())
        d.str(s);
    for (const std::string &e : spec.events())
        d.str(e);
    for (std::size_t ev = 0; ev < spec.numEvents(); ++ev) {
        for (std::size_t st = 0; st < spec.numStates(); ++st)
            d.u64(spec.defined(ev, st) ? 1 : 0);
    }
    for (const char *tt : {"gpu_tester", "gpu_tester_multi", "cpu_tester",
                           "tester_union"}) {
        d.str(tt);
        for (std::size_t ev = 0; ev < spec.numEvents(); ++ev) {
            for (std::size_t st = 0; st < spec.numStates(); ++st)
                d.u64(spec.impossible(tt, ev, st) ? 1 : 0);
        }
    }
    return d.value();
}

} // namespace

TEST(ControllerSpecs, PaperDimensions)
{
    // The reconstructed VIPER tables keep the paper's state and event
    // sets: Table I (7 L1 events x 3 states) and Table II (9 L2 events x
    // 4 states).
    const auto &l1 = GpuL1Cache::spec();
    EXPECT_EQ(l1.numEvents(), 7u);
    EXPECT_EQ(l1.numStates(), 3u);
    EXPECT_EQ(l1.definedCount(), 17u);

    const auto &l2 = GpuL2Cache::spec();
    EXPECT_EQ(l2.numEvents(), 9u);
    EXPECT_EQ(l2.numStates(), 4u);
    // The PrbInv cells exist but are unreachable for the (single-GPU)
    // GPU tester; in a multi-GPU system they all become reachable.
    EXPECT_EQ(l2.impossibleCount("gpu_tester"), 4u);
    EXPECT_EQ(l2.reachableCount("gpu_tester"),
              l2.definedCount() - 4u);
    EXPECT_EQ(l2.impossibleCount("gpu_tester_multi"), 0u);

    // Every controller's spec is pinned whole: its defined-cell count
    // and a digest of the defined cells and the Impsb marks. A table
    // row added, dropped or moved changes one of them.
    struct Pin
    {
        const TransitionSpec &spec;
        std::size_t defined;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {GpuL1Cache::specFor(ProtocolKind::Viper), 17u, 0xfe236818b0c70bf7ull},
        {GpuL1Cache::specFor(ProtocolKind::Lrcc), 30u, 0x771c7c2ee1577885ull},
        {GpuL2Cache::spec(), 24u, 0x372dcb2292d97cfcull},
        {Directory::spec(), 36u, 0x38c713fd0f90f9d0ull},
        {CpuCache::spec(), 29u, 0x0e4fea6d1e792605ull},
    };
    for (const Pin &pin : pins) {
        EXPECT_EQ(pin.spec.definedCount(), pin.defined) << pin.spec.name();
        EXPECT_EQ(specDigest(pin.spec), pin.digest)
            << pin.spec.name() << std::hex << " digest 0x"
            << specDigest(pin.spec);
    }
}
