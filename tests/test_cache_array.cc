/**
 * @file
 * Unit tests for the set-associative cache array.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/cache_array.hh"
#include "sim/random.hh"

using namespace drf;

namespace
{

constexpr unsigned kLine = 64;

} // namespace

TEST(CacheArray, Geometry)
{
    CacheArray array(1024, 2, kLine); // 8 sets x 2 ways
    EXPECT_EQ(array.numSets(), 8u);
    EXPECT_EQ(array.assoc(), 2u);
    EXPECT_EQ(array.lineBytes(), kLine);
    EXPECT_EQ(array.capacity(), 1024u);
    EXPECT_EQ(array.validCount(), 0u);
}

TEST(CacheArray, AllocateAndFind)
{
    CacheArray array(1024, 2, kLine);
    EXPECT_EQ(array.findEntry(0x100), nullptr);
    CacheEntry &e = array.allocate(0x100);
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.lineAddr, 0x100u);
    EXPECT_EQ(e.data.size(), kLineBytes);
    EXPECT_EQ(array.findEntry(0x100), &e);
    EXPECT_EQ(array.validCount(), 1u);
}

TEST(CacheArray, AllocateZeroesDataAndDirty)
{
    CacheArray array(1024, 2, kLine);
    CacheEntry &e = array.allocate(0x40);
    e.data[3] = 0xAB;
    e.dirty |= maskBit(3);
    array.invalidate(e);
    CacheEntry &e2 = array.allocate(0x40);
    EXPECT_EQ(e2.data[3], 0);
    EXPECT_FALSE(maskTest(e2.dirty, 3));
}

TEST(CacheArray, SetConflictsFillWays)
{
    CacheArray array(1024, 2, kLine); // 8 sets
    // Same set: line addresses 8*64 apart.
    Addr a = 0, b = 8 * kLine, c = 16 * kLine;
    EXPECT_TRUE(array.hasFreeWay(a));
    array.allocate(a);
    EXPECT_TRUE(array.hasFreeWay(b));
    array.allocate(b);
    EXPECT_FALSE(array.hasFreeWay(c));
}

TEST(CacheArray, VictimIsLru)
{
    CacheArray array(1024, 2, kLine);
    Addr a = 0, b = 8 * kLine;
    CacheEntry &ea = array.allocate(a);
    CacheEntry &eb = array.allocate(b);
    array.touch(ea); // a is now more recent than b
    EXPECT_EQ(&array.victim(a), &eb);
    array.touch(eb);
    EXPECT_EQ(&array.victim(a), &ea);
}

TEST(CacheArray, InvalidateFreesWay)
{
    CacheArray array(1024, 2, kLine);
    Addr a = 0, b = 8 * kLine;
    array.allocate(a);
    CacheEntry &eb = array.allocate(b);
    EXPECT_FALSE(array.hasFreeWay(a));
    array.invalidate(eb);
    EXPECT_TRUE(array.hasFreeWay(a));
    EXPECT_EQ(array.findEntry(b), nullptr);
}

TEST(CacheArray, InvalidateAll)
{
    CacheArray array(1024, 2, kLine);
    for (int i = 0; i < 8; ++i)
        array.allocate(static_cast<Addr>(i) * kLine);
    EXPECT_EQ(array.validCount(), 8u);
    array.invalidateAll();
    EXPECT_EQ(array.validCount(), 0u);
}

TEST(CacheArray, DifferentSetsDontConflict)
{
    CacheArray array(1024, 2, kLine);
    for (int i = 0; i < 8; ++i) {
        array.allocate(static_cast<Addr>(i) * kLine);
        EXPECT_NE(array.findEntry(static_cast<Addr>(i) * kLine), nullptr);
    }
    EXPECT_EQ(array.validCount(), 8u);
}

// CacheArray against a flat reference model: one record per way, all
// of them present from construction, scanned in (set, way) order --
// the eager layout the array replaced. Random allocate / touch /
// invalidate / victim sequences must agree on every observable: which
// lines are resident, the victim, the (set, way) order of
// forEachEntry and setEntries, and that a resident line's entry never
// moves.
namespace
{

class RefArray
{
  public:
    RefArray(std::uint64_t sets, unsigned assoc)
        : _sets(sets), _assoc(assoc), _ways(sets * assoc)
    {
    }

    /** Way index holding @p line, or -1. */
    long
    find(Addr line) const
    {
        for (unsigned w = 0; w < _assoc; ++w) {
            const Way &way = _ways[base(line) + w];
            if (way.valid && way.line == line)
                return static_cast<long>(base(line) + w);
        }
        return -1;
    }

    bool
    hasFree(Addr line) const
    {
        for (unsigned w = 0; w < _assoc; ++w) {
            if (!_ways[base(line) + w].valid)
                return true;
        }
        return false;
    }

    void
    allocate(Addr line)
    {
        for (unsigned w = 0; w < _assoc; ++w) {
            Way &way = _ways[base(line) + w];
            if (!way.valid) {
                way = {true, line, ++_clock};
                return;
            }
        }
        FAIL() << "reference allocate with no free way";
    }

    void touch(Addr line) { _ways[find(line)].used = ++_clock; }
    void invalidate(Addr line) { _ways[find(line)].valid = false; }

    Addr
    victim(Addr line) const
    {
        const Way *lru = nullptr;
        for (unsigned w = 0; w < _assoc; ++w) {
            const Way &way = _ways[base(line) + w];
            if (way.valid && (lru == nullptr || way.used < lru->used))
                lru = &way;
        }
        return lru->line;
    }

    /** Resident lines in (set, way) order, optionally of one set. */
    std::vector<Addr>
    resident(long only_set = -1) const
    {
        std::vector<Addr> lines;
        for (std::size_t i = 0; i < _ways.size(); ++i) {
            if (only_set >= 0 && i / _assoc != std::size_t(only_set))
                continue;
            if (_ways[i].valid)
                lines.push_back(_ways[i].line);
        }
        return lines;
    }

    long setOf(Addr line) const { return long(base(line) / _assoc); }

  private:
    struct Way
    {
        bool valid = false;
        Addr line = 0;
        std::uint64_t used = 0;
    };

    std::size_t
    base(Addr line) const
    {
        return ((line / kLine) & (_sets - 1)) * _assoc;
    }

    std::uint64_t _sets;
    unsigned _assoc;
    std::vector<Way> _ways;
    std::uint64_t _clock = 0;
};

void
runDifferential(std::uint64_t size_bytes, unsigned assoc,
                unsigned distinct_lines, std::uint64_t seed)
{
    CacheArray array(size_bytes, assoc, kLine);
    RefArray ref(array.numSets(), assoc);
    std::map<Addr, CacheEntry *> home; // resident line -> its entry
    Random rng(seed);

    for (int step = 0; step < 20000; ++step) {
        const Addr line = rng.below(distinct_lines) * kLine;
        CacheEntry *entry = array.findEntry(line);
        ASSERT_EQ(entry != nullptr, ref.find(line) >= 0) << step;
        ASSERT_EQ(array.hasFreeWay(line), ref.hasFree(line)) << step;
        if (entry != nullptr) {
            ASSERT_EQ(entry, home.at(line)) << "entry moved, step " << step;
            ASSERT_TRUE(entry->valid);
            ASSERT_EQ(entry->lineAddr, line);
            if (rng.below(3) == 0) {
                array.invalidate(*entry);
                ref.invalidate(line);
                home.erase(line);
            } else {
                array.touch(*entry);
                ref.touch(line);
            }
        } else {
            if (!ref.hasFree(line)) {
                CacheEntry &v = array.victim(line);
                ASSERT_EQ(v.lineAddr, ref.victim(line)) << step;
                ref.invalidate(v.lineAddr);
                home.erase(v.lineAddr);
                array.invalidate(v);
            }
            CacheEntry &fresh = array.allocate(line);
            ref.allocate(line);
            home[line] = &fresh;
            ASSERT_EQ(fresh.data, LineData{});
            ASSERT_EQ(fresh.dirty, 0u);
            fresh.data[0] = 0x5A; // the next allocate must zero it
            fresh.dirty = 1;
        }

        std::vector<Addr> in_set;
        for (const CacheEntry *e : array.setEntries(line))
            in_set.push_back(e->lineAddr);
        ASSERT_EQ(in_set, ref.resident(ref.setOf(line))) << step;
        if (step % 64 == 0) {
            std::vector<Addr> walk;
            array.forEachEntry(
                [&](CacheEntry &e) { walk.push_back(e.lineAddr); });
            ASSERT_EQ(walk, ref.resident()) << step;
            ASSERT_EQ(array.validCount(), walk.size());
        }
    }
}

} // namespace

TEST(CacheArray, DifferentialSmallTwoWay)
{
    // 8 sets x 2 ways over 40 lines: constant conflict misses.
    runDifferential(1024, 2, 40, 1);
}

TEST(CacheArray, DifferentialLargeSixteenWay)
{
    // 256 sets x 16 ways over 8192 lines: sets fill, then evict.
    runDifferential(256 * 1024, 16, 8192, 2);
}

TEST(CacheArray, TinyCacheOneSet)
{
    CacheArray array(128, 2, kLine); // 1 set x 2 ways
    EXPECT_EQ(array.numSets(), 1u);
    array.allocate(0);
    array.allocate(kLine);
    EXPECT_FALSE(array.hasFreeWay(5 * kLine));
    // Victim must be one of the two allocated lines.
    CacheEntry &v = array.victim(5 * kLine);
    EXPECT_TRUE(v.lineAddr == 0 ||
                v.lineAddr == static_cast<Addr>(kLine));
}

TEST(CacheArray, LineAlignHelpers)
{
    EXPECT_EQ(lineAlign(0x12345, 64), 0x12340u);
    EXPECT_EQ(lineOffset(0x12345, 64), 0x5u);
    EXPECT_EQ(lineAlign(0x40, 64), 0x40u);
    EXPECT_EQ(lineOffset(0x40, 64), 0x0u);
}
