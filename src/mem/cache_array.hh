/**
 * @file
 * Set-associative cache data array with LRU replacement and per-byte
 * dirty masks (VIPER performs stores immediately using per-byte masks).
 *
 * The array is protocol-agnostic: controllers store their coherence state
 * in each entry's integer @c state field and interpret it themselves.
 *
 * Storage is sized by the lines a run makes resident, not by capacity.
 * A contiguous per-way tag array (invalidAddr marks a free way) is what
 * lookups and free-way checks scan. A way's CacheEntry is created on
 * the way's first allocate(), in a chunked pool, and keeps its address
 * for the array's lifetime: an invalidated way keeps its entry for the
 * next line it holds. A Large 8-CU system has ~49K ways (~5 MB of
 * entries), yet a tester run over a 16 KiB range makes at most 256
 * lines resident per cache, so each cache creates at most that many.
 */

#ifndef DRF_MEM_CACHE_ARRAY_HH
#define DRF_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/line.hh"
#include "sim/types.hh"

namespace drf
{

/** One cache line: tag, controller-defined state, data, dirty mask. */
struct CacheEntry
{
    bool valid = false;
    Addr lineAddr = invalidAddr;
    int state = 0;
    LineData data{};
    ByteMask dirty = 0;         ///< per-byte dirty bitmask
    std::uint64_t lastUsed = 0; ///< LRU timestamp

    /** Mark every byte clean. */
    void clearDirty() { dirty = 0; }
};

/**
 * Parametric set-associative array.
 */
class CacheArray
{
  public:
    /**
     * @param size_bytes Total capacity.
     * @param assoc      Associativity (ways per set).
     * @param line_bytes Line size (power of two).
     */
    CacheArray(std::uint64_t size_bytes, unsigned assoc,
               unsigned line_bytes);

    unsigned lineBytes() const { return _lineBytes; }
    unsigned assoc() const { return _assoc; }
    std::uint64_t numSets() const { return _numSets; }
    std::uint64_t capacity() const
    {
        return _numSets * _assoc * _lineBytes;
    }

    /** Find the entry holding @p line_addr, or nullptr on a miss. */
    CacheEntry *findEntry(Addr line_addr) { return lookup(line_addr); }
    const CacheEntry *findEntry(Addr line_addr) const
    {
        return lookup(line_addr);
    }

    /** True if the set for @p line_addr has an invalid (free) way. */
    bool hasFreeWay(Addr line_addr) const;

    /**
     * Allocate an entry for @p line_addr in a free way.
     *
     * @pre hasFreeWay(line_addr) and no existing entry for the line.
     * @return the freshly initialized entry (valid, zeroed data/dirty).
     */
    CacheEntry &allocate(Addr line_addr);

    /**
     * The least-recently-used valid entry in @p line_addr's set — the
     * replacement victim when the set is full.
     *
     * @pre the set has at least one valid entry.
     */
    CacheEntry &victim(Addr line_addr);

    /** Invalidate one entry. */
    void invalidate(CacheEntry &entry);

    /** Invalidate every valid line (VIPER acquire flash-invalidation). */
    void invalidateAll();

    /** Record a use of @p entry for LRU bookkeeping. */
    void touch(CacheEntry &entry) { entry.lastUsed = ++_useClock; }

    /** Number of currently valid entries. */
    std::uint64_t validCount() const;

    /**
     * Call @p fn(CacheEntry &) for every valid entry, in (set, way)
     * order. Validity is read as the walk reaches each way, so @p fn
     * may invalidate the entry it is given.
     */
    template <typename Fn>
    void
    forEachEntry(Fn &&fn)
    {
        for (std::size_t i = 0; i < _tags.size(); ++i) {
            if (_tags[i] != invalidAddr)
                fn(*_ways[i]);
        }
    }

    /**
     * The valid entries of @p line_addr's set, in way order, for
     * controllers that need custom victim policies (e.g. skipping
     * lines with MSHRs).
     */
    std::vector<CacheEntry *> setEntries(Addr line_addr);

  private:
    /** Index of the first way of @p line_addr's set. */
    std::size_t setBase(Addr line_addr) const;

    /** The entry holding @p line_addr, or nullptr. */
    CacheEntry *lookup(Addr line_addr) const;

    /** The entry of way @p idx, created on first use. */
    CacheEntry &wayEntry(std::size_t idx);

    unsigned _assoc;
    unsigned _lineBytes;
    std::uint64_t _numSets;
    std::uint64_t _useClock = 0;
    std::vector<Addr> _tags;        ///< per way; invalidAddr = free
    std::vector<CacheEntry *> _ways; ///< per way; null until first use
    std::vector<std::unique_ptr<CacheEntry[]>> _chunks;
    std::size_t _chunkSize = 0; ///< entries per chunk
    std::size_t _chunkUsed = 0; ///< entries taken from the last chunk
};

} // namespace drf

#endif // DRF_MEM_CACHE_ARRAY_HH
