#include "mem/cache_array.hh"

#include <algorithm>
#include <cassert>

namespace drf
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * Entries per pool chunk: 64 x 104 B, so a cache that makes few lines
 * resident allocates few entries.
 */
constexpr std::size_t kChunkEntries = 64;

} // namespace

CacheArray::CacheArray(std::uint64_t size_bytes, unsigned assoc,
                       unsigned line_bytes)
    : _assoc(assoc), _lineBytes(line_bytes)
{
    assert(isPow2(line_bytes));
    assert(line_bytes <= kLineBytes);
    assert(assoc > 0);
    assert(size_bytes >= static_cast<std::uint64_t>(assoc) * line_bytes);
    _numSets = size_bytes / (static_cast<std::uint64_t>(assoc) *
                             line_bytes);
    assert(isPow2(_numSets));
    _tags.assign(_numSets * _assoc, invalidAddr);
    _ways.assign(_numSets * _assoc, nullptr);
    _chunkSize = std::min<std::size_t>(_tags.size(), kChunkEntries);
    _chunkUsed = _chunkSize;
}

std::size_t
CacheArray::setBase(Addr line_addr) const
{
    return ((line_addr / _lineBytes) & (_numSets - 1)) * _assoc;
}

CacheEntry &
CacheArray::wayEntry(std::size_t idx)
{
    if (_ways[idx] == nullptr) {
        if (_chunkUsed == _chunkSize) {
            _chunks.push_back(std::make_unique<CacheEntry[]>(_chunkSize));
            _chunkUsed = 0;
        }
        _ways[idx] = &_chunks.back()[_chunkUsed++];
    }
    return *_ways[idx];
}

CacheEntry *
CacheArray::lookup(Addr line_addr) const
{
    const std::size_t base = setBase(line_addr);
    for (std::size_t i = base; i < base + _assoc; ++i) {
        if (_tags[i] == line_addr)
            return _ways[i];
    }
    return nullptr;
}

bool
CacheArray::hasFreeWay(Addr line_addr) const
{
    const std::size_t base = setBase(line_addr);
    for (std::size_t i = base; i < base + _assoc; ++i) {
        if (_tags[i] == invalidAddr)
            return true;
    }
    return false;
}

CacheEntry &
CacheArray::allocate(Addr line_addr)
{
    assert(line_addr != invalidAddr);
    assert(findEntry(line_addr) == nullptr);
    const std::size_t base = setBase(line_addr);
    for (std::size_t i = base; i < base + _assoc; ++i) {
        if (_tags[i] != invalidAddr)
            continue;
        _tags[i] = line_addr;
        CacheEntry &entry = wayEntry(i);
        entry.valid = true;
        entry.lineAddr = line_addr;
        entry.state = 0;
        entry.data.fill(0);
        entry.dirty = 0;
        touch(entry);
        return entry;
    }
    assert(false && "allocate called with no free way");
    return wayEntry(base);
}

CacheEntry &
CacheArray::victim(Addr line_addr)
{
    const std::size_t base = setBase(line_addr);
    CacheEntry *lru = nullptr;
    for (std::size_t i = base; i < base + _assoc; ++i) {
        if (_tags[i] == invalidAddr)
            continue;
        if (lru == nullptr || _ways[i]->lastUsed < lru->lastUsed)
            lru = _ways[i];
    }
    assert(lru != nullptr && "victim requested from an empty set");
    return *lru;
}

void
CacheArray::invalidate(CacheEntry &entry)
{
    if (entry.valid) {
        const std::size_t base = setBase(entry.lineAddr);
        for (std::size_t i = base; i < base + _assoc; ++i) {
            if (_tags[i] == entry.lineAddr) {
                assert(_ways[i] == &entry);
                _tags[i] = invalidAddr;
                break;
            }
        }
    }
    entry.valid = false;
    entry.lineAddr = invalidAddr;
    entry.state = 0;
    entry.clearDirty();
}

void
CacheArray::invalidateAll()
{
    forEachEntry([this](CacheEntry &entry) { invalidate(entry); });
}

std::vector<CacheEntry *>
CacheArray::setEntries(Addr line_addr)
{
    std::vector<CacheEntry *> entries;
    const std::size_t base = setBase(line_addr);
    for (std::size_t i = base; i < base + _assoc; ++i) {
        if (_tags[i] != invalidAddr)
            entries.push_back(_ways[i]);
    }
    return entries;
}

std::uint64_t
CacheArray::validCount() const
{
    std::uint64_t count = 0;
    for (Addr tag : _tags)
        count += tag != invalidAddr ? 1 : 0;
    return count;
}

} // namespace drf
