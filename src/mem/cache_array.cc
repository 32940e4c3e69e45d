#include "mem/cache_array.hh"

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
    _entries.resize(_numSets * _assoc);
}

int
CacheArray::findWay(Addr line_addr, Addr tag) const
{
    const Addr *tags = &_tags[setBase(line_addr)];
    for (unsigned way = 0; way < _assoc; ++way) {
        if (tags[way] == tag)
            return static_cast<int>(way);
    }
    return -1;
}

CacheEntry *
CacheArray::findEntry(Addr line_addr)
{
    assert(line_addr != invalidAddr);
    int way = findWay(line_addr, line_addr);
    return way < 0 ? nullptr : &_entries[setBase(line_addr) + way];
}

const CacheEntry *
CacheArray::findEntry(Addr line_addr) const
{
    assert(line_addr != invalidAddr);
    int way = findWay(line_addr, line_addr);
    return way < 0 ? nullptr : &_entries[setBase(line_addr) + way];
}

bool
CacheArray::hasFreeWay(Addr line_addr) const
{
    return findWay(line_addr, invalidAddr) >= 0;
}

CacheEntry &
CacheArray::allocate(Addr line_addr)
{
    assert(findEntry(line_addr) == nullptr);
    int way = findWay(line_addr, invalidAddr);
    assert(way >= 0 && "allocate called with no free way");
    std::size_t idx = setBase(line_addr) + way;
    _tags[idx] = line_addr;
    CacheEntry &entry = _entries[idx];
    entry.state = 0;
    entry.data.fill(0);
    entry.dirty = 0;
    touch(entry);
    return entry;
}

CacheEntry &
CacheArray::victim(Addr line_addr)
{
    std::size_t base = setBase(line_addr);
    CacheEntry *lru = nullptr;
    for (unsigned way = 0; way < _assoc; ++way) {
        if (_tags[base + way] == invalidAddr)
            continue;
        CacheEntry &entry = _entries[base + way];
        if (lru == nullptr || entry.lastUsed < lru->lastUsed)
            lru = &entry;
    }
    assert(lru != nullptr && "victim requested from an empty set");
    return *lru;
}

void
CacheArray::invalidate(CacheEntry &entry)
{
    _tags[wayIndex(entry)] = invalidAddr;
    entry.state = 0;
    entry.clearDirty();
}

void
CacheArray::invalidateAll()
{
    forEachValid([this](CacheEntry &entry, Addr) { invalidate(entry); });
}

std::vector<CacheEntry *>
CacheArray::setEntries(Addr line_addr)
{
    std::vector<CacheEntry *> ways;
    CacheEntry *base = setWays(line_addr);
    ways.reserve(_assoc);
    for (unsigned way = 0; way < _assoc; ++way)
        ways.push_back(&base[way]);
    return ways;
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
