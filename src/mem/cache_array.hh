/**
 * @file
 * Set-associative cache data array with LRU replacement and per-byte
 * dirty masks (VIPER performs stores immediately using per-byte masks).
 *
 * The array is protocol-agnostic: controllers store their coherence state
 * in each entry's integer @c state field and interpret it themselves.
 *
 * Tags live apart from the entries, in one contiguous plane with a line
 * address per way (invalidAddr when the way is free). The plane is the
 * only record of which line a way holds and whether it is valid, so a
 * lookup compares a set's tags within one or two host cache lines
 * instead of striding over whole entries, and the whole-array walks
 * (flash invalidation, dirty writeback) skip free ways without touching
 * their entries.
 */

#ifndef DRF_MEM_CACHE_ARRAY_HH
#define DRF_MEM_CACHE_ARRAY_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/line.hh"
#include "sim/types.hh"

namespace drf
{

/**
 * One cache line's payload: controller-defined state, data, dirty mask.
 * Its tag and validity are the owning CacheArray's (lineAddr(),
 * isValid()).
 */
struct CacheEntry
{
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
    CacheEntry *findEntry(Addr line_addr);
    const CacheEntry *findEntry(Addr line_addr) const;

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

    /** Line held by @p entry, or invalidAddr if its way is free. */
    Addr lineAddr(const CacheEntry &entry) const
    {
        return _tags[wayIndex(entry)];
    }

    /** True if @p entry's way holds a line. */
    bool isValid(const CacheEntry &entry) const
    {
        return lineAddr(entry) != invalidAddr;
    }

    /**
     * Call @p fn(entry, line_addr) for every valid entry, in way order
     * (set 0 way 0 first). @p fn may invalidate the entry it is given,
     * but must not allocate.
     */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (std::size_t i = 0; i < _tags.size(); ++i) {
            if (_tags[i] != invalidAddr)
                fn(_entries[i], _tags[i]);
        }
    }

    /** Record a use of @p entry for LRU bookkeeping. */
    void touch(CacheEntry &entry) { entry.lastUsed = ++_useClock; }

    /** Number of currently valid entries. */
    std::uint64_t validCount() const;

    /**
     * Pointers to every way of @p line_addr's set, for controllers that
     * need custom victim policies (e.g. skipping lines with MSHRs).
     */
    std::vector<CacheEntry *> setEntries(Addr line_addr);

    /**
     * First way of @p line_addr's set. The set's @c assoc() ways are
     * contiguous, so hot paths can walk them without the vector that
     * setEntries() builds.
     */
    CacheEntry *setWays(Addr line_addr)
    {
        return &_entries[setBase(line_addr)];
    }
    const CacheEntry *setWays(Addr line_addr) const
    {
        return &_entries[setBase(line_addr)];
    }

    /** Tags of @p line_addr's set, parallel to setWays(). */
    const Addr *setTags(Addr line_addr) const
    {
        return &_tags[setBase(line_addr)];
    }

  private:
    /** Index of the first way of @p line_addr's set. */
    std::size_t setBase(Addr line_addr) const
    {
        return ((line_addr / _lineBytes) & (_numSets - 1)) * _assoc;
    }

    std::size_t wayIndex(const CacheEntry &entry) const
    {
        assert(&entry >= _entries.data() &&
               &entry < _entries.data() + _entries.size());
        return static_cast<std::size_t>(&entry - _entries.data());
    }

    /** Way of @p line_addr's set holding @p tag, or -1. */
    int findWay(Addr line_addr, Addr tag) const;

    unsigned _assoc;
    unsigned _lineBytes;
    std::uint64_t _numSets;
    std::uint64_t _useClock = 0;
    std::vector<Addr> _tags;          ///< per way; invalidAddr = free
    std::vector<CacheEntry> _entries; ///< per way, parallel to _tags
};

} // namespace drf

#endif // DRF_MEM_CACHE_ARRAY_HH
