/**
 * @file
 * Unit tests for the set-associative cache array.
 */

#include <gtest/gtest.h>

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
    EXPECT_TRUE(array.isValid(e));
    EXPECT_EQ(array.lineAddr(e), 0x100u);
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

TEST(CacheArray, SetEntriesReturnsAllWays)
{
    CacheArray array(1024, 4, kLine);
    auto ways = array.setEntries(0x0);
    EXPECT_EQ(ways.size(), 4u);
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
    EXPECT_TRUE(array.lineAddr(v) == 0 ||
                array.lineAddr(v) == static_cast<Addr>(kLine));
}

TEST(CacheArray, LineAlignHelpers)
{
    EXPECT_EQ(lineAlign(0x12345, 64), 0x12340u);
    EXPECT_EQ(lineOffset(0x12345, 64), 0x5u);
    EXPECT_EQ(lineAlign(0x40, 64), 0x40u);
    EXPECT_EQ(lineOffset(0x40, 64), 0x0u);
}

namespace
{

/**
 * Reference model of a set-associative LRU array: one record per way
 * holding its tag and last use, with no separate tag plane.
 */
struct RefArray
{
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lastUsed = 0;
    };

    RefArray(unsigned sets, unsigned assoc)
        : sets(sets), assoc(assoc), ways(sets * assoc)
    {
    }

    unsigned setOf(Addr line) const { return (line / kLine) % sets; }
    Way &way(Addr line, unsigned w) { return ways[setOf(line) * assoc + w]; }

    int
    find(Addr line)
    {
        for (unsigned w = 0; w < assoc; ++w) {
            if (way(line, w).valid && way(line, w).tag == line)
                return static_cast<int>(w);
        }
        return -1;
    }

    int
    freeWay(Addr line)
    {
        for (unsigned w = 0; w < assoc; ++w) {
            if (!way(line, w).valid)
                return static_cast<int>(w);
        }
        return -1;
    }

    int
    lru(Addr line)
    {
        int best = -1;
        for (unsigned w = 0; w < assoc; ++w) {
            const Way &cand = way(line, w);
            if (cand.valid &&
                (best < 0 || cand.lastUsed < way(line, best).lastUsed))
                best = static_cast<int>(w);
        }
        return best;
    }

    unsigned sets, assoc;
    std::vector<Way> ways;
    std::uint64_t clock = 0;
};

} // namespace

TEST(CacheArray, MatchesReferenceModel)
{
    // Random allocate / touch / invalidate / victim-replace /
    // invalidateAll sequences against the reference model. After every
    // step the lookups, free-way and victim choices, validity and the
    // valid-entry walk (in way order) must agree.
    constexpr unsigned kSets = 4, kAssoc = 4, kLines = 40;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        CacheArray array(kSets * kAssoc * kLine, kAssoc, kLine);
        RefArray ref(kSets, kAssoc);
        Random rng(seed);
        auto way_of = [&](Addr line, const CacheEntry &e) {
            return static_cast<int>(&e - array.setWays(line));
        };
        for (int step = 0; step < 600; ++step) {
            Addr line = rng.below(kLines) * kLine;
            unsigned op = static_cast<unsigned>(rng.below(100));
            int hit = ref.find(line);
            CacheEntry *entry = array.findEntry(line);
            ASSERT_EQ(entry != nullptr, hit >= 0) << "step " << step;
            if (entry != nullptr) {
                ASSERT_EQ(way_of(line, *entry), hit);
            }
            ASSERT_EQ(array.hasFreeWay(line), ref.freeWay(line) >= 0);

            if (op < 1) {
                array.invalidateAll();
                for (auto &w : ref.ways)
                    w.valid = false;
            } else if (op < 25 && entry != nullptr) {
                array.invalidate(*entry);
                ref.way(line, hit).valid = false;
            } else if (op < 50 && entry != nullptr) {
                array.touch(*entry);
                ref.way(line, hit).lastUsed = ++ref.clock;
            } else if (entry == nullptr) {
                if (ref.freeWay(line) < 0) {
                    int lru = ref.lru(line);
                    CacheEntry &victim = array.victim(line);
                    ASSERT_EQ(way_of(line, victim), lru);
                    ASSERT_EQ(array.lineAddr(victim),
                              ref.way(line, lru).tag);
                    array.invalidate(victim);
                    ref.way(line, lru).valid = false;
                }
                int w = ref.freeWay(line);
                CacheEntry &fresh = array.allocate(line);
                ASSERT_EQ(way_of(line, fresh), w);
                ASSERT_EQ(fresh.state, 0);
                ASSERT_EQ(fresh.dirty, 0u);
                fresh.dirty = maskBit(step % 64);
                ref.way(line, w) = {true, line, ++ref.clock};
            }

            std::vector<Addr> walked;
            array.forEachValid([&](CacheEntry &e, Addr tag) {
                EXPECT_EQ(array.lineAddr(e), tag);
                EXPECT_TRUE(array.isValid(e));
                walked.push_back(tag);
            });
            std::vector<Addr> expected;
            for (const auto &w : ref.ways) {
                if (w.valid)
                    expected.push_back(w.tag);
            }
            ASSERT_EQ(walked, expected) << "step " << step;
            ASSERT_EQ(array.validCount(), expected.size());
        }
    }
}

TEST(CacheArray, InvalidatedEntryReportsNoLine)
{
    CacheArray array(1024, 2, kLine);
    CacheEntry &e = array.allocate(0x80);
    e.state = 3;
    e.dirty = fullLineMask;
    array.invalidate(e);
    EXPECT_FALSE(array.isValid(e));
    EXPECT_EQ(array.lineAddr(e), invalidAddr);
    EXPECT_EQ(e.state, 0);
    EXPECT_EQ(e.dirty, 0u);
}

TEST(CacheArray, WalkMayInvalidateTheVisitedEntry)
{
    // The flash-invalidate pattern: invalidate each entry as it is
    // visited; every valid line is visited exactly once.
    CacheArray array(1024, 2, kLine);
    for (int i = 0; i < 12; ++i)
        array.allocate(static_cast<Addr>(i) * kLine);
    int visited = 0;
    array.forEachValid([&](CacheEntry &e, Addr) {
        array.invalidate(e);
        ++visited;
    });
    EXPECT_EQ(visited, 12);
    EXPECT_EQ(array.validCount(), 0u);
}

TEST(LineMerge, MergeMaskedMatchesByteLoop)
{
    // mergeMasked against the byte-at-a-time loop it replaced, over
    // random data, masks (dense, sparse and beyond the line) and every
    // legal line size.
    Random rng(77);
    for (unsigned line_bytes = 1; line_bytes <= kLineBytes;
         line_bytes *= 2) {
        for (int trial = 0; trial < 500; ++trial) {
            LineData dst{}, src{};
            for (unsigned i = 0; i < kLineBytes; ++i) {
                dst[i] = static_cast<std::uint8_t>(rng.below(256));
                src[i] = static_cast<std::uint8_t>(rng.below(256));
            }
            ByteMask mask = rng.range(0, ~ByteMask{0});
            if (trial % 3 == 1)
                mask &= rng.range(0, ~ByteMask{0});
            else if (trial % 3 == 2)
                mask = maskBit(static_cast<unsigned>(rng.below(64)));
            LineData expect = dst;
            for (unsigned i = 0; i < line_bytes; ++i) {
                if (maskTest(mask, i))
                    expect[i] = src[i];
            }
            mergeMasked(dst, src, mask, line_bytes);
            ASSERT_EQ(dst, expect) << "line " << line_bytes << " mask "
                                   << std::hex << mask;
        }
    }
    EXPECT_EQ(lineMask(64), fullLineMask);
    EXPECT_EQ(lineMask(32), 0xffffffffu);
    EXPECT_EQ(lineMask(1), 1u);
}

TEST(LineMerge, ByteLanesSpreadsEveryPattern)
{
    for (unsigned bits = 0; bits < 256; ++bits) {
        std::uint64_t expect = 0;
        for (unsigned i = 0; i < 8; ++i) {
            if ((bits >> i) & 1)
                expect |= std::uint64_t{0xff} << (8 * i);
        }
        ASSERT_EQ(byteLanes(bits), expect) << bits;
    }
}
