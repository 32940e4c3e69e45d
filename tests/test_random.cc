/**
 * @file
 * Unit tests for the deterministic random source.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/random.hh"

using namespace drf;

TEST(Random, SameSeedSameSequence)
{
    Random a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.range(0, 1'000'000), b.range(0, 1'000'000));
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 32 && !any_diff; ++i)
        any_diff = a.below(1u << 30) != b.below(1u << 30);
    EXPECT_TRUE(any_diff);
}

TEST(Random, RangeInclusiveBounds)
{
    Random rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u); // all of 3,4,5 appear
}

TEST(Random, RangeDegenerate)
{
    Random rng(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.range(42, 42), 42u);
}

TEST(Random, BelowBounds)
{
    Random rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Random, PctExtremes)
{
    Random rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.pct(0));
        EXPECT_TRUE(rng.pct(100));
    }
}

TEST(Random, PctRoughlyCalibrated)
{
    Random rng(13);
    int hits = 0;
    for (int i = 0; i < 10'000; ++i)
        hits += rng.pct(25) ? 1 : 0;
    EXPECT_GT(hits, 2000);
    EXPECT_LT(hits, 3000);
}

TEST(Random, RealInUnitInterval)
{
    Random rng(17);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Random, ChoicePicksFromVector)
{
    Random rng(19);
    std::vector<int> v{10, 20, 30};
    std::set<int> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(rng.choice(v));
    EXPECT_EQ(seen, (std::set<int>{10, 20, 30}));
}

TEST(Random, ShuffleIsPermutation)
{
    Random rng(21);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Random, ForkIndependent)
{
    Random a(23);
    Random child = a.fork();
    // The fork must not replay the parent's stream.
    Random b(23);
    b.fork();
    // Parent streams stay in lockstep after forking at the same point.
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(a.below(1u << 20), b.below(1u << 20));
    (void)child;
}

// ----- exactness against std::mt19937_64 ---------------------------------
//
// Random's engine must reproduce std::mt19937_64's stream bit for bit:
// every golden digest depends on it. The oracle below is the standard
// engine driven through the same distributions.

namespace
{

/** The helpers of Random, written over std::mt19937_64. */
struct StdOracle
{
    explicit StdOracle(std::uint64_t seed) : eng(seed) {}

    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(eng);
    }

    std::uint64_t below(std::uint64_t n) { return range(0, n - 1); }
    bool pct(unsigned percent) { return range(0, 99) < percent; }

    double
    real()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(eng);
    }

    std::mt19937_64 eng;
};

/** Seeds 0, 1, 2^64-1 and a few drawn from a fixed stream. */
std::vector<std::uint64_t>
oracleSeeds()
{
    std::vector<std::uint64_t> seeds{0, 1, ~std::uint64_t{0}};
    std::mt19937_64 pick(20190101);
    for (int i = 0; i < 5; ++i)
        seeds.push_back(pick());
    return seeds;
}

// 312 words per block: 4 blocks cross three refills.
constexpr int kDrawsPastThreeRefills = 4 * 312 + 7;

} // namespace

TEST(RandomExact, EngineMatchesStdMt19937_64)
{
    for (std::uint64_t seed : oracleSeeds()) {
        std::mt19937_64 oracle(seed);
        Mt19937_64 engine(seed);
        for (int i = 0; i < kDrawsPastThreeRefills; ++i)
            ASSERT_EQ(engine(), oracle()) << "seed " << seed << " draw " << i;
    }
}

TEST(RandomExact, StandardTenThousandthDraw)
{
    // The C++ standard's conformance value for default-seeded
    // std::mt19937_64 ([rand.predef]).
    Mt19937_64 engine(5489u);
    std::uint64_t v = 0;
    for (int i = 0; i < 10000; ++i)
        v = engine();
    EXPECT_EQ(v, 9981545732273789042ULL);
}

TEST(RandomExact, HelpersMatchStdDistributions)
{
    for (std::uint64_t seed : oracleSeeds()) {
        Random rng(seed);
        StdOracle oracle(seed);
        for (int i = 0; i < kDrawsPastThreeRefills; ++i) {
            switch (i % 5) {
              case 0:
                ASSERT_EQ(rng.range(3, 1'000'003), oracle.range(3, 1'000'003));
                break;
              case 1:
                ASSERT_EQ(rng.below(4096), oracle.below(4096));
                break;
              case 2:
                ASSERT_EQ(rng.pct(40), oracle.pct(40));
                break;
              case 3:
                ASSERT_EQ(rng.real(), oracle.real());
                break;
              default:
                // Full 64-bit range: one raw draw, no rejection.
                ASSERT_EQ(rng.range(0, ~std::uint64_t{0}),
                          oracle.range(0, ~std::uint64_t{0}));
                break;
            }
        }
    }
}

TEST(RandomExact, ShuffleAndChoiceMatchStdDistributions)
{
    for (std::uint64_t seed : oracleSeeds()) {
        Random rng(seed);
        StdOracle oracle(seed);
        std::vector<int> v(300), expect(300);
        for (int i = 0; i < 300; ++i)
            v[i] = expect[i] = i;
        for (int round = 0; round < 5; ++round) {
            rng.shuffle(v);
            for (std::size_t i = expect.size(); i > 1; --i)
                std::swap(expect[i - 1], expect[oracle.below(i)]);
            ASSERT_EQ(v, expect) << "seed " << seed << " round " << round;
            ASSERT_EQ(rng.choice(v), expect[oracle.below(expect.size())]);
        }
    }
}

TEST(RandomExact, ForkMatchesStdSeeding)
{
    for (std::uint64_t seed : oracleSeeds()) {
        Random rng(seed);
        std::mt19937_64 oracle(seed);
        // Fork after the parent has crossed a refill, twice.
        for (int i = 0; i < 400; ++i)
            ASSERT_EQ(rng.range(0, ~std::uint64_t{0}), oracle());
        for (int f = 0; f < 2; ++f) {
            Random child = rng.fork();
            StdOracle child_oracle(oracle());
            for (int i = 0; i < kDrawsPastThreeRefills; ++i)
                ASSERT_EQ(child.below(1000), child_oracle.below(1000));
        }
        for (int i = 0; i < 10; ++i)
            ASSERT_EQ(rng.range(0, ~std::uint64_t{0}), oracle());
    }
}
