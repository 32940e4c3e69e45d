/**
 * @file
 * Seeded pseudo-random source used by the testers and workload generators.
 *
 * Every random decision in the framework flows through one Random instance
 * per top-level component so that a (seed, configuration) pair fully
 * determines a run — a failing test can always be replayed.
 */

#ifndef DRF_SIM_RANDOM_HH
#define DRF_SIM_RANDOM_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <random>
#include <vector>

namespace drf
{

/**
 * MT19937-64 that yields exactly std::mt19937_64's output stream (same
 * seeding, twist and tempering constants) but produces it a block at a
 * time: one refill twists all 312 state words and tempers each into an
 * output block, so a draw is a load and an index bump. The twist picks
 * its matrix term with a mask rather than a branch on the word's low
 * bit, which is random and would mispredict half the time. Satisfies
 * UniformRandomBitGenerator, so the standard distributions consume it
 * exactly as they consume std::mt19937_64.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt19937_64(result_type seed)
    {
        _state[0] = seed;
        for (unsigned i = 1; i < kN; ++i) {
            _state[i] = kInitMult * (_state[i - 1] ^ (_state[i - 1] >> 62))
                        + i;
        }
    }

    result_type
    operator()()
    {
        if (_next == kN)
            refill();
        return _block[_next++];
    }

  private:
    static constexpr unsigned kN = 312;
    static constexpr unsigned kM = 156;
    static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
    static constexpr result_type kUpperMask = ~result_type{0} << 31;
    static constexpr result_type kLowerMask = ~kUpperMask;
    static constexpr result_type kInitMult = 6364136223846793005ULL;

    static result_type
    twist(result_type cur, result_type nxt, result_type far)
    {
        result_type y = (cur & kUpperMask) | (nxt & kLowerMask);
        return far ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kMatrixA);
    }

    static result_type
    temper(result_type z)
    {
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

    /** Twist the whole state and temper it into the output block. */
    void
    refill()
    {
        unsigned i = 0;
        for (; i < kN - kM; ++i) {
            _state[i] = twist(_state[i], _state[i + 1], _state[i + kM]);
            _block[i] = temper(_state[i]);
        }
        for (; i < kN - 1; ++i) {
            _state[i] = twist(_state[i], _state[i + 1], _state[i + kM - kN]);
            _block[i] = temper(_state[i]);
        }
        _state[kN - 1] = twist(_state[kN - 1], _state[0], _state[kM - 1]);
        _block[kN - 1] = temper(_state[kN - 1]);
        _next = 0;
    }

    std::array<result_type, kN> _state;
    std::array<result_type, kN> _block{};
    unsigned _next = kN; ///< next unread word of _block; kN = refill
};

/**
 * Thin deterministic wrapper around an MT19937-64 engine with the
 * helpers the testers need (ranges, biased coins, choice, shuffling).
 * Draws go through the standard distributions, so every draw sequence
 * equals the one std::mt19937_64 would give for the same seed.
 */
class Random
{
  public:
    explicit Random(std::uint64_t seed) : _engine(seed) {}

    /** Uniform integer in [lo, hi], inclusive on both ends. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        assert(lo <= hi);
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(_engine);
    }

    /** Uniform integer in [0, n). @pre n > 0 */
    std::uint64_t
    below(std::uint64_t n)
    {
        assert(n > 0);
        return range(0, n - 1);
    }

    /** Biased coin: true with probability @p percent / 100. */
    bool
    pct(unsigned percent)
    {
        return range(0, 99) < percent;
    }

    /** Uniform real in [0, 1). */
    double
    real()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(_engine);
    }

    /** Uniformly choose one element of a non-empty vector. */
    template <typename T>
    const T &
    choice(const std::vector<T> &v)
    {
        assert(!v.empty());
        return v[below(v.size())];
    }

    /** Fisher-Yates shuffle, deterministic under this engine. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

    /** Fork an independent child stream (for per-thread determinism). */
    Random
    fork()
    {
        return Random(_engine());
    }

  private:
    Mt19937_64 _engine;
};

} // namespace drf

#endif // DRF_SIM_RANDOM_HH
