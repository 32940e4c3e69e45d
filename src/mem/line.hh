/**
 * @file
 * Fixed-size cache-line payload types shared by the message layer and
 * the cache data arrays.
 *
 * The whole system models 64-byte lines, so payloads are inline
 * std::arrays (no heap, trivially copyable) and byte-enable masks are a
 * single uint64_t with one bit per byte of the line. This is what makes
 * a Packet a flat POD that a port delivery can carry in a recycled
 * event block without ever touching the allocator.
 */

#ifndef DRF_MEM_LINE_HH
#define DRF_MEM_LINE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

namespace drf
{

/** Modelled line size. Configs may use smaller lines, never larger. */
constexpr unsigned kLineBytes = 64;

/** One full line of data, inline. */
using LineData = std::array<std::uint8_t, kLineBytes>;

/** Byte-enable bitmask: bit i enables byte i of the line. */
using ByteMask = std::uint64_t;

/** Every byte of the line enabled. */
constexpr ByteMask fullLineMask = ~ByteMask{0};

/** The mask bit for one byte offset. */
constexpr ByteMask
maskBit(unsigned byte)
{
    return ByteMask{1} << byte;
}

/** True if @p byte is enabled in @p mask. */
constexpr bool
maskTest(ByteMask mask, unsigned byte)
{
    return (mask >> byte) & 1;
}

/** The mask bits of the bytes a line of @p line_bytes covers. */
constexpr ByteMask
lineMask(unsigned line_bytes)
{
    return line_bytes >= kLineBytes ? fullLineMask
                                    : maskBit(line_bytes) - 1;
}

/**
 * Spread the 8 mask bits of @p bits to 8 byte lanes: byte i of the
 * result is 0xff if bit i is set, else 0.
 */
constexpr std::uint64_t
byteLanes(std::uint64_t bits)
{
    // Byte i keeps bit i of bits (value 0 or 1 << i); adding 0x7f sets
    // the byte's top bit iff that value is nonzero, with no carry out.
    std::uint64_t x = (bits * 0x0101010101010101ULL) &
                      0x8040201008040201ULL;
    x = ((x + 0x7f7f7f7f7f7f7f7fULL) >> 7) & 0x0101010101010101ULL;
    return x * 0xff;
}

/**
 * Copy the bytes of @p src that @p mask enables into @p dst, eight
 * bytes at a time. Mask bits at or beyond @p line_bytes are ignored.
 */
inline void
mergeMasked(LineData &dst, const LineData &src, ByteMask mask,
            unsigned line_bytes)
{
    static_assert(std::endian::native == std::endian::little,
                  "byte lane i must be mask bit i");
    mask &= lineMask(line_bytes);
    for (unsigned off = 0; mask != 0; off += 8, mask >>= 8) {
        std::uint64_t sel = byteLanes(mask & 0xff);
        if (sel == 0)
            continue;
        std::uint64_t d, s;
        std::memcpy(&d, dst.data() + off, sizeof d);
        std::memcpy(&s, src.data() + off, sizeof s);
        d = (d & ~sel) | (s & sel);
        std::memcpy(dst.data() + off, &d, sizeof d);
    }
}

} // namespace drf

#endif // DRF_MEM_LINE_HH
