/**
 * @file
 * Fundamental scalar types shared across the Widx reproduction.
 */

#ifndef WIDX_COMMON_TYPES_HH
#define WIDX_COMMON_TYPES_HH

#include <cstdint>
#include <cstddef>

namespace widx {

/** A (simulated) virtual byte address. Host pointers are reused as
 *  simulated addresses so that functional and timing state agree. */
using Addr = std::uint64_t;

/** A simulation time point / duration, in core clock cycles (2 GHz). */
using Cycle = std::uint64_t;

/** 64-bit key value as stored in columns and hash-index nodes. */
using Key = std::uint64_t;

/** Row identifier within a column/table. */
using RowId = std::uint64_t;

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/** Size of a cache block in bytes; the unit of off-chip transfer. */
constexpr unsigned kCacheBlockBytes = 64;

/** Virtual-memory page size used by the TLB model. */
constexpr unsigned kPageBytes = 4096;

/** Software prefetch, read intent, high temporal locality. The hot
 *  probe pipeline (db::HashIndex and the software walkers) leans on
 *  this to overlap independent cache misses. */
inline void
prefetchRead(const void *p)
{
    __builtin_prefetch(p, 0, 3);
}

/** Software prefetch, write intent: the line arrives ready to be
 *  modified (the build-side twin of prefetchRead). */
inline void
prefetchWrite(const void *p)
{
    __builtin_prefetch(p, 1, 3);
}

/** Convert an address to its cache-block address (block-aligned). */
constexpr Addr
blockAlign(Addr a)
{
    return a & ~Addr{kCacheBlockBytes - 1};
}

/** Convert an address to its page address (page-aligned). */
constexpr Addr
pageAlign(Addr a)
{
    return a & ~Addr{kPageBytes - 1};
}

} // namespace widx

#endif // WIDX_COMMON_TYPES_HH
