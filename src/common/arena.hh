/**
 * @file
 * Bump-pointer arena allocator.
 *
 * The hash index and node lists live in one (or a few) contiguous
 * chunks so that (a) the simulated footprint matches the logical data
 * size and (b) host pointers double as simulated addresses with
 * realistic page/cache-block structure. Allocation never moves
 * existing objects, so node pointers stay valid for the lifetime of
 * the arena.
 *
 * Chunks are private anonymous mappings (mmap), returned with munmap
 * when the arena dies or releases them. The kernel's zero pages are
 * the zero-initialization contract — no memset pass — and a page is
 * first touched by whichever thread writes it first, so an index
 * built on a shard's build thread lands where that thread runs.
 * Going around malloc also keeps freed chunks out of per-thread
 * malloc arenas, which would otherwise hold them (and peak RSS)
 * after a multi-threaded build is torn down.
 *
 * Sanitizer builds (ASan, TSan) take chunks from calloc and return
 * them with free instead. The sanitizers see munmap only as a
 * shadow reset, and a later mmap may reuse the hole; a freed heap
 * chunk stays poisoned, so a late read of a retired arena (say, by
 * a reader the epoch protocol failed to wait for) is reported as a
 * heap-use-after-free.
 */

#ifndef WIDX_COMMON_ARENA_HH
#define WIDX_COMMON_ARENA_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace widx {

/**
 * Chunked bump allocator. Objects are allocated front-to-back from
 * large chunks; everything is freed at once when the arena dies.
 */
class Arena
{
  public:
    /** @param chunk_bytes size of each backing chunk. */
    explicit Arena(std::size_t chunk_bytes = 16u << 20);

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;
    Arena(Arena &&) = default;
    Arena &operator=(Arena &&) = default;

    /**
     * Allocate raw storage.
     *
     * @param bytes number of bytes, may exceed the chunk size.
     * @param align alignment, must be a power of two.
     * @return pointer to zero-initialized storage.
     */
    void *allocateBytes(std::size_t bytes, std::size_t align = 8);

    /** Allocate and default-construct a T. T must be trivially
     *  destructible (the arena never runs destructors). */
    template <typename T, typename... Args>
    T *
    make(Args &&...args)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena objects are never destroyed");
        void *p = allocateBytes(sizeof(T), alignof(T));
        return new (p) T(std::forward<Args>(args)...);
    }

    /** Allocate a zero-initialized array of n Ts. */
    template <typename T>
    T *
    makeArray(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena objects are never destroyed");
        void *p = allocateBytes(sizeof(T) * n, alignof(T));
        return static_cast<T *>(p);
    }

    /** Total bytes handed out to callers so far. */
    std::size_t allocatedBytes() const { return allocated_; }

    /** Total bytes reserved from the system so far. */
    std::size_t reservedBytes() const { return reserved_; }

    /** Release all chunks; outstanding pointers become invalid. */
    void releaseAll();

  private:
    /** Chunk deleter: munmap with the mapping's length (free in
     *  sanitizer builds). */
    struct ChunkFree
    {
        std::size_t bytes;
        void operator()(unsigned char *p) const;
    };

    struct Chunk
    {
        std::unique_ptr<unsigned char[], ChunkFree> data;
        std::size_t size = 0;
        std::size_t used = 0;
    };

    Chunk &ensureRoom(std::size_t bytes, std::size_t align);

    std::size_t chunkBytes_;
    std::size_t allocated_ = 0;
    std::size_t reserved_ = 0;
    std::vector<Chunk> chunks_;
};

} // namespace widx

#endif // WIDX_COMMON_ARENA_HH
