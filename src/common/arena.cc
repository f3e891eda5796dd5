#include "common/arena.hh"

#include <cstdlib>

#include <sys/mman.h>

#include "common/logging.hh"

// Sanitizer builds take chunks from the heap (see arena.hh): ASan
// and TSan treat free() as a release, munmap() only as a shadow reset.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WIDX_ARENA_HEAP_CHUNKS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WIDX_ARENA_HEAP_CHUNKS 1
#endif
#endif

namespace widx {

namespace {

/** Zero-filled storage of `bytes` bytes for one chunk. */
unsigned char *
mapChunk(std::size_t bytes)
{
#ifdef WIDX_ARENA_HEAP_CHUNKS
    void *p = std::calloc(bytes, 1);
    fatal_if(p == nullptr, "arena: calloc of %zu bytes failed", bytes);
#else
    // Fresh anonymous pages read as zero: that is the arena's
    // zero-initialization, paid for lazily at first touch.
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    fatal_if(p == MAP_FAILED, "arena: mmap of %zu bytes failed", bytes);
#endif
    return static_cast<unsigned char *>(p);
}

/** Offset within `base` of the first `align`-aligned address at or
 *  after base + used. */
std::size_t
alignedOffset(const unsigned char *base, std::size_t used,
              std::size_t align)
{
    const std::size_t b = reinterpret_cast<std::size_t>(base);
    return ((b + used + align - 1) & ~(align - 1)) - b;
}

} // namespace

void
Arena::ChunkFree::operator()(unsigned char *p) const
{
#ifdef WIDX_ARENA_HEAP_CHUNKS
    (void)bytes;
    std::free(p);
#else
    ::munmap(p, bytes);
#endif
}

Arena::Arena(std::size_t chunk_bytes)
    : chunkBytes_(chunk_bytes)
{
    panic_if(chunk_bytes == 0, "arena chunk size must be nonzero");
}

Arena::Chunk &
Arena::ensureRoom(std::size_t bytes, std::size_t align)
{
    if (!chunks_.empty()) {
        Chunk &c = chunks_.back();
        if (alignedOffset(c.data.get(), c.used, align) + bytes <= c.size)
            return c;
    }
    // bytes + align fits one aligned allocation at any chunk base.
    std::size_t want = bytes + align > chunkBytes_ ? bytes + align
                                                   : chunkBytes_;
    Chunk c;
    c.data = {mapChunk(want), ChunkFree{want}};
    c.size = want;
    c.used = 0;
    reserved_ += want;
    chunks_.push_back(std::move(c));
    return chunks_.back();
}

void *
Arena::allocateBytes(std::size_t bytes, std::size_t align)
{
    panic_if(align == 0 || (align & (align - 1)) != 0,
             "alignment must be a power of two, got %zu", align);
    if (bytes == 0)
        bytes = 1;
    Chunk &c = ensureRoom(bytes, align);
    const std::size_t off = alignedOffset(c.data.get(), c.used, align);
    c.used = off + bytes;
    allocated_ += bytes;
    return c.data.get() + off;
}

void
Arena::releaseAll()
{
    chunks_.clear();
    allocated_ = 0;
    reserved_ = 0;
}

} // namespace widx
