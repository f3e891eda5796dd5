#include "db/hash_index.hh"

#include <bit>
#include <cstring>

#include "common/bitops.hh"
#include "common/logging.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WIDX_TAG_FILTER_AVX2 1
#include <immintrin.h>
#endif

namespace widx::db {

namespace {

/** Scalar fingerprint sweep over hashes [begin, n): the reference
 *  semantics of tagFilterBatch (and the AVX2 kernel's tail loop).
 *  Tag bytes load through relaxed atomic_ref — a plain mov, but
 *  race-free against a live writer's concurrent tag maintenance
 *  (this kernel is the only tag sweep a live index runs). */
u64
tagFilterScalarKernel(const u8 *tags, u64 mask, unsigned shift,
                      const u64 *hashes, std::size_t begin,
                      std::size_t n, u64 *bits)
{
    u64 survivors = 0;
    for (std::size_t i = begin; i < n; ++i) {
        const u64 h = hashes[i];
        const u8 tag =
            std::atomic_ref<u8>(
                const_cast<u8 &>(tags[(h >> shift) & mask]))
                .load(std::memory_order_relaxed);
        if (tag & HashIndex::tagOf(h)) {
            bits[i >> 6] |= u64(1) << (i & 63);
            ++survivors;
        }
    }
    return survivors;
}

#ifdef WIDX_TAG_FILTER_AVX2

/**
 * AVX2 fingerprint sweep: per iteration, four tag bytes arrive via
 * one dword gather (the tag array is padded so the up-to-3-byte
 * overread past the addressed tag stays in bounds) and the four
 * fingerprint bits 1 << (((h>>8)^(h>>24)^(h>>44)^(h>>57)) & 7) are
 * built with vector shifts — the whole reject decision for a batch
 * runs without a per-key byte load or branch. Compiled with a
 * target attribute so the TU needs no global -mavx2; callers
 * runtime-dispatch on cpuid.
 */
__attribute__((target("avx2"))) u64
tagFilterAvx2Kernel(const u8 *tags, u64 mask, unsigned shift,
                    const u64 *hashes, std::size_t n, u64 *bits)
{
    const __m256i vmask = _mm256_set1_epi64x(i64(mask));
    const __m256i vone = _mm256_set1_epi64x(1);
    const __m256i vseven = _mm256_set1_epi64x(7);
    const __m256i vff = _mm256_set1_epi64x(0xFF);
    const __m256i vzero = _mm256_setzero_si256();
    const __m128i vshift = _mm_cvtsi32_si128(int(shift));

    u64 survivors = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i h = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(hashes + i));
        const __m256i bidx =
            _mm256_and_si256(_mm256_srl_epi64(h, vshift), vmask);
        const __m128i gathered = _mm256_i64gather_epi32(
            reinterpret_cast<const int *>(tags), bidx, 1);
        const __m256i tag = _mm256_and_si256(
            _mm256_cvtepu32_epi64(gathered), vff);
        const __m256i folded = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_srli_epi64(h, 8),
                             _mm256_srli_epi64(h, 24)),
            _mm256_xor_si256(_mm256_srli_epi64(h, 44),
                             _mm256_srli_epi64(h, 57)));
        const __m256i fp = _mm256_sllv_epi64(
            vone, _mm256_and_si256(folded, vseven));
        // All-ones lanes mark rejects; invert to a survivor nibble.
        const __m256i rej = _mm256_cmpeq_epi64(
            _mm256_and_si256(tag, fp), vzero);
        const unsigned surv =
            ~unsigned(_mm256_movemask_pd(_mm256_castsi256_pd(rej))) &
            0xFu;
        // i is a multiple of 4, so the nibble never straddles words.
        bits[i >> 6] |= u64(surv) << (i & 63);
        survivors += unsigned(std::popcount(surv));
    }
    return survivors + tagFilterScalarKernel(tags, mask, shift,
                                             hashes, i, n, bits);
}

#endif // WIDX_TAG_FILTER_AVX2

} // namespace

HashIndex::HashIndex(const IndexSpec &spec, Arena &arena)
    : spec_(spec), arena_(arena)
{
    fatal_if(spec.buckets == 0, "index needs at least one bucket");
    numBuckets_ = nextPowerOfTwo(spec.buckets);
    bucketShift_ = log2Exact(u64{kBucketStride});
    hashShift_ = spec_.hashShift;
    fatal_if(hashShift_ + log2Exact(numBuckets_) > 64,
             "hashShift %u leaves no hash bits for %llu buckets",
             hashShift_, (unsigned long long)numBuckets_);
    fatal_if(spec_.live && spec_.indirectKeys,
             "live mutation requires the direct key layout");
    // Cache-line-align the bucket array so a 32 B bucket (header
    // node included) never straddles two lines: one header fetch is
    // one memory access, as the paper's layout intends.
    buckets_ = static_cast<Bucket *>(arena_.allocateBytes(
        numBuckets_ * sizeof(Bucket), kCacheBlockBytes));
    // Tag array: one byte per bucket, zero-initialized by the arena,
    // so every empty bucket starts out rejecting all probes. Eight
    // pad bytes at the end keep the AVX2 tag filter's dword gathers
    // (which read up to 3 bytes past the addressed tag) in bounds.
    tags_ = static_cast<u8 *>(
        arena_.allocateBytes(numBuckets_ + 8, kCacheBlockBytes));
    sentinelCell_ = arena_.make<u64>(kEmptyKey);
    const u64 empty_key =
        spec_.indirectKeys
            ? u64(reinterpret_cast<std::uintptr_t>(sentinelCell_))
            : kEmptyKey;
    for (u64 b = 0; b < numBuckets_; ++b) {
        buckets_[b].count = 0;
        buckets_[b].head.key = empty_key;
        buckets_[b].head.payload = 0;
        buckets_[b].head.next = nullptr;
    }
}

void
HashIndex::insert(u64 key, u64 payload, Addr key_addr)
{
    insertHashed(key, hashKey(key), payload, key_addr);
}

void
HashIndex::insertHashed(u64 key, u64 hash, u64 payload, Addr key_addr)
{
    panic_if(key == kEmptyKey, "the all-ones key is reserved");
    panic_if(spec_.indirectKeys && key_addr == 0,
             "indirect index requires the key's storage address");

    const u64 bidx = bucketIndexOf(hash);
    tags_[bidx] |= tagOf(hash);

    Bucket &b = buckets_[bidx];
    const u64 stored = spec_.indirectKeys ? key_addr : key;

    if (b.count == 0) {
        b.head.key = stored;
        b.head.payload = payload;
    } else {
        // Push-front behind the header to keep insert O(1); the
        // header keeps its original entry (paper layout).
        Node *n = arena_.make<Node>();
        n->key = stored;
        n->payload = payload;
        n->next = b.head.next;
        b.head.next = n;
        ++overflowNodes_;
    }
    ++b.count;
    ++entries_;
}

void
HashIndex::GroupInserter::flush()
{
    HashIndex &x = *idx_;
    // Dispatch: one write-intent prefetch per row for its tag byte
    // and its bucket line (the header insert writes, or the chain
    // head it pushes behind), so the group's misses are all in
    // flight before the first insert waits on one.
    for (std::size_t i = 0; i < n_; ++i) {
        const u64 bidx = x.bucketIndexOf(hash_[i]);
        prefetchWrite(&x.tags_[bidx]);
        prefetchWrite(&x.buckets_[bidx]);
    }
    for (std::size_t i = 0; i < n_; ++i)
        x.insertHashed(key_[i], hash_[i], payload_[i], addr_[i]);
    n_ = 0;
}

void
HashIndex::buildFromColumn(const Column &keys)
{
    GroupInserter ins(*this);
    forEachHashedRow(keys, spec_.hashFn, [&](RowId r, u64 k, u64 h) {
        ins.add(k, h, r, keys.addrOf(r));
    });
    ins.flush();
}

bool
HashIndex::tagFilterHasSimd()
{
#ifdef WIDX_TAG_FILTER_AVX2
    static const bool have = __builtin_cpu_supports("avx2");
    return have;
#else
    return false;
#endif
}

u64
HashIndex::tagFilterBatchScalar(const u64 *hashes, std::size_t n,
                                u64 *bits) const
{
    std::memset(bits, 0, ((n + 63) / 64) * sizeof(u64));
    return tagFilterScalarKernel(tags_, bucketMask(), hashShift_,
                                 hashes, 0, n, bits);
}

u64
HashIndex::tagFilterBatch(const u64 *hashes, std::size_t n,
                          u64 *bits) const
{
    u64 survivors;
#ifdef WIDX_TAG_FILTER_AVX2
    // A live index's tags mutate concurrently; the dword gathers
    // would race them bytewise, so live sweeps stay on the scalar
    // atomic kernel.
    if (!spec_.live && tagFilterHasSimd()) {
        std::memset(bits, 0, ((n + 63) / 64) * sizeof(u64));
        survivors = tagFilterAvx2Kernel(tags_, bucketMask(),
                                        hashShift_, hashes, n, bits);
    } else
#endif
        survivors = tagFilterBatchScalar(hashes, n, bits);
    tagStats_.note(n, n - survivors);
    return survivors;
}

u64
HashIndex::lookup(u64 key) const
{
    const u64 hash = hashKey(key);
    const u64 bidx = bucketIndexOf(hash);
    if (!(tagByte(bidx) & tagOf(hash)))
        return kNotFound;
    // widx-lint: epoch-guard -- single-key convenience; a caller
    // probing a live index pins an epoch around the call.
    for (const Node *n = &buckets_[bidx].head; n; n = nodeNext(*n))
        if (nodeKey(*n) == key)
            return nodePayload(*n);
    return kNotFound;
}

// --- Live mutation (see the class doc: single writer per index,
// --- lock-free concurrent probes) -----------------------------------

void
HashIndex::insertLive(u64 key, u64 payload)
{
    panic_if(!spec_.live, "insertLive on a non-live index");
    panic_if(key == kEmptyKey, "the all-ones key is reserved");

    const u64 hash = hashKey(key);
    const u64 bidx = bucketIndexOf(hash);

    // Tag first: the fingerprint bit must be visible before any
    // probe can see the key, so the filter never false-negatives a
    // published entry.
    std::atomic_ref<u8>(tags_[bidx]).fetch_or(
        tagOf(hash), std::memory_order_relaxed);

    Bucket &b = buckets_[bidx];
    const u64 hkey = std::atomic_ref<u64>(b.head.key)
                         .load(std::memory_order_relaxed);
    if (hkey == kEmptyKey) {
        // Empty or tombstoned header: payload first, key last with
        // release — a probe that matches the key sees the payload.
        std::atomic_ref<u64>(b.head.payload)
            .store(payload, std::memory_order_relaxed);
        std::atomic_ref<u64>(b.head.key).store(
            key, std::memory_order_release);
    } else {
        Node *n;
        if (!freeNodes_.empty()) {
            n = freeNodes_.back();
            freeNodes_.pop_back();
        } else {
            n = arena_.make<Node>();
            ++overflowNodes_;
        }
        // Fill privately, then publish with one release store on
        // the header's next.
        n->key = key;
        n->payload = payload;
        n->next = std::atomic_ref<Node *>(b.head.next)
                      .load(std::memory_order_relaxed);
        std::atomic_ref<Node *>(b.head.next)
            .store(n, std::memory_order_release);
    }
    ++b.count;
    ++entries_;
}

void
HashIndex::refreshTag(u64 bidx)
{
    Bucket &b = buckets_[bidx];
    u8 tag = 0;
    // widx-lint: epoch-guard -- writer-side walk: only this writer
    // retires nodes, so the chain cannot vanish under it.
    for (const Node *n = &b.head; n; n = nodeNext(*n)) {
        const u64 k = std::atomic_ref<u64>(
                          const_cast<Node *>(n)->key)
                          .load(std::memory_order_relaxed);
        if (k != kEmptyKey)
            tag |= tagOf(hashKey(k));
    }
    // A probe racing this store sees the old or new byte; both are
    // supersets of the surviving keys' fingerprints, so there is
    // still no false negative.
    std::atomic_ref<u8>(tags_[bidx]).store(
        tag, std::memory_order_relaxed);
}

u64
HashIndex::eraseLive(u64 key, std::vector<Node *> &retired)
{
    panic_if(!spec_.live, "eraseLive on a non-live index");
    const u64 hash = hashKey(key);
    const u64 bidx = bucketIndexOf(hash);
    Bucket &b = buckets_[bidx];
    u64 erased = 0;

    // Header match: tombstone in place (the header node is part of
    // the bucket array and can never be unlinked). kEmptyKey never
    // equals a probed key, so the slot just stops matching.
    if (std::atomic_ref<u64>(b.head.key).load(
            std::memory_order_relaxed) == key) {
        std::atomic_ref<u64>(b.head.key).store(
            kEmptyKey, std::memory_order_release);
        ++erased;
    }

    // Overflow matches: unlink with a release store on the
    // predecessor's next. The retired node's own next is left
    // intact so a paused probe holding it still walks to the end.
    Node *prev = &b.head;
    Node *n = std::atomic_ref<Node *>(prev->next)
                  .load(std::memory_order_relaxed);
    while (n) {
        Node *next = std::atomic_ref<Node *>(n->next).load(
            std::memory_order_relaxed);
        if (n->key == key) {
            std::atomic_ref<Node *>(prev->next)
                .store(next, std::memory_order_release);
            retired.push_back(n);
            ++erased;
        } else {
            prev = n;
        }
        n = next;
    }

    if (erased) {
        b.count -= erased;
        entries_ -= erased;
        refreshTag(bidx);
    }
    return erased;
}

bool
HashIndex::upsertLive(u64 key, u64 payload)
{
    panic_if(!spec_.live, "upsertLive on a non-live index");
    const u64 hash = hashKey(key);
    const u64 bidx = bucketIndexOf(hash);
    for (Node *n = &buckets_[bidx].head; n;
         n = std::atomic_ref<Node *>(n->next).load(
             std::memory_order_relaxed)) {
        if (std::atomic_ref<u64>(n->key).load(
                std::memory_order_relaxed) == key) {
            // Single-word overwrite: concurrent probes see the old
            // or new payload, never a mix.
            std::atomic_ref<u64>(n->payload).store(
                payload, std::memory_order_relaxed);
            return true;
        }
    }
    insertLive(key, payload);
    return false;
}

void
HashIndex::recycleNode(Node *n)
{
    // The grace period has passed: no probe can hold this node, so
    // plain stores are fine until insertLive republishes it.
    n->key = kEmptyKey;
    n->payload = 0;
    n->next = nullptr;
    freeNodes_.push_back(n);
}

double
HashIndex::avgBucketDepth() const
{
    u64 nonempty = 0;
    u64 nodes = 0;
    for (u64 b = 0; b < numBuckets_; ++b) {
        if (buckets_[b].count) {
            ++nonempty;
            nodes += buckets_[b].count;
        }
    }
    return nonempty == 0 ? 0.0 : double(nodes) / double(nonempty);
}

u64
HashIndex::maxBucketDepth() const
{
    u64 max = 0;
    for (u64 b = 0; b < numBuckets_; ++b)
        if (buckets_[b].count > max)
            max = buckets_[b].count;
    return max;
}

u64
HashIndex::footprintBytes() const
{
    return numBuckets_ * (sizeof(Bucket) + sizeof(u8)) +
           overflowNodes_ * sizeof(Node);
}

} // namespace widx::db
