#include "l2_cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "sim/logging.hh"

namespace uvmsim
{

L2Cache::L2Cache(std::uint64_t capacity_bytes, std::uint32_t assoc,
                 std::uint32_t line_bytes, std::string stat_prefix)
    : assoc_(assoc),
      line_bytes_(line_bytes),
      hits_(stat_prefix + ".hits", "cache hits"),
      misses_(stat_prefix + ".misses", "cache misses"),
      invalidations_(stat_prefix + ".invalidations",
                     "cache lines invalidated by page eviction")
{
    if (assoc_ == 0 || line_bytes_ == 0 ||
        !std::has_single_bit(line_bytes_))
        panic("L2Cache: bad geometry");
    if (line_bytes_ > pageSize)
        panic("L2Cache: lines larger than a page unsupported");
    std::uint64_t set_bytes =
        static_cast<std::uint64_t>(assoc_) * line_bytes_;
    if (capacity_bytes == 0 || capacity_bytes % set_bytes != 0)
        panic("L2Cache: capacity not divisible by set size");
    num_sets_ = capacity_bytes / set_bytes;
    line_shift_ = static_cast<std::uint32_t>(
        std::bit_width(line_bytes_) - 1);
    sets_pow2_ = std::has_single_bit(num_sets_);
    set_mask_ = num_sets_ - 1;
    if (num_sets_ > 0xffffffffull)
        panic("L2Cache: more than 2^32 sets unsupported");
    mod_magic_ = ~std::uint64_t{0} / num_sets_ + 1;
    if (assoc_ > 0xff)
        panic("L2Cache: associativity above 255 unsupported");
#if defined(__SSE2__)
    if (assoc_ == 4)
        rank_simd_ = 4;
    else if (assoc_ % 16 == 0 && assoc_ <= 128)
        rank_simd_ = 16;
#endif
    tags_.assign(num_sets_ * assoc_, invalidTag);
    rank_.resize(num_sets_ * assoc_);
    for (std::uint64_t s = 0; s < num_sets_; ++s)
        for (std::uint32_t w = 0; w < assoc_; ++w)
            rank_[s * assoc_ + w] = static_cast<std::uint8_t>(w);
    dirty_.assign(num_sets_ * assoc_, 0);
    page_lines_.assign(filterBuckets, 0);
}

void
L2Cache::checkTagRange(Addr line) const
{
    if (line >= invalidTag)
        panic("L2Cache: address %llx beyond the 32-bit tag range",
              static_cast<unsigned long long>(line << line_shift_));
}

void
L2Cache::touchRank(std::uint64_t base, std::uint32_t way)
{
    std::uint8_t *ranks = &rank_[base];
    const std::uint32_t assoc = assoc_;
    const std::uint8_t r = ranks[way];
#if defined(__SSE2__)
    // v += (v > r) as a byte mask of -1s: one compare and one add per
    // 16 ranks.
    if (rank_simd_ != 0) {
        const __m128i vr = _mm_set1_epi8(static_cast<char>(r));
        if (rank_simd_ == 4) {
            std::int32_t word;
            std::memcpy(&word, ranks, sizeof(word));
            __m128i v = _mm_cvtsi32_si128(word);
            word = _mm_cvtsi128_si32(
                _mm_add_epi8(v, _mm_cmpgt_epi8(v, vr)));
            std::memcpy(ranks, &word, sizeof(word));
        } else {
            for (std::uint32_t w = 0; w < assoc; w += 16) {
                auto *p = reinterpret_cast<__m128i *>(ranks + w);
                __m128i v = _mm_loadu_si128(p);
                _mm_storeu_si128(p, _mm_add_epi8(v, _mm_cmpgt_epi8(v, vr)));
            }
        }
        ranks[way] = static_cast<std::uint8_t>(assoc - 1);
        return;
    }
#endif
    for (std::uint32_t w = 0; w < assoc; ++w)
        ranks[w] -= ranks[w] > r;
    ranks[way] = static_cast<std::uint8_t>(assoc - 1);
}

bool
L2Cache::probe(std::uint64_t base, std::uint32_t tag, bool is_write)
{
    std::uint32_t *tags = &tags_[base];

    // One branch-free pass over the set's (single cache line of) tags:
    // a tag is present in at most one way, so a full last-match scan
    // finds the hit way, and the same pass records the last invalid
    // way -- the fill target the per-way scan picked.  The UVM
    // workloads are overwhelmingly miss-dominated, so full vectorized
    // scans beat early-exit probing.
    std::uint32_t hit_way = invalidTag;
    std::uint32_t inv_way = invalidTag;
#if defined(__SSE2__)
    if (assoc_ % 4 == 0) {
        // GCC cannot auto-vectorize a last-match-index scan, so build
        // the match masks explicitly, 32 ways per mask word; at most
        // one tag matches, so any hit bit is the hit, and the highest
        // invalid bit of the last word that has one is the scalar
        // loop's last-invalid way.
        const __m128i vtag = _mm_set1_epi32(static_cast<int>(tag));
        const __m128i vinv = _mm_set1_epi32(-1);
        for (std::uint32_t b = 0; b < assoc_; b += 32) {
            const std::uint32_t end = std::min(assoc_, b + 32);
            std::uint32_t hm = 0;
            std::uint32_t im = 0;
            for (std::uint32_t w = b; w < end; w += 4) {
                __m128i v = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(tags + w));
                hm |= static_cast<std::uint32_t>(_mm_movemask_ps(
                          _mm_castsi128_ps(_mm_cmpeq_epi32(v, vtag))))
                      << (w - b);
                im |= static_cast<std::uint32_t>(_mm_movemask_ps(
                          _mm_castsi128_ps(_mm_cmpeq_epi32(v, vinv))))
                      << (w - b);
            }
            if (hm != 0)
                hit_way =
                    b + static_cast<std::uint32_t>(std::countr_zero(hm));
            if (im != 0)
                inv_way =
                    b + static_cast<std::uint32_t>(std::bit_width(im)) - 1;
        }
    } else
#endif
    {
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (tags[w] == tag)
                hit_way = w;
            if (tags[w] == invalidTag)
                inv_way = w;
        }
    }
    if (hit_way != invalidTag) {
        touchRank(base, hit_way);
        dirty_[base + hit_way] |= is_write;
        return true;
    }

    // Miss: fill into the (last) invalid way, else the rank-0 way --
    // ranks are a permutation ordering valid ways exactly as recency
    // timestamps would, so rank 0 is the victim the timestamped tag
    // store chose.
    const std::uint32_t page_shift = pageShift - line_shift_;
    std::uint32_t victim = inv_way;
    if (victim == invalidTag) {
        const std::uint8_t *ranks = &rank_[base];
        victim = 0;
#if defined(__SSE2__)
        if (assoc_ % 16 == 0) {
            for (std::uint32_t w = 0; w < assoc_; w += 16) {
                __m128i v = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(ranks + w));
                std::uint32_t m = static_cast<std::uint32_t>(
                    _mm_movemask_epi8(
                        _mm_cmpeq_epi8(v, _mm_setzero_si128())));
                if (m != 0) {
                    victim = w + static_cast<std::uint32_t>(
                                     std::countr_zero(m));
                    break;
                }
            }
        } else
#endif
        {
            for (std::uint32_t w = 0; w < assoc_; ++w) {
                if (ranks[w] == 0)
                    victim = w;
            }
        }
        --page_lines_[(tags[victim] >> page_shift) & (filterBuckets - 1)];
    }
    ++page_lines_[(tag >> page_shift) & (filterBuckets - 1)];
    tags[victim] = tag;
    dirty_[base + victim] = is_write;
    touchRank(base, victim);
    return false;
}

bool
L2Cache::access(Addr addr, bool is_write)
{
    checkTagRange(addr >> line_shift_);
    bool hit = probe(setIndex(addr) * assoc_, tagOf(addr), is_write);
    if (hit)
        ++hits_;
    else
        ++misses_;
    return hit;
}

std::uint64_t
L2Cache::accessLines(Addr first, std::uint32_t n, std::uint64_t want,
                     bool is_write)
{
    if (n == 0 || n > 64)
        panic("L2Cache: line run of %u lines (1..64 supported)", n);
    // Tags of a run ascend, so the last line bounds them all.
    checkTagRange(first + n - 1);
    if (n < 64)
        want &= (std::uint64_t{1} << n) - 1;
    // Consecutive lines occupy consecutive sets (mod the set count):
    // step the set base by one set and wrap instead of re-indexing.
    const std::uint64_t end = num_sets_ * assoc_;
    std::uint64_t base = setIndex(first << line_shift_) * assoc_;
    auto tag = static_cast<std::uint32_t>(first);
    std::uint64_t hit = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if ((want >> i) & 1)
            hit |= static_cast<std::uint64_t>(probe(base, tag, is_write))
                   << i;
        ++tag;
        base += assoc_;
        if (base == end)
            base = 0;
    }
    const auto hits = static_cast<std::uint64_t>(std::popcount(hit));
    hits_ += hits;
    misses_ += static_cast<std::uint64_t>(std::popcount(want)) - hits;
    return hit;
}

bool
L2Cache::contains(Addr addr) const
{
    std::uint64_t base = setIndex(addr) * assoc_;
    std::uint32_t tag = tagOf(addr);
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (tags_[base + w] == tag)
            return true;
    }
    return false;
}

void
L2Cache::invalidatePage(PageNum page)
{
    if (page_lines_[page & (filterBuckets - 1)] == 0)
        return; // no line of any page in this bucket is cached
    Addr lo = pageBase(page);
    for (Addr a = lo; a < lo + pageSize; a += line_bytes_) {
        std::uint64_t base = setIndex(a) * assoc_;
        std::uint32_t tag = tagOf(a);
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (tags_[base + w] == tag) {
                tags_[base + w] = invalidTag;
                dirty_[base + w] = 0;
                --page_lines_[page & (filterBuckets - 1)];
                ++invalidations_;
            }
        }
    }
}

void
L2Cache::flushAll()
{
    std::fill(tags_.begin(), tags_.end(), invalidTag);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    std::fill(page_lines_.begin(), page_lines_.end(), 0);
}

void
L2Cache::registerStats(stats::StatRegistry &registry)
{
    registry.add(&hits_);
    registry.add(&misses_);
    registry.add(&invalidations_);
}

} // namespace uvmsim
