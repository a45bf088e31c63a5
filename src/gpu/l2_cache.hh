/**
 * @file
 * Set-associative data cache tag store.
 *
 * Used twice: as the unified L2 shared by all SMs and as each SM's
 * private L1 (with a different geometry and stat prefix).
 * Write-back, write-allocate, true-LRU within a set.  The UVM study
 * only needs hit/miss classification and invalidation of lines whose
 * backing page is evicted; replacement traffic is folded into the
 * DRAM channel occupancy.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/types.hh"
#include "sim/stats.hh"

namespace uvmsim
{

/** Set-associative tag store with named stats. */
class L2Cache
{
  public:
    /**
     * @param capacity_bytes Total capacity; must be divisible by
     *                       assoc * line_bytes.
     * @param assoc          Ways per set.
     * @param line_bytes     Line size (power of two).
     * @param stat_prefix    Prefix for the stat names ("l2", "sm0.l1").
     */
    L2Cache(std::uint64_t capacity_bytes, std::uint32_t assoc,
            std::uint32_t line_bytes, std::string stat_prefix = "l2");

    /**
     * Look up (and on miss, fill) the line for an address.
     * @param addr     Byte address accessed.
     * @param is_write Marks the line dirty on hit/fill.
     * @return true on hit, false on miss (line now filled).
     */
    bool access(Addr addr, bool is_write);

    /**
     * Look up (and on miss, fill) a run of consecutive lines in one
     * pass: line indices first .. first+n-1, skipping every line whose
     * bit in `want` is clear.  Each probed line sees exactly what
     * access() on its address would, in ascending order.
     * @param first    Line index (address >> log2(line_bytes)).
     * @param n        Run length, 1..64.
     * @param want     Bit i set: probe line first+i.
     * @param is_write Marks the probed lines dirty on hit/fill.
     * @return Hit mask (bit i set: line first+i was probed and hit).
     */
    std::uint64_t accessLines(Addr first, std::uint32_t n,
                              std::uint64_t want, bool is_write);

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    /** Invalidate every line belonging to a 4KB page. */
    void invalidatePage(PageNum page);

    /** Drop all lines. */
    void flushAll();

    /** Hit count so far. */
    std::uint64_t hits() const { return hits_.count(); }

    /** Miss count so far. */
    std::uint64_t misses() const { return misses_.count(); }

    /** Register this component's statistics. */
    void registerStats(stats::StatRegistry &registry);

  private:
    /** Tag value that never matches a real line (addr >> shift). */
    static constexpr std::uint32_t invalidTag = ~std::uint32_t{0};

    /** Counting-filter buckets for the page-presence pre-check. */
    static constexpr std::uint64_t filterBuckets = 4096;

    /**
     * Line index of an address: a shift (line size is power of two).
     * Tags are stored in 32 bits; the constructor-checked geometry and
     * the access-path guard keep real addresses below the sentinel.
     */
    std::uint32_t
    tagOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr >> line_shift_);
    }

    /**
     * Set of an address: mask when the set count is a power of two,
     * else Lemire's multiply-shift fastmod -- exact for 32-bit line
     * numbers and 32-bit set counts, which the tag-range guard and the
     * constructor enforce.  Replaces a hardware divide on the hottest
     * path for non-power-of-two geometries (e.g. the 48-set L1).
     */
    std::uint64_t
    setIndex(Addr addr) const
    {
        std::uint64_t line = addr >> line_shift_;
        if (sets_pow2_)
            return line & set_mask_;
        std::uint64_t lowbits = mod_magic_ * line;
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(lowbits) * num_sets_) >> 64);
    }

    /** Fail on a line index the 32-bit tags cannot represent. */
    void checkTagRange(Addr line) const;

    /**
     * The probe shared by access() and accessLines(): look up `tag` in
     * the set starting at way `base`, filling on a miss.  Counts
     * nothing; the caller updates hits_/misses_.
     */
    inline bool probe(std::uint64_t base, std::uint32_t tag,
                      bool is_write);

    /**
     * Move a way to the top (most recent) of its set's rank order:
     * every rank above the touched way's drops by one.  The signed
     * byte compare is exact while ranks stay below 128 (assoc <= 128),
     * so the SSE2 step covers 16 ranks per instruction for
     * assoc % 16 == 0 and a
     * 4-byte form covers the 4-way L1; other geometries run a scalar
     * loop whose bound is a local (a byte store may alias `*this`,
     * which would otherwise force a reload of assoc_ per way).
     */
    inline void touchRank(std::uint64_t base, std::uint32_t way);

    std::uint32_t assoc_;
    std::uint32_t line_bytes_;
    std::uint32_t line_shift_ = 0;
    std::uint64_t num_sets_;
    std::uint64_t set_mask_ = 0;
    std::uint64_t mod_magic_ = 0; //!< ~0/num_sets + 1 (fastmod).
    bool sets_pow2_ = false;
    /** touchRank form: 16 (SSE2 per 16 ways), 4 (4-way), 0 (scalar). */
    std::uint8_t rank_simd_ = 0;

    /**
     * Tag store as structure-of-arrays (set-major): the hit probe is
     * a linear scan of `assoc_` contiguous 32-bit tags with validity
     * folded into the tag via a sentinel, and recency is a per-set
     * rank permutation (one byte per way, move-to-top on touch) so a
     * whole set's LRU state is a single 16-byte read -- the same
     * victim order as per-line timestamps at a quarter of the
     * footprint.
     */
    std::vector<std::uint32_t> tags_; //!< invalidTag = empty way.
    std::vector<std::uint8_t> rank_;  //!< 0 = LRU .. assoc-1 = MRU.
    std::vector<std::uint8_t> dirty_;

    /**
     * Counting filter over pages with cached lines: bucket
     * page & (filterBuckets-1) counts this cache's valid lines of all
     * pages hashing there.  Maintained on fill/replace (a masked
     * increment/decrement, no hashing), it lets invalidatePage() skip
     * the 32-set tag sweep entirely when the evicted page provably has
     * no lines here -- the common case, since eviction targets cold
     * pages.  Collisions only cause a redundant sweep, never a missed
     * invalidation.
     */
    std::vector<std::uint16_t> page_lines_;

    stats::Counter hits_;
    stats::Counter misses_;
    stats::Counter invalidations_;
};

} // namespace uvmsim
