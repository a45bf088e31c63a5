/**
 * @file
 * Recency bookkeeping for resident pages -- the paper's LRU page list.
 *
 * Paper Sec. 5.3 design choices, all implemented here:
 *  - the list holds *every* page whose valid flag is set (not just
 *    accessed pages); pages enter on migration completion;
 *  - any read or write access moves a page to the MRU end;
 *  - ordering is hierarchical: 2MB chunks are ordered by the chunk's
 *    last access, and 64KB basic blocks are ordered within their chunk
 *    by the block's last access;
 *  - a configurable count of pages at the cold (top-of-LRU) end can be
 *    reserved from eviction (Sec. 7.4).
 *
 * The tracker also maintains a flat page-granular LRU (for the
 * traditional LRU-4KB policy) and an O(1) uniform random sampler (for
 * the Re policy).
 *
 * All three recency orders are intrusive doubly-linked lists threaded
 * through flat record arenas by 32-bit index links -- no std::list
 * nodes, no per-page heap allocation, and a touch is one dense-map
 * index (page -> arena slot) with no hashing: a page's record caches
 * its owning chunk's arena slot, so the hierarchical touch needs no
 * chunk lookup at all.  Blocks
 * live in a fixed 32-entry array inside their chunk record with a
 * 16-bit resident-page bitmap each, making block membership queries
 * pure bit tests.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/page_map.hh"
#include "mem/types.hh"
#include "sim/rng.hh"

namespace uvmsim
{

/** Tracks which pages are resident and how recently they were used. */
class ResidencyTracker
{
  public:
    ResidencyTracker() = default;

    /** A page finished migrating: insert at the MRU end. */
    void onResident(PageNum page);

    /** A resident page was read or written: move to the MRU end. */
    void onAccess(PageNum page);

    /** A page was evicted: forget it. */
    void onEvicted(PageNum page);

    /** Whether the tracker knows the page as resident. */
    bool isTracked(PageNum page) const;

    /** Number of resident pages tracked. */
    std::uint64_t size() const { return slot_of_.size(); }

    /**
     * Flat 4KB LRU victim: the oldest page after skipping `skip_pages`
     * pages from the cold end (the reservation of Sec. 7.4).
     * @return nullopt when nothing is evictable after the skip.
     */
    std::optional<PageNum> lruPageVictim(std::uint64_t skip_pages) const;

    /** Uniformly random resident page (Re policy). */
    std::optional<PageNum> randomPageVictim(Rng &rng) const;

    /**
     * Most-recently-used page (the MRU policy Sec. 5.3 mentions as the
     * classic fix for repetitive linear patterns).
     */
    std::optional<PageNum> mruPageVictim() const;

    /**
     * Hierarchical 64KB victim: the least-recent basic block of the
     * least-recent 2MB chunk, after skipping blocks covering the first
     * `skip_pages` resident pages from the cold end.
     * @return Global basic-block index (addr >> 16), or nullopt.
     */
    std::optional<std::uint64_t>
    lruBlockVictim(std::uint64_t skip_pages) const;

    /**
     * 2MB victim: the least-recent large-page chunk after skipping
     * chunks covering the first `skip_pages` resident pages.
     * @return Global 2MB slot index (addr >> 21), or nullopt.
     */
    std::optional<std::uint64_t>
    lruLargePageVictim(std::uint64_t skip_pages) const;

    /** Resident pages inside a global basic-block index, ascending. */
    std::vector<PageNum> pagesInBlock(std::uint64_t block) const;

    /** Resident pages inside a global 2MB slot index, ascending. */
    std::vector<PageNum> pagesInLargePage(std::uint64_t slot) const;

    /** Resident-page count of a block (0 when unknown). */
    std::uint64_t blockResidentPages(std::uint64_t block) const;

    /**
     * Up to `n` coldest pages in flat LRU order (coldest first).
     * n >= size() enumerates every tracked page; used by the
     * SimAuditor for its sweep and reservation checks.
     */
    std::vector<PageNum> coldPages(std::uint64_t n) const;

    /** Internal invariants hold (for tests). */
    bool checkConsistent() const;

  private:
    /** Sentinel for "no record" in 32-bit index links. */
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    /** Sentinel for "no block" in the per-chunk 8-bit links. */
    static constexpr std::uint8_t bnil = 0xff;

    /** One tracked page: flat-LRU links plus cached hierarchy slots. */
    struct PageRec
    {
        PageNum page = 0;
        std::uint32_t prev = npos;  //!< Flat LRU toward MRU.
        std::uint32_t next = npos;  //!< Flat LRU toward LRU / free link.
        std::uint32_t chunk = npos; //!< Owning chunk's arena slot.
        std::uint32_t rand_idx = 0; //!< Position in random_pool_.
    };

    /** One 64KB basic block inside its chunk's fixed array. */
    struct BlockRec
    {
        std::uint16_t pages = 0;     //!< Resident pages (0..16).
        std::uint16_t page_bits = 0; //!< Bit p: page p resident.
        std::uint8_t prev = bnil;    //!< Block LRU toward MRU.
        std::uint8_t next = bnil;    //!< Block LRU toward LRU.
    };

    /** One 2MB chunk: chunk-LRU links plus its 32 blocks. */
    struct ChunkRec
    {
        std::uint64_t slot_id = 0; //!< Global 2MB slot index.
        std::uint64_t pages = 0;   //!< Resident pages in the chunk.
        std::uint32_t prev = npos; //!< Chunk LRU toward MRU.
        std::uint32_t next = npos; //!< Chunk LRU toward LRU / free link.
        std::uint8_t block_head = bnil; //!< MRU block.
        std::uint8_t block_tail = bnil; //!< LRU block.
        BlockRec blocks[blocksPerLargePage];
    };

    std::uint32_t allocPage();
    void freePage(std::uint32_t slot);
    std::uint32_t allocChunk();
    void freeChunk(std::uint32_t slot);

    /** Unlink a page from the flat LRU list (links left dangling). */
    void unlinkPage(std::uint32_t slot);
    /** Link a page at the MRU (head) end of the flat LRU list. */
    void linkPageFront(std::uint32_t slot);

    void unlinkChunk(std::uint32_t slot);
    void linkChunkFront(std::uint32_t slot);

    void unlinkBlock(ChunkRec &chunk, std::uint8_t b);
    void linkBlockFront(ChunkRec &chunk, std::uint8_t b);

    /** Move the page's chunk and block to their MRU ends. */
    void touchHierarchy(const PageRec &rec, std::uint8_t b);

    // ---- flat page LRU (MRU at head) ----
    std::vector<PageRec> page_recs_;
    std::uint32_t page_free_ = npos;
    std::uint32_t page_head_ = npos;
    std::uint32_t page_tail_ = npos;
    PageMap<std::uint32_t> slot_of_;

    // ---- hierarchical structures (chunk MRU at head) ----
    std::vector<ChunkRec> chunk_recs_;
    std::uint32_t chunk_free_ = npos;
    std::uint32_t chunk_head_ = npos;
    std::uint32_t chunk_tail_ = npos;
    std::unordered_map<std::uint64_t, std::uint32_t> chunk_of_;

    // ---- O(1) random sampling (stores page arena slots) ----
    std::vector<std::uint32_t> random_pool_;
};

} // namespace uvmsim
