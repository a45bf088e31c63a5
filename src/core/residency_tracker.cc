#include "residency_tracker.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace uvmsim
{

namespace
{

/** Block index within the owning chunk's fixed array. */
inline std::uint8_t
blockInChunk(PageNum page)
{
    return static_cast<std::uint8_t>(
        (page >> (basicBlockShift - pageShift)) &
        (blocksPerLargePage - 1));
}

/** Page index within its basic block's bitmap. */
inline unsigned
pageInBlock(PageNum page)
{
    return static_cast<unsigned>(page & (pagesPerBasicBlock - 1));
}

} // namespace

std::uint32_t
ResidencyTracker::allocPage()
{
    if (page_free_ != npos) {
        std::uint32_t slot = page_free_;
        page_free_ = page_recs_[slot].next;
        return slot;
    }
    page_recs_.emplace_back();
    return static_cast<std::uint32_t>(page_recs_.size() - 1);
}

void
ResidencyTracker::freePage(std::uint32_t slot)
{
    page_recs_[slot].next = page_free_;
    page_free_ = slot;
}

std::uint32_t
ResidencyTracker::allocChunk()
{
    if (chunk_free_ != npos) {
        std::uint32_t slot = chunk_free_;
        chunk_free_ = chunk_recs_[slot].next;
        chunk_recs_[slot] = ChunkRec{};
        return slot;
    }
    chunk_recs_.emplace_back();
    return static_cast<std::uint32_t>(chunk_recs_.size() - 1);
}

void
ResidencyTracker::freeChunk(std::uint32_t slot)
{
    chunk_recs_[slot].next = chunk_free_;
    chunk_free_ = slot;
}

void
ResidencyTracker::unlinkPage(std::uint32_t slot)
{
    PageRec &rec = page_recs_[slot];
    if (rec.prev != npos)
        page_recs_[rec.prev].next = rec.next;
    else
        page_head_ = rec.next;
    if (rec.next != npos)
        page_recs_[rec.next].prev = rec.prev;
    else
        page_tail_ = rec.prev;
}

void
ResidencyTracker::linkPageFront(std::uint32_t slot)
{
    PageRec &rec = page_recs_[slot];
    rec.prev = npos;
    rec.next = page_head_;
    if (page_head_ != npos)
        page_recs_[page_head_].prev = slot;
    else
        page_tail_ = slot;
    page_head_ = slot;
}

void
ResidencyTracker::unlinkChunk(std::uint32_t slot)
{
    ChunkRec &rec = chunk_recs_[slot];
    if (rec.prev != npos)
        chunk_recs_[rec.prev].next = rec.next;
    else
        chunk_head_ = rec.next;
    if (rec.next != npos)
        chunk_recs_[rec.next].prev = rec.prev;
    else
        chunk_tail_ = rec.prev;
}

void
ResidencyTracker::linkChunkFront(std::uint32_t slot)
{
    ChunkRec &rec = chunk_recs_[slot];
    rec.prev = npos;
    rec.next = chunk_head_;
    if (chunk_head_ != npos)
        chunk_recs_[chunk_head_].prev = slot;
    else
        chunk_tail_ = slot;
    chunk_head_ = slot;
}

void
ResidencyTracker::unlinkBlock(ChunkRec &chunk, std::uint8_t b)
{
    BlockRec &rec = chunk.blocks[b];
    if (rec.prev != bnil)
        chunk.blocks[rec.prev].next = rec.next;
    else
        chunk.block_head = rec.next;
    if (rec.next != bnil)
        chunk.blocks[rec.next].prev = rec.prev;
    else
        chunk.block_tail = rec.prev;
}

void
ResidencyTracker::linkBlockFront(ChunkRec &chunk, std::uint8_t b)
{
    BlockRec &rec = chunk.blocks[b];
    rec.prev = bnil;
    rec.next = chunk.block_head;
    if (chunk.block_head != bnil)
        chunk.blocks[chunk.block_head].prev = b;
    else
        chunk.block_tail = b;
    chunk.block_head = b;
}

void
ResidencyTracker::touchHierarchy(const PageRec &rec, std::uint8_t b)
{
    std::uint32_t cslot = rec.chunk;
    if (cslot != chunk_head_) {
        unlinkChunk(cslot);
        linkChunkFront(cslot);
    }
    ChunkRec &chunk = chunk_recs_[cslot];
    if (chunk.block_head != b) {
        unlinkBlock(chunk, b);
        linkBlockFront(chunk, b);
    }
}

void
ResidencyTracker::onResident(PageNum page)
{
    auto [slot_ref, inserted] = slot_of_.tryEmplace(page);
    if (!inserted)
        panic("page %llu already tracked as resident",
              static_cast<unsigned long long>(page));

    std::uint32_t slot = allocPage();
    *slot_ref = slot;

    std::uint64_t lp = largePageOf(pageBase(page));
    auto [cit, chunk_new] = chunk_of_.try_emplace(lp, 0);
    std::uint32_t cslot;
    if (chunk_new) {
        cslot = allocChunk();
        cit->second = cslot;
        chunk_recs_[cslot].slot_id = lp;
        linkChunkFront(cslot);
    } else {
        cslot = cit->second;
        if (cslot != chunk_head_) {
            unlinkChunk(cslot);
            linkChunkFront(cslot);
        }
    }

    ChunkRec &chunk = chunk_recs_[cslot];
    std::uint8_t b = blockInChunk(page);
    BlockRec &block = chunk.blocks[b];
    if (block.pages == 0)
        linkBlockFront(chunk, b);
    else if (chunk.block_head != b) {
        unlinkBlock(chunk, b);
        linkBlockFront(chunk, b);
    }
    ++block.pages;
    block.page_bits |= static_cast<std::uint16_t>(1u << pageInBlock(page));
    ++chunk.pages;

    PageRec &rec = page_recs_[slot];
    rec.page = page;
    rec.chunk = cslot;
    rec.rand_idx = static_cast<std::uint32_t>(random_pool_.size());
    random_pool_.push_back(slot);
    linkPageFront(slot);
}

void
ResidencyTracker::onAccess(PageNum page)
{
    const std::uint32_t *found = slot_of_.find(page);
    if (!found)
        return; // access raced with an eviction decision; harmless
    std::uint32_t slot = *found;
    if (slot != page_head_) {
        unlinkPage(slot);
        linkPageFront(slot);
    }
    touchHierarchy(page_recs_[slot], blockInChunk(page));
}

void
ResidencyTracker::onEvicted(PageNum page)
{
    const std::uint32_t *found = slot_of_.find(page);
    if (!found)
        panic("evicting untracked page %llu",
              static_cast<unsigned long long>(page));
    std::uint32_t slot = *found;
    PageRec &rec = page_recs_[slot];

    unlinkPage(slot);

    std::uint32_t cslot = rec.chunk;
    if (cslot == npos)
        panic("hierarchy missing chunk for page %llu",
              static_cast<unsigned long long>(page));
    ChunkRec &chunk = chunk_recs_[cslot];
    std::uint8_t b = blockInChunk(page);
    BlockRec &block = chunk.blocks[b];
    if (block.pages == 0)
        panic("hierarchy missing block for page %llu",
              static_cast<unsigned long long>(page));
    --block.pages;
    block.page_bits &=
        static_cast<std::uint16_t>(~(1u << pageInBlock(page)));
    --chunk.pages;
    if (block.pages == 0)
        unlinkBlock(chunk, b);
    if (chunk.pages == 0) {
        unlinkChunk(cslot);
        chunk_of_.erase(chunk.slot_id);
        freeChunk(cslot);
    }

    // Swap-with-back removal keeps the sampler pool dense; the random
    // victim stream is a function of pool order, which this preserves
    // exactly (same swap the std::vector+map sampler performed).
    std::uint32_t idx = rec.rand_idx;
    std::uint32_t last = random_pool_.back();
    random_pool_[idx] = last;
    page_recs_[last].rand_idx = idx;
    random_pool_.pop_back();

    slot_of_.erase(page);
    freePage(slot);
}

bool
ResidencyTracker::isTracked(PageNum page) const
{
    return slot_of_.contains(page);
}

std::optional<PageNum>
ResidencyTracker::lruPageVictim(std::uint64_t skip_pages) const
{
    if (skip_pages >= slot_of_.size())
        return std::nullopt;
    std::uint32_t slot = page_tail_;
    for (std::uint64_t i = 0; i < skip_pages; ++i)
        slot = page_recs_[slot].prev;
    return page_recs_[slot].page;
}

std::optional<PageNum>
ResidencyTracker::randomPageVictim(Rng &rng) const
{
    if (random_pool_.empty())
        return std::nullopt;
    return page_recs_[random_pool_[rng.below(random_pool_.size())]].page;
}

std::optional<PageNum>
ResidencyTracker::mruPageVictim() const
{
    if (page_head_ == npos)
        return std::nullopt;
    return page_recs_[page_head_].page;
}

std::optional<std::uint64_t>
ResidencyTracker::lruBlockVictim(std::uint64_t skip_pages) const
{
    std::uint64_t to_skip = skip_pages;
    // Chunks cold-to-hot, blocks cold-to-hot within each chunk.
    for (std::uint32_t c = chunk_tail_; c != npos;
         c = chunk_recs_[c].prev) {
        const ChunkRec &chunk = chunk_recs_[c];
        for (std::uint8_t b = chunk.block_tail; b != bnil;
             b = chunk.blocks[b].prev) {
            std::uint64_t pages = chunk.blocks[b].pages;
            if (to_skip >= pages) {
                to_skip -= pages;
                continue;
            }
            return chunk.slot_id * blocksPerLargePage + b;
        }
    }
    return std::nullopt;
}

std::optional<std::uint64_t>
ResidencyTracker::lruLargePageVictim(std::uint64_t skip_pages) const
{
    std::uint64_t to_skip = skip_pages;
    for (std::uint32_t c = chunk_tail_; c != npos;
         c = chunk_recs_[c].prev) {
        const ChunkRec &chunk = chunk_recs_[c];
        if (to_skip >= chunk.pages) {
            to_skip -= chunk.pages;
            continue;
        }
        return chunk.slot_id;
    }
    return std::nullopt;
}

std::vector<PageNum>
ResidencyTracker::pagesInBlock(std::uint64_t block) const
{
    std::vector<PageNum> out;
    auto cit = chunk_of_.find(block / blocksPerLargePage);
    if (cit == chunk_of_.end())
        return out;
    const BlockRec &rec =
        chunk_recs_[cit->second]
            .blocks[block & (blocksPerLargePage - 1)];
    PageNum first = pageOf(basicBlockBase(block));
    for (unsigned p = 0; p < pagesPerBasicBlock; ++p) {
        if (rec.page_bits & (1u << p))
            out.push_back(first + p);
    }
    return out;
}

std::vector<PageNum>
ResidencyTracker::pagesInLargePage(std::uint64_t slot) const
{
    std::vector<PageNum> out;
    auto cit = chunk_of_.find(slot);
    if (cit == chunk_of_.end())
        return out;
    const ChunkRec &chunk = chunk_recs_[cit->second];
    PageNum first = pageOf(slot << largePageShift);
    for (unsigned b = 0; b < blocksPerLargePage; ++b) {
        std::uint16_t bits = chunk.blocks[b].page_bits;
        if (bits == 0)
            continue;
        PageNum base = first + b * pagesPerBasicBlock;
        for (unsigned p = 0; p < pagesPerBasicBlock; ++p) {
            if (bits & (1u << p))
                out.push_back(base + p);
        }
    }
    return out;
}

std::uint64_t
ResidencyTracker::blockResidentPages(std::uint64_t block) const
{
    auto cit = chunk_of_.find(block / blocksPerLargePage);
    if (cit == chunk_of_.end())
        return 0;
    return chunk_recs_[cit->second]
        .blocks[block & (blocksPerLargePage - 1)]
        .pages;
}

std::vector<PageNum>
ResidencyTracker::coldPages(std::uint64_t n) const
{
    std::vector<PageNum> out;
    out.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(n, slot_of_.size())));
    for (std::uint32_t slot = page_tail_;
         slot != npos && out.size() < n; slot = page_recs_[slot].prev)
        out.push_back(page_recs_[slot].page);
    return out;
}

bool
ResidencyTracker::checkConsistent() const
{
    if (random_pool_.size() != slot_of_.size())
        return false;

    // Flat LRU: every tracked page linked exactly once, links sane,
    // the random pool the exact inverse of each record's rand_idx.
    std::uint64_t walked = 0;
    std::uint32_t prev = npos;
    for (std::uint32_t slot = page_head_; slot != npos;
         slot = page_recs_[slot].next) {
        const PageRec &rec = page_recs_[slot];
        if (rec.prev != prev)
            return false;
        const std::uint32_t *found = slot_of_.find(rec.page);
        if (!found || *found != slot)
            return false;
        if (rec.rand_idx >= random_pool_.size() ||
            random_pool_[rec.rand_idx] != slot)
            return false;
        if (rec.chunk >= chunk_recs_.size() ||
            chunk_recs_[rec.chunk].slot_id !=
                largePageOf(pageBase(rec.page)))
            return false;
        prev = slot;
        if (++walked > slot_of_.size())
            return false;
    }
    if (walked != slot_of_.size() || page_tail_ != prev)
        return false;

    // Hierarchy: per-block counts sum to chunk counts, bitmaps match
    // counts, block LRU membership iff the block holds pages, and
    // every chunk in the map is on the chunk LRU list exactly once.
    std::uint64_t hierarchy_pages = 0;
    std::uint64_t chunks_walked = 0;
    std::uint32_t cprev = npos;
    for (std::uint32_t c = chunk_head_; c != npos;
         c = chunk_recs_[c].next) {
        const ChunkRec &chunk = chunk_recs_[c];
        if (chunk.prev != cprev)
            return false;
        auto cit = chunk_of_.find(chunk.slot_id);
        if (cit == chunk_of_.end() || cit->second != c)
            return false;

        std::uint64_t chunk_pages = 0;
        std::uint64_t linked_blocks = 0;
        for (unsigned b = 0; b < blocksPerLargePage; ++b) {
            const BlockRec &block = chunk.blocks[b];
            if (static_cast<unsigned>(
                    std::popcount(block.page_bits)) != block.pages)
                return false;
            chunk_pages += block.pages;
        }
        if (chunk_pages != chunk.pages || chunk.pages == 0)
            return false;
        std::uint8_t bprev = bnil;
        for (std::uint8_t b = chunk.block_head; b != bnil;
             b = chunk.blocks[b].next) {
            if (chunk.blocks[b].prev != bprev ||
                chunk.blocks[b].pages == 0)
                return false;
            bprev = b;
            if (++linked_blocks > blocksPerLargePage)
                return false;
        }
        if (chunk.block_tail != bprev)
            return false;
        std::uint64_t nonempty = 0;
        for (unsigned b = 0; b < blocksPerLargePage; ++b)
            nonempty += chunk.blocks[b].pages > 0;
        if (linked_blocks != nonempty)
            return false;

        hierarchy_pages += chunk.pages;
        cprev = c;
        if (++chunks_walked > chunk_of_.size())
            return false;
    }
    if (chunks_walked != chunk_of_.size() || chunk_tail_ != cprev)
        return false;
    return hierarchy_pages == slot_of_.size();
}

} // namespace uvmsim
