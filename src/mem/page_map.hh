/**
 * @file
 * A dense map keyed by virtual page number.
 *
 * The per-access lookups (a page's PTE, a resident page's recency
 * record) index this map instead of hashing.  It has two levels: a
 * directory with one entry per 2MB region of virtual address space,
 * and a leaf per region that holds the region's 512 values and a
 * presence bitmap.  A leaf is allocated the first time one of its
 * pages is inserted and lives until clear(), so memory grows with the
 * 2MB regions actually touched.  The directory grows to the highest
 * region touched: 8 bytes per 2MB below it, at most 2MB of directory
 * at the 2^39-byte managed VA limit (tenant spaces sit 2^35 bytes
 * apart, so a value array over the whole span is out of the
 * question).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mem/types.hh"
#include "sim/logging.hh"

namespace uvmsim
{

/** Map from PageNum to V with O(1), hash-free find/insert/erase. */
template <typename V>
class PageMap
{
  public:
    /** Pages below this bound are mappable: the 2^39-byte VA limit. */
    static constexpr PageNum maxPages = PageNum{1} << (39 - pageShift);

    /** The value of a present page, or nullptr. */
    V *
    find(PageNum page)
    {
        return const_cast<V *>(std::as_const(*this).find(page));
    }

    const V *
    find(PageNum page) const
    {
        const std::uint64_t region = page >> leafShift;
        if (region >= dir_.size() || !dir_[region])
            return nullptr;
        const Leaf &leaf = *dir_[region];
        const std::uint64_t i = page & (leafPages - 1);
        return (leaf.present[i / 64] >> (i % 64)) & 1 ? &leaf.values[i]
                                                      : nullptr;
    }

    /** Whether the page is present. */
    bool contains(PageNum page) const { return find(page) != nullptr; }

    /**
     * Insert a value-initialized V for an absent page.
     * @return The page's value and whether it was inserted.
     */
    std::pair<V *, bool>
    tryEmplace(PageNum page)
    {
        if (page >= maxPages)
            panic("page %llu lies beyond the managed VA limit",
                  static_cast<unsigned long long>(page));
        const std::uint64_t region = page >> leafShift;
        if (region >= dir_.size())
            dir_.resize(region + 1);
        if (!dir_[region])
            dir_[region] = std::make_unique<Leaf>();
        Leaf &leaf = *dir_[region];
        const std::uint64_t i = page & (leafPages - 1);
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        if (leaf.present[i / 64] & bit)
            return {&leaf.values[i], false};
        leaf.present[i / 64] |= bit;
        leaf.values[i] = V{};
        ++size_;
        return {&leaf.values[i], true};
    }

    /** Remove a page. @return Whether it was present. */
    bool
    erase(PageNum page)
    {
        const std::uint64_t region = page >> leafShift;
        if (region >= dir_.size() || !dir_[region])
            return false;
        Leaf &leaf = *dir_[region];
        const std::uint64_t i = page & (leafPages - 1);
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        if (!(leaf.present[i / 64] & bit))
            return false;
        leaf.present[i / 64] &= ~bit;
        --size_;
        return true;
    }

    /** Number of present pages. */
    std::size_t size() const { return size_; }

    /** Drop every page and release every leaf. */
    void
    clear()
    {
        dir_.clear();
        size_ = 0;
    }

  private:
    static constexpr unsigned leafShift = largePageShift - pageShift;
    static constexpr std::uint64_t leafPages = std::uint64_t{1}
                                               << leafShift;

    /** One 2MB region: its pages' values and which are present. */
    struct Leaf
    {
        std::uint64_t present[leafPages / 64] = {};
        V values[leafPages] = {};
    };

    std::vector<std::unique_ptr<Leaf>> dir_;
    std::size_t size_ = 0;
};

} // namespace uvmsim
