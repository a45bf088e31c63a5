/**
 * @file
 * The GPU page table.
 *
 * Maps virtual page numbers to device frames with the valid / dirty /
 * accessed flags the paper's policies consult.  Following the paper we
 * model the translation structure functionally (a dense page-indexed
 * map) and charge walk latency separately (100 core cycles, Table 2)
 * in the GMMU.
 */

#pragma once

#include <cstdint>
#include <optional>

#include "mem/page_map.hh"
#include "mem/types.hh"
#include "sim/stats.hh"

namespace uvmsim
{

/** One page table entry. */
struct Pte
{
    FrameNum frame = invalidFrame; //!< Backing device frame.
    bool valid = false;    //!< Data resident and mapped on the device.
    bool dirty = false;    //!< Written since migration.
    bool accessed = false; //!< Referenced since migration.
};

/** Flat per-device page table. */
class PageTable
{
  public:
    PageTable();

    /**
     * Look up the entry for a page.
     * @return nullptr when no entry exists at all.
     */
    const Pte *lookup(PageNum page) const;

    /** True iff an entry exists and its valid flag is set. */
    bool isValid(PageNum page) const;

    /**
     * Install (or re-validate) a mapping after a completed migration.
     * Sets the valid flag; clears dirty/accessed.
     */
    void mapPage(PageNum page, FrameNum frame);

    /**
     * Invalidate a page on eviction.
     * @return The frame the page occupied, or invalidFrame if the page
     *         was not valid (the entry is kept with valid=false, as new
     *         PTEs are created on first touch and re-validated later).
     */
    FrameNum invalidatePage(PageNum page);

    /** Record a read access: sets the accessed flag. @pre valid. */
    void markAccessed(PageNum page);

    /** Record a write access: sets accessed and dirty. @pre valid. */
    void markDirty(PageNum page);

    /** Whether the page is valid and dirty. */
    bool isDirty(PageNum page) const;

    /** Whether the page is valid and was accessed since migration. */
    bool wasAccessed(PageNum page) const;

    /** Number of currently valid pages. */
    std::uint64_t validPages() const { return valid_pages_; }

    /** Total entries (valid + previously valid). */
    std::size_t entries() const { return table_.size(); }

    /** Drop everything (between kernel benchmarks). */
    void clear();

    /** Register this component's statistics. */
    void registerStats(stats::StatRegistry &registry);

  private:
    /** The page's entry when it is valid, else nullptr. */
    Pte *validEntry(PageNum page);

    PageMap<Pte> table_;
    std::uint64_t valid_pages_ = 0;

    stats::Counter mappings_;
    stats::Counter invalidations_;
};

} // namespace uvmsim
