#include "page_table.hh"

#include "sim/logging.hh"

namespace uvmsim
{

PageTable::PageTable()
    : mappings_("page_table.mappings", "PTE validations performed"),
      invalidations_("page_table.invalidations", "PTE invalidations performed")
{
}

const Pte *
PageTable::lookup(PageNum page) const
{
    return table_.find(page);
}

bool
PageTable::isValid(PageNum page) const
{
    const Pte *pte = lookup(page);
    return pte && pte->valid;
}

Pte *
PageTable::validEntry(PageNum page)
{
    Pte *pte = table_.find(page);
    return pte && pte->valid ? pte : nullptr;
}

void
PageTable::mapPage(PageNum page, FrameNum frame)
{
    if (frame == invalidFrame)
        panic("mapPage with invalid frame (page %llu)",
              static_cast<unsigned long long>(page));

    Pte &pte = *table_.tryEmplace(page).first;
    if (pte.valid)
        panic("double mapping of page %llu",
              static_cast<unsigned long long>(page));
    pte.frame = frame;
    pte.valid = true;
    pte.dirty = false;
    pte.accessed = false;
    ++valid_pages_;
    ++mappings_;
}

FrameNum
PageTable::invalidatePage(PageNum page)
{
    Pte *pte = validEntry(page);
    if (!pte)
        return invalidFrame;
    FrameNum frame = pte->frame;
    pte->valid = false;
    pte->frame = invalidFrame;
    pte->dirty = false;
    pte->accessed = false;
    --valid_pages_;
    ++invalidations_;
    return frame;
}

void
PageTable::markAccessed(PageNum page)
{
    Pte *pte = validEntry(page);
    if (!pte)
        panic("markAccessed on invalid page %llu",
              static_cast<unsigned long long>(page));
    pte->accessed = true;
}

void
PageTable::markDirty(PageNum page)
{
    Pte *pte = validEntry(page);
    if (!pte)
        panic("markDirty on invalid page %llu",
              static_cast<unsigned long long>(page));
    pte->accessed = true;
    pte->dirty = true;
}

bool
PageTable::isDirty(PageNum page) const
{
    const Pte *pte = lookup(page);
    return pte && pte->valid && pte->dirty;
}

bool
PageTable::wasAccessed(PageNum page) const
{
    const Pte *pte = lookup(page);
    return pte && pte->valid && pte->accessed;
}

void
PageTable::clear()
{
    table_.clear();
    valid_pages_ = 0;
}

void
PageTable::registerStats(stats::StatRegistry &registry)
{
    registry.add(&mappings_);
    registry.add(&invalidations_);
}

} // namespace uvmsim
