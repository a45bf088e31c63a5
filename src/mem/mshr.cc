#include "mshr.hh"

#include <algorithm>

namespace uvmsim
{

FarFaultMshr::FarFaultMshr()
    : primary_faults_("mshr.primary_faults",
                      "far-faults that initiated a migration"),
      merged_faults_("mshr.merged_faults",
                     "far-faults merged into an in-flight migration"),
      prefetch_entries_("mshr.prefetch_entries",
                        "in-flight prefetch migrations tracked"),
      max_outstanding_("mshr.max_outstanding",
                       "peak number of distinct pending pages")
{
}

bool
FarFaultMshr::registerFault(PageNum page, Waiter on_resolved)
{
    auto [it, inserted] = entries_.try_emplace(page);
    if (on_resolved) {
        it->second.push_back(on_resolved);
        ++waiter_count_;
    }
    if (inserted) {
        ++primary_faults_;
        max_outstanding_.sample(static_cast<double>(entries_.size()));
    } else {
        ++merged_faults_;
    }
    return inserted;
}

bool
FarFaultMshr::registerPrefetch(PageNum page)
{
    auto [it, inserted] = entries_.try_emplace(page);
    (void)it;
    if (inserted) {
        ++prefetch_entries_;
        max_outstanding_.sample(static_cast<double>(entries_.size()));
    }
    return inserted;
}

bool
FarFaultMshr::isPending(PageNum page) const
{
    return entries_.count(page) > 0;
}

std::vector<PageNum>
FarFaultMshr::pendingPageList() const
{
    std::vector<PageNum> pages;
    pages.reserve(entries_.size());
    for (const auto &[page, waiters] : entries_)
        pages.push_back(page);
    std::sort(pages.begin(), pages.end());
    return pages;
}

std::vector<FarFaultMshr::Waiter>
FarFaultMshr::complete(PageNum page)
{
    auto it = entries_.find(page);
    if (it == entries_.end())
        return {};
    std::vector<Waiter> waiters = std::move(it->second);
    entries_.erase(it);
    waiter_count_ -= waiters.size();
    return waiters;
}

void
FarFaultMshr::registerStats(stats::StatRegistry &registry)
{
    registry.add(&primary_faults_);
    registry.add(&merged_faults_);
    registry.add(&prefetch_entries_);
    registry.add(&max_outstanding_);
}

} // namespace uvmsim
