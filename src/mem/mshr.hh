/**
 * @file
 * Far-fault Miss Status Handling Registers.
 *
 * When a warp's access touches an invalid page the fault is registered
 * here (step 3 of the paper's Figure 1 control flow).  Subsequent
 * faults on the same page merge into the existing entry instead of
 * triggering duplicate migrations.  When the migration completes, the
 * MSHR is consulted to replay every waiting access (step 6).
 */

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/types.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace uvmsim
{

/** Merge/replay registers for outstanding far-faults. */
class FarFaultMshr
{
  public:
    /** Continuation replayed when the page becomes valid. */
    using Waiter = EventQueue::Thunk;

    FarFaultMshr();

    /**
     * Register a fault against a page.
     *
     * @param page        Faulting virtual page.
     * @param on_resolved Invoked (via complete()) when the page becomes
     *                    valid; an empty Waiter parks nothing.
     * @return true if this is the first (primary) fault for the page --
     *         i.e. the caller must initiate a migration; false when it
     *         merged into an existing entry.
     */
    bool registerFault(PageNum page, Waiter on_resolved);

    /**
     * Register an in-flight *prefetch* migration for a page.  Creates
     * an entry with no waiter so later faults merge and eviction
     * logic can see the page is in flight; counted separately from
     * demand faults.
     * @return true if a new entry was created.
     */
    bool registerPrefetch(PageNum page);

    /** Whether a migration for the page is already in flight. */
    bool isPending(PageNum page) const;

    /**
     * Resolve a page: removes its entry and returns the waiters, which
     * the caller invokes (ordering: registration order).
     * Pages with no entry return an empty list -- that is normal for
     * pages that were pure prefetches with no faulting waiter.
     */
    std::vector<Waiter> complete(PageNum page);

    /** Number of distinct pages with in-flight migrations. */
    std::size_t pendingPages() const { return entries_.size(); }

    /** Every page with an in-flight migration, ascending (for the
     *  SimAuditor's sweep). */
    std::vector<PageNum> pendingPageList() const;

    /** Total number of waiters currently parked. */
    std::size_t pendingWaiters() const { return waiter_count_; }

    /** Register this component's statistics. */
    void registerStats(stats::StatRegistry &registry);

  private:
    std::unordered_map<PageNum, std::vector<Waiter>> entries_;
    std::size_t waiter_count_ = 0;

    stats::Counter primary_faults_;
    stats::Counter merged_faults_;
    stats::Counter prefetch_entries_;
    stats::Maximum max_outstanding_;
};

} // namespace uvmsim
