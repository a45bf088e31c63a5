/**
 * @file
 * The GPU Memory Management Unit.
 *
 * Implements the paper's Figure 1 control flow: SM load/store units
 * relay TLB misses here; the GMMU walks the page table (100 core
 * cycles), registers far-faults in the MSHRs, and resolves them via a
 * serial fault-handling engine that charges the measured 45us driver
 * latency per fault service, asks the active hardware prefetcher for
 * the migration set, reserves device frames (evicting under
 * over-subscription), and schedules grouped PCI-e transfers.  When a
 * transfer lands, PTEs are validated and the waiting warps replay.
 *
 * Over-subscription control (paper Secs. 4.2, 7.2): the GMMU latches
 * an "oversubscribed" state the first time device occupancy reaches
 * capacity minus the configured free-page buffer; from then on the
 * configured after-capacity prefetcher (usually "none" or the
 * eviction-compatible one) takes over, and the free-page buffer is
 * maintained by threshold pre-eviction.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/auditor.hh"
#include "core/eviction.hh"
#include "core/managed_space.hh"
#include "core/tenant.hh"
#include "core/policies.hh"
#include "core/prefetcher.hh"
#include "core/residency_tracker.hh"
#include "interconnect/pcie_link.hh"
#include "mem/frame_allocator.hh"
#include "mem/mshr.hh"
#include "mem/page_table.hh"
#include "mem/types.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace uvmsim
{

/** Tunables for the GMMU (paper Table 2 defaults). */
struct GmmuConfig
{
    /** Driver latency to service one far-fault batch (45us measured). */
    Tick fault_handling_latency = microseconds(45);

    /**
     * Distinct faulting pages serviced per 45us window.  1 is the
     * strict serial model; larger values model a driver that drains
     * several fault-buffer entries per pass (ablation A6).
     */
    std::uint32_t fault_batch_size = 1;

    /**
     * Relative jitter on the fault handling latency: each service
     * costs latency * (1 +/- jitter * U[-1,1]).  The paper reports
     * 45us as an *average*; 0 keeps the deterministic fixed cost.
     */
    double fault_latency_jitter = 0.0;
    /** Page table walk latency (100 cycles at 1481 MHz). */
    Tick page_walk_latency = 100 * periodFromMHz(1481.0);

    /**
     * Concurrent page-table walkers (the multi-threaded walk model of
     * Ausavarungnirun et al. the paper adopts, Sec. 6.1).  Walks
     * beyond this queue on the earliest-free walker.  0 = unlimited.
     */
    std::uint32_t page_walkers = 8;

    /**
     * Far-fault MSHR capacity in distinct pages (Figure 1's "Far-fault
     * MSHRs" are a finite structure).  Faults arriving with the MSHRs
     * full retry after mshr_retry_latency.  0 = unlimited.
     */
    std::uint32_t mshr_entries = 0;

    /** Retry delay when the MSHRs are full. */
    Tick mshr_retry_latency = microseconds(1);
    /** Prefetcher used while the working set still fits. */
    PrefetcherKind prefetcher_before = PrefetcherKind::treeBasedNeighborhood;
    /** Prefetcher used once over-subscribed. */
    PrefetcherKind prefetcher_after = PrefetcherKind::none;
    /** Eviction policy under over-subscription. */
    EvictionKind eviction = EvictionKind::lru4k;
    /** Free-page buffer maintained by threshold pre-eviction (pages). */
    std::uint64_t free_buffer_pages = 0;
    /** Fraction of the LRU list (cold end) reserved from eviction. */
    double lru_reserve_fraction = 0.0;

    /**
     * Honor the block policies' whole-unit write-back (paper Sec. 5.1
     * design choice).  Setting this false forces dirty-page-only
     * write-back for every policy -- the ablation of that choice.
     */
    bool whole_unit_writeback = true;
    /** Seed for the policy RNG (Rp / Re). */
    std::uint64_t seed = 1;

    /**
     * Cross-tenant eviction arbitration (multi-tenant runs only).
     * globalLru keeps the single shared recency order; staticQuota and
     * proportionalShare track residency per tenant and reclaim from
     * the most over-entitled tenant under pressure (core/tenant.hh).
     */
    TenantEvictionKind tenant_eviction = TenantEvictionKind::globalLru;

    /**
     * Run the SimAuditor's cross-subsystem sweep after every fault
     * service, migration arrival and eviction drain (see
     * core/auditor.hh).  O(resident pages) per check -- keep off for
     * performance runs.  The UVMSIM_AUDIT build option forces this on
     * for every run regardless of the flag.
     */
    bool audit = false;
};

/** The GPU memory management unit with UVM support. */
class Gmmu
{
  public:
    /** Run when a translated access may proceed to the caches. */
    using AccessDone = EventQueue::Thunk;
    /** Invoked for every page invalidation so SM TLBs can shoot down. */
    using TlbShootdownFn = std::function<void(PageNum)>;
    /** Observer of completed page accesses (used for Fig. 12 traces). */
    using AccessObserver = std::function<void(Tick, PageNum, bool)>;

    /**
     * Multi-tenant constructor: the GMMU serves every space in the
     * set, keeping per-tenant fault queues, MSHR accounting and
     * over-subscription latches keyed by the tenant bits of each
     * address.
     */
    Gmmu(EventQueue &eq, PcieLink &pcie, FrameAllocator &frames,
         PageTable &page_table, TenantSet &tenants, GmmuConfig config);

    /** Single-space convenience constructor (wraps a TenantSet). */
    Gmmu(EventQueue &eq, PcieLink &pcie, FrameAllocator &frames,
         PageTable &page_table, ManagedSpace &space, GmmuConfig config);

    Gmmu(const Gmmu &) = delete;
    Gmmu &operator=(const Gmmu &) = delete;

    /** Register the SM TLB shootdown hook. */
    void setTlbShootdown(TlbShootdownFn fn) { tlb_shootdown_ = std::move(fn); }

    /** Register an access observer (pass nullptr to clear). */
    void setAccessObserver(AccessObserver fn) { observer_ = std::move(fn); }

    /**
     * Resolve a TLB-missing access: page walk, then either complete or
     * take the far-fault path.  `done` fires when the page is valid
     * and the access has been accounted (recency/dirty bits).
     */
    void translate(const MemAccess &access, AccessDone done);

    /**
     * Account a TLB-hitting access (no walk, no fault possible):
     * updates recency and dirty/accessed flags.
     */
    void recordAccess(const MemAccess &access);

    /**
     * User-directed prefetch (the cudaMemPrefetchAsync path of paper
     * Sec. 3): asynchronously migrate every non-resident page of the
     * range, grouped into large-page-sized transfers.  Runs
     * concurrently with kernel execution; faults on in-flight pages
     * merge as usual.
     */
    void prefetchRange(Addr base, std::uint64_t bytes);

    /** Whether any tenant's over-subscription latch has tripped. */
    bool oversubscribed() const { return oversubscribed_; }

    /**
     * Whether one tenant's latch has tripped.  The before/after
     * prefetcher switch is evaluated per tenant: a tenant arriving
     * after another filled the device still runs its aggressive
     * prefetcher until its own first fault observes the pressure.
     */
    bool
    oversubscribedTenant(TenantId t) const
    {
        return tenant_oversub_[t] != 0;
    }

    /** The recency tracker (exposed for tests and policies). */
    ResidencyTracker &residency() { return residency_.front(); }

    /** Recency trackers in use: 1, or one per tenant under quotas. */
    std::uint32_t
    numTrackers() const
    {
        return static_cast<std::uint32_t>(residency_.size());
    }

    /** One recency tracker (per-tenant under quota policies). */
    ResidencyTracker &tracker(std::uint32_t i) { return residency_[i]; }

    /** The tenant set this GMMU serves. */
    TenantSet &tenants() { return tenants_; }

    /**
     * Every resident page, coldest first; per-tenant trackers
     * concatenate in tenant order.  Snapshot/observability helper.
     */
    std::vector<PageNum> residentColdToHot() const;

    /** The MSHRs (exposed for tests). */
    FarFaultMshr &mshr() { return mshr_; }

    /** Whether the state auditor is active for this GMMU. */
    bool auditEnabled() const { return auditor_ != nullptr; }

    /** The auditor, or nullptr when auditing is off (for tests). */
    SimAuditor *auditor() { return auditor_.get(); }

    /** Number of fault services performed. */
    std::uint64_t faultServices() const { return fault_services_.count(); }

    /** Register this component's statistics. */
    void registerStats(stats::StatRegistry &registry);

    /** Attach an event tracer (nullptr = tracing off, the default). */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

  private:
    /** Emit one trace event when tracing is on (branch-on-null). */
    void
    emit(const trace::Event &event)
    {
        if (tracer_)
            tracer_->record(event);
    }

    /** Emit with the event attributed to `owner`'s tenant. */
    void
    emit(trace::Event event, PageNum owner)
    {
        if (tracer_) {
            event.tenant = tenants_.tenantOf(owner);
            tracer_->record(event);
        }
    }

    /** One queued request for device frames. */
    struct FrameRequest
    {
        std::uint64_t pages;
        TenantId tenant;
        std::function<void(std::vector<FrameNum>)> grant;
    };

    /**
     * One translating access, pooled so the walk-completion event and
     * the far-fault MSHR waiter are both the POD (fn, this, slot).  The
     * slot lives from translate() through the walk, any MSHR-full
     * retries and the far fault, until the access completes.
     */
    struct WalkRequest
    {
        MemAccess access;
        AccessDone done;
        std::uint32_t next = 0; //!< Free-list link.
    };

    std::uint32_t allocWalk(const MemAccess &access, AccessDone done);

    /** POD event thunk: the walk (or retry) of a slot finished;
     *  complete the access or take the far-fault path. */
    static void walkDoneThunk(void *gmmu, std::uint64_t slot);

    /** MSHR waiter: the slot's faulting page became valid. */
    static void faultResolvedThunk(void *gmmu, std::uint64_t slot);

    /** Account the slot's access, free the slot, run its AccessDone. */
    void finishWalk(std::uint32_t slot);

    /** Register the slot's far-fault and wake the fault engine. */
    void raiseFault(std::uint32_t slot);

    /** Start servicing the next queued fault batch if the engine is
     *  idle. */
    void kickFaultEngine();

    /** POD event thunk for serviceBatch(). */
    static void serviceBatchThunk(void *gmmu, std::uint64_t);

    /** Runs fault_handling_latency after a batch service began. */
    void serviceBatch();

    /** Handle one faulting page of a batch. */
    void serviceFault(PageNum page);

    /**
     * Schedule PCI-e migration of `pages` (ascending, tree-marked).
     * When `faulty` is set, that page is transferred in its own
     * leading 4KB group so its warps wake first.
     */
    void scheduleMigration(std::vector<PageNum> pages,
                           std::optional<PageNum> faulty);

    /** A migration transfer landed: validate PTEs and replay. */
    void migrationArrived(const std::vector<PageNum> &pages);

    /** Queue a frame reservation for one tenant and pump the queue. */
    void ensureFrames(std::uint64_t pages, TenantId tenant,
                      std::function<void(std::vector<FrameNum>)> grant);

    /** Satisfy queued frame requests; evict when short. */
    void pumpFrameQueue();

    /**
     * Run eviction selections until free + in-flight frees reach
     * `target_frames`, charging `requester` as the tenant whose demand
     * forces the reclaim.  @return false when nothing more is
     * evictable.
     */
    bool evictUntil(std::uint64_t target_frames, TenantId requester);

    /** Apply one selected victim set; schedules write-backs. */
    std::uint64_t applyEviction(const std::vector<PageNum> &victims,
                                TenantId requester);

    /**
     * The tenant that pays for the next reclaim under per-tenant
     * tracking: the one furthest above its frame entitlement (static
     * quota or footprint-proportional share), falling back to the
     * requester itself, then to the largest resident set.
     */
    TenantId pickVictimTenant(TenantId requester) const;

    /** Latch one tenant's over-subscription and switch its prefetcher. */
    void enterOversubscription(TenantId tenant);

    /** Threshold pre-eviction to keep the free-page buffer full. */
    void maintainFreeBuffer();

    /** The prefetcher active right now for one tenant's faults. */
    Prefetcher &activePrefetcher(TenantId tenant);

    /** Run the auditor's full sweep, when enabled. */
    void audit(const char *context);

    /** Common post-translation accounting. */
    void accountAccess(const MemAccess &access);

    /** Whether residency is tracked per tenant (quota policies). */
    bool perTenantTracking() const { return residency_.size() > 1; }

    /** The tracker holding one page's recency state. */
    ResidencyTracker &
    trackerFor(PageNum page)
    {
        return perTenantTracking() ? residency_[tenants_.tenantOf(page)]
                                   : residency_.front();
    }

    /** Per-tenant MSHR occupancy bookkeeping. */
    void mshrEnter(PageNum page);
    void mshrExit(PageNum page);

    EventQueue &eq_;
    PcieLink &pcie_;
    FrameAllocator &frames_;
    PageTable &page_table_;
    TenantSet &tenants_;
    /** Backing store for the single-space convenience constructor. */
    std::unique_ptr<TenantSet> owned_view_;
    GmmuConfig config_;

    FarFaultMshr mshr_;
    /** One tracker, or one per tenant under quota policies. */
    std::vector<ResidencyTracker> residency_;
    Rng rng_;
    std::unique_ptr<SimAuditor> auditor_;

    std::unique_ptr<Prefetcher> prefetcher_before_;
    std::unique_ptr<Prefetcher> prefetcher_after_;
    std::unique_ptr<EvictionPolicy> eviction_;

    TlbShootdownFn tlb_shootdown_;
    AccessObserver observer_;
    trace::Tracer *tracer_ = nullptr;

    /**
     * Per-tenant fault queues: one tenant's fault burst cannot starve
     * another's, and a service batch never mixes tenants (the driver
     * handles each context's fault buffer separately).  Round-robin
     * across non-empty queues.
     */
    std::vector<std::deque<PageNum>> fault_queues_;
    TenantId fault_rr_ = 0;
    bool engine_busy_ = false;
    /** The batch in service; the engine holds at most one at a time. */
    std::vector<PageNum> service_batch_;

    std::vector<WalkRequest> walks_;
    std::uint32_t walk_free_ = ~std::uint32_t{0};

    /** Earliest-free tick of each page-table walker thread. */
    std::vector<Tick> walker_free_;

    std::deque<FrameRequest> frame_requests_;
    std::uint64_t pending_free_frames_ = 0;
    /** Frames granted to migrations whose transfer has not landed
     *  yet; these become evictable once mapped, so a frame shortage
     *  with transit outstanding waits instead of failing. */
    std::uint64_t frames_in_transit_ = 0;
    /** Any-tenant latch (drives the snapshot/global stat). */
    bool oversubscribed_ = false;
    /** Per-tenant over-subscription latches. */
    std::vector<char> tenant_oversub_;
    /** Tenant whose activity the frame pump is currently serving. */
    TenantId last_tenant_ = 0;
    /** Per-tenant count of MSHR-pending pages. */
    std::vector<std::uint64_t> tenant_mshr_pending_;

    stats::Counter far_faults_;
    stats::Counter fault_services_;
    stats::Counter skipped_services_;
    stats::Counter prefetches_trimmed_;
    stats::Counter pages_migrated_;
    stats::Counter pages_prefetched_;
    stats::Counter pages_evicted_;
    stats::Counter pages_written_back_;
    stats::Counter pages_thrashed_;
    stats::Counter walk_count_;
    stats::Average walk_queue_delay_ns_;
    stats::Counter mshr_stalls_;
    stats::Counter user_prefetched_pages_;
    stats::Scalar oversubscribed_at_us_;
    stats::Counter audit_checks_;

    /** Per-tenant counters, created only for multi-tenant runs. */
    struct TenantStats
    {
        TenantStats(TenantId t);
        stats::Counter far_faults;
        stats::Counter pages_migrated;
        stats::Counter pages_evicted;
        stats::Counter pages_evicted_cross;
        stats::Maximum mshr_pending_peak;
        stats::Scalar oversubscribed_at_us;
    };
    std::vector<std::unique_ptr<TenantStats>> tenant_stats_;
};

} // namespace uvmsim
