#include "gmmu.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace uvmsim
{

Gmmu::Gmmu(EventQueue &eq, PcieLink &pcie, FrameAllocator &frames,
           PageTable &page_table, TenantSet &tenants, GmmuConfig config)
    : eq_(eq),
      pcie_(pcie),
      frames_(frames),
      page_table_(page_table),
      tenants_(tenants),
      config_(config),
      rng_(config.seed),
      prefetcher_before_(makePrefetcher(config.prefetcher_before)),
      prefetcher_after_(makePrefetcher(config.prefetcher_after)),
      eviction_(makeEvictionPolicy(config.eviction)),
      far_faults_("gmmu.far_faults",
                  "far-faults that initiated a fault service"),
      fault_services_("gmmu.fault_services",
                      "fault-engine services performed (45us each)"),
      skipped_services_("gmmu.skipped_services",
                        "services whose page was already in flight"),
      prefetches_trimmed_("gmmu.prefetches_trimmed",
                          "prefetch sets trimmed to fit device memory"),
      pages_migrated_("gmmu.pages_migrated",
                      "4KB pages migrated host-to-device"),
      pages_prefetched_("gmmu.pages_prefetched",
                        "migrated pages that were prefetches"),
      pages_evicted_("gmmu.pages_evicted", "4KB pages evicted"),
      pages_written_back_("gmmu.pages_written_back",
                          "4KB pages written back device-to-host"),
      pages_thrashed_("gmmu.pages_thrashed",
                      "evicted pages that were migrated again"),
      walk_count_("gmmu.page_walks", "page table walks performed"),
      walk_queue_delay_ns_("gmmu.walk_queue_delay_ns",
                           "mean wait for a free page walker (ns)"),
      mshr_stalls_("gmmu.mshr_stalls",
                   "faults delayed by full far-fault MSHRs"),
      user_prefetched_pages_("gmmu.user_prefetched_pages",
                             "pages migrated by user-directed prefetch"),
      oversubscribed_at_us_("gmmu.oversubscribed_at_us",
                            "sim time the over-subscription latch tripped"),
      audit_checks_("gmmu.audit_checks",
                    "SimAuditor full-state sweeps performed")
{
    // Per-tenant state: quota-style cross-tenant eviction needs one
    // recency tracker per tenant; globalLru (and every single-tenant
    // run) keeps the one shared order.  Fault queues and
    // over-subscription latches are always per tenant.
    const std::uint32_t num_tenants = tenants_.numTenants();
    bool per_tenant_tracking =
        num_tenants > 1 &&
        config_.tenant_eviction != TenantEvictionKind::globalLru;
    residency_.resize(per_tenant_tracking ? num_tenants : 1);
    fault_queues_.resize(num_tenants);
    tenant_oversub_.assign(num_tenants, 0);
    tenant_mshr_pending_.assign(num_tenants, 0);
    if (num_tenants > 1) {
        tenant_stats_.reserve(num_tenants);
        for (TenantId t = 0; t < num_tenants; ++t)
            tenant_stats_.push_back(std::make_unique<TenantStats>(t));
    }

    // The UVMSIM_AUDIT build config forces the auditor on for every
    // run (the debug CI job); otherwise it is per-run opt-in.
#ifdef UVMSIM_AUDIT
    constexpr bool audit_forced = true;
#else
    constexpr bool audit_forced = false;
#endif
    if (config_.audit || audit_forced) {
        auditor_ = std::make_unique<SimAuditor>(tenants_, residency_,
                                                page_table_, frames_,
                                                mshr_);
    }
    if (config_.lru_reserve_fraction < 0.0 ||
        config_.lru_reserve_fraction >= 1.0) {
        fatal("lru_reserve_fraction %.3f outside [0, 1)",
              config_.lru_reserve_fraction);
    }
    if (config_.page_walkers > 0)
        walker_free_.assign(config_.page_walkers, 0);
}

Gmmu::Gmmu(EventQueue &eq, PcieLink &pcie, FrameAllocator &frames,
           PageTable &page_table, ManagedSpace &space, GmmuConfig config)
    : Gmmu(eq, pcie, frames, page_table, *new TenantSet(space), config)
{
    // The delegated constructor bound tenants_ to the fresh view; take
    // ownership of it now that owned_view_ is constructed.
    owned_view_.reset(&tenants_);
}

Gmmu::TenantStats::TenantStats(TenantId t)
    : far_faults("tenant" + std::to_string(t) + ".far_faults",
                 "far-faults raised by this tenant"),
      pages_migrated("tenant" + std::to_string(t) + ".pages_migrated",
                     "4KB pages migrated for this tenant"),
      pages_evicted("tenant" + std::to_string(t) + ".pages_evicted",
                    "this tenant's 4KB pages evicted"),
      pages_evicted_cross(
          "tenant" + std::to_string(t) + ".pages_evicted_cross",
          "this tenant's pages evicted to satisfy another tenant"),
      mshr_pending_peak(
          "tenant" + std::to_string(t) + ".mshr_pending_peak",
          "peak concurrent MSHR-pending pages owned by this tenant"),
      oversubscribed_at_us(
          "tenant" + std::to_string(t) + ".oversubscribed_at_us",
          "sim time this tenant's over-subscription latch tripped")
{
}

Prefetcher &
Gmmu::activePrefetcher(TenantId tenant)
{
    return tenant_oversub_[tenant] ? *prefetcher_after_
                                   : *prefetcher_before_;
}

std::vector<PageNum>
Gmmu::residentColdToHot() const
{
    std::vector<PageNum> out;
    for (const ResidencyTracker &tracker : residency_) {
        std::vector<PageNum> one = tracker.coldPages(tracker.size());
        out.insert(out.end(), one.begin(), one.end());
    }
    return out;
}

void
Gmmu::mshrEnter(PageNum page)
{
    if (tenant_stats_.empty())
        return;
    TenantId t = tenants_.tenantOf(page);
    ++tenant_mshr_pending_[t];
    tenant_stats_[t]->mshr_pending_peak.sample(
        static_cast<double>(tenant_mshr_pending_[t]));
}

void
Gmmu::mshrExit(PageNum page)
{
    if (tenant_stats_.empty())
        return;
    --tenant_mshr_pending_[tenants_.tenantOf(page)];
}

void
Gmmu::audit(const char *context)
{
    if (!auditor_)
        return;
    auditor_->checkAll(
        context,
        SimAuditor::Transients{frames_in_transit_, pending_free_frames_});
    ++audit_checks_;
}

void
Gmmu::accountAccess(const MemAccess &access)
{
    PageNum page = pageOf(access.addr);
    if (access.is_write)
        page_table_.markDirty(page);
    else
        page_table_.markAccessed(page);
    trackerFor(page).onAccess(page);
    if (observer_)
        observer_(eq_.curTick(), page, access.is_write);
}

void
Gmmu::recordAccess(const MemAccess &access)
{
    accountAccess(access);
}

void
Gmmu::translate(const MemAccess &access, AccessDone done)
{
    ++walk_count_;

    Tick start = eq_.curTick();
    if (!walker_free_.empty()) {
        // Multi-threaded walker pool: take the earliest-free walker.
        auto it = std::min_element(walker_free_.begin(),
                                   walker_free_.end());
        start = std::max(start, *it);
        *it = start + config_.page_walk_latency;
        walk_queue_delay_ns_.sample(
            ticksToNanoseconds(start - eq_.curTick()));
    }

    eq_.scheduleCall(start + config_.page_walk_latency,
                     &Gmmu::walkDoneThunk, this, allocWalk(access, done));
}

std::uint32_t
Gmmu::allocWalk(const MemAccess &access, AccessDone done)
{
    std::uint32_t slot;
    if (walk_free_ != ~std::uint32_t{0}) {
        slot = walk_free_;
        walk_free_ = walks_[slot].next;
    } else {
        walks_.emplace_back();
        slot = static_cast<std::uint32_t>(walks_.size() - 1);
    }
    walks_[slot].access = access;
    walks_[slot].done = done;
    return slot;
}

void
Gmmu::walkDoneThunk(void *gmmu, std::uint64_t slot64)
{
    auto *self = static_cast<Gmmu *>(gmmu);
    auto slot = static_cast<std::uint32_t>(slot64);
    if (self->page_table_.isValid(pageOf(self->walks_[slot].access.addr)))
        self->finishWalk(slot);
    else
        self->raiseFault(slot);
}

void
Gmmu::faultResolvedThunk(void *gmmu, std::uint64_t slot)
{
    static_cast<Gmmu *>(gmmu)->finishWalk(static_cast<std::uint32_t>(slot));
}

void
Gmmu::finishWalk(std::uint32_t slot)
{
    // Copy out and recycle first: the continuation may start new walks
    // and reallocate the pool.
    const MemAccess access = walks_[slot].access;
    const AccessDone done = walks_[slot].done;
    walks_[slot].next = walk_free_;
    walk_free_ = slot;
    accountAccess(access);
    done();
}

void
Gmmu::raiseFault(std::uint32_t slot)
{
    const PageNum page = pageOf(walks_[slot].access.addr);

    // Finite MSHRs: a fault on a page with no existing entry must
    // wait for space; it retries through the validity check (the page
    // may even have become resident meanwhile).
    if (config_.mshr_entries > 0 && !mshr_.isPending(page) &&
        mshr_.pendingPages() >= config_.mshr_entries) {
        ++mshr_stalls_;
        eq_.scheduleCallAfter(config_.mshr_retry_latency,
                              &Gmmu::walkDoneThunk, this, slot);
        return;
    }

    bool primary = mshr_.registerFault(
        page, {&Gmmu::faultResolvedThunk, this, slot});
    DTRACE("GMMU", "far-fault on page %llu (%s)",
           static_cast<unsigned long long>(page),
           primary ? "primary" : "merged");
    emit(trace::Event{primary ? trace::Kind::faultRaised
                              : trace::Kind::faultMerged,
                      trace::Category::fault,
                      primary ? "fault" : "fault_merged", eq_.curTick(),
                      0, 1, 0, page},
         page);
    if (primary) {
        mshrEnter(page);
        fault_queues_[tenants_.tenantOf(page)].push_back(page);
        kickFaultEngine();
    }
}

void
Gmmu::kickFaultEngine()
{
    if (engine_busy_)
        return;

    // Fault-buffer entries whose page is already in flight (another
    // fault's prefetch covered them) are discarded for free -- the
    // driver processes them in the same buffer sweep.  Tenant fault
    // buffers are swept round-robin so one tenant's burst cannot
    // starve another, and a service batch never mixes tenants.
    const std::uint32_t num_queues =
        static_cast<std::uint32_t>(fault_queues_.size());
    std::deque<PageNum> *queue = nullptr;
    for (std::uint32_t k = 0; k < num_queues && !queue; ++k) {
        std::deque<PageNum> &q =
            fault_queues_[(fault_rr_ + k) % num_queues];
        while (!q.empty()) {
            LargePageTree *tree = tenants_.treeFor(q.front());
            if (!tree || !tree->pageMarked(q.front()))
                break;
            q.pop_front();
            ++skipped_services_;
        }
        if (!q.empty()) {
            queue = &q;
            fault_rr_ = ((fault_rr_ + k) % num_queues + 1) % num_queues;
        }
    }
    if (!queue)
        return;

    engine_busy_ = true;
    service_batch_.clear();
    std::uint32_t batch_size = std::max<std::uint32_t>(
        1, config_.fault_batch_size);
    while (!queue->empty() && service_batch_.size() < batch_size) {
        service_batch_.push_back(queue->front());
        queue->pop_front();
    }

    Tick latency = config_.fault_handling_latency;
    if (config_.fault_latency_jitter > 0.0) {
        double factor = 1.0 + config_.fault_latency_jitter *
                                  (2.0 * rng_.real() - 1.0);
        latency = static_cast<Tick>(
            static_cast<double>(latency) * std::max(factor, 0.0));
    }
    emit(trace::Event{trace::Kind::faultService, trace::Category::fault,
                      "fault_service", eq_.curTick(), latency,
                      service_batch_.size(), 0, service_batch_.front()},
         service_batch_.front());
    eq_.scheduleCallAfter(latency, &Gmmu::serviceBatchThunk, this, 0);
}

void
Gmmu::serviceBatchThunk(void *gmmu, std::uint64_t)
{
    static_cast<Gmmu *>(gmmu)->serviceBatch();
}

void
Gmmu::serviceBatch()
{
    ++fault_services_;
    for (PageNum page : service_batch_)
        serviceFault(page);
    audit("fault-service");
    engine_busy_ = false;
    kickFaultEngine();
}

void
Gmmu::serviceFault(PageNum page)
{
    TenantId tenant = tenants_.tenantOf(page);
    last_tenant_ = tenant;

    // The paper's over-subscription trigger: once occupancy reaches
    // capacity (minus any free-page buffer), the aggressive
    // prefetcher is replaced *before* the next migration decision.
    // Each tenant evaluates the latch at its own fault service, so a
    // tenant arriving after another filled the device switches on its
    // own observation of the pressure, not on the first tenant's.
    if (!tenant_oversub_[tenant] &&
        frames_.freeFrames() <= config_.free_buffer_pages)
        enterOversubscription(tenant);

    LargePageTree *tree = tenants_.treeFor(page);
    if (!tree)
        panic("far-fault on unmanaged page %llu",
              static_cast<unsigned long long>(page));

    if (tree->pageMarked(page)) {
        // Another fault's prefetch already scheduled (or completed)
        // this page; the MSHR wakes the waiters when it lands.
        ++skipped_services_;
    } else {
        ++far_faults_;
        if (!tenant_stats_.empty())
            ++tenant_stats_[tenant]->far_faults;
        std::vector<PageNum> pages =
            activePrefetcher(tenant).selectPages(page, *tree, rng_);

        // A single migration may never exceed half the device memory:
        // an aggressive prefetch decision is trimmed to the pages
        // nearest the fault (the driver equivalent of throttling
        // prefetch under memory pressure).
        const std::uint64_t limit =
            std::max<std::uint64_t>(1, frames_.totalFrames() / 2);
        if (pages.size() > limit) {
            std::stable_sort(pages.begin(), pages.end(),
                             [page](PageNum a, PageNum b) {
                                 auto da = a > page ? a - page : page - a;
                                 auto db = b > page ? b - page : page - b;
                                 return da < db;
                             });
            for (std::size_t i = limit; i < pages.size(); ++i)
                tree->unmarkPage(pages[i]);
            pages.resize(limit);
            std::sort(pages.begin(), pages.end());
            ++prefetches_trimmed_;
        }

        emit(trace::Event{trace::Kind::prefetchDecision,
                          trace::Category::prefetch, "prefetch_decision",
                          eq_.curTick(), 0, pages.size(),
                          pages.size() * pageSize, page},
             page);
        scheduleMigration(std::move(pages), page);
    }
}

void
Gmmu::prefetchRange(Addr base, std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    PageNum first = pageOf(base);
    PageNum last = pageOf(base + bytes - 1);

    std::vector<PageNum> batch;
    auto flush = [&]() {
        if (batch.empty())
            return;
        user_prefetched_pages_ += batch.size();
        emit(trace::Event{trace::Kind::userPrefetch,
                          trace::Category::migration, "user_prefetch",
                          eq_.curTick(), 0, batch.size(),
                          batch.size() * pageSize, batch.front()},
             batch.front());
        scheduleMigration(std::move(batch), std::nullopt);
        batch.clear();
    };

    // Chunk like the driver's async copies: within one 2MB large
    // page, and never a single batch larger than a quarter of device
    // memory (so an oversized prefetch can recycle frames by evicting
    // its own already-landed head).
    const std::uint64_t max_batch = std::max<std::uint64_t>(
        pagesPerBasicBlock,
        std::min<std::uint64_t>(pagesPerLargePage,
                                frames_.totalFrames() / 4));

    last_tenant_ = tenants_.tenantOf(first);
    for (PageNum p = first; p <= last; ++p) {
        LargePageTree *tree = tenants_.treeFor(p);
        if (!tree || tree->pageMarked(p) || page_table_.isValid(p))
            continue;
        if (!batch.empty() &&
            (batch.size() >= max_batch ||
             largePageOf(pageBase(p)) !=
                 largePageOf(pageBase(batch.back()))))
            flush();
        tree->markPage(p);
        batch.push_back(p);
    }
    flush();
    audit("user-prefetch");
}

void
Gmmu::scheduleMigration(std::vector<PageNum> pages,
                        std::optional<PageNum> faulty)
{
    if (pages.empty())
        panic("empty migration set");

    DTRACE("GMMU", "migrating %zu pages (fault %lld)", pages.size(),
           faulty ? static_cast<long long>(*faulty) : -1ll);
    emit(trace::Event{trace::Kind::migrationStart,
                      trace::Category::migration, "migration_start",
                      eq_.curTick(), 0, pages.size(),
                      pages.size() * pageSize, faulty ? *faulty : 0},
         pages.front());
    pages_migrated_ += pages.size();
    pages_prefetched_ += pages.size() - (faulty ? 1 : 0);
    TenantId tenant = tenants_.tenantOf(pages.front());
    if (!tenant_stats_.empty())
        tenant_stats_[tenant]->pages_migrated += pages.size();
    for (PageNum p : pages) {
        ManagedAllocation *alloc = tenants_.allocationFor(p);
        if (alloc && alloc->everEvicted(p))
            ++pages_thrashed_;
        // Every in-flight page gets an MSHR entry (the faulting page
        // already has one): later faults merge and eviction can tell
        // the page is in flight.
        if (!mshr_.isPending(p)) {
            mshr_.registerPrefetch(p);
            mshrEnter(p);
        }
    }

    const std::uint64_t num_pages = pages.size();
    ensureFrames(num_pages, tenant,
                 [this, pages = std::move(pages), faulty]
                 (std::vector<FrameNum> granted) {
        // Pair page[i] with granted[i], then cut the ascending page
        // list into transfers: the faulting page goes alone and first
        // (the "page fault group"), every other maximal contiguous run
        // is one grouped "prefetch group" transfer.
        struct Run
        {
            std::vector<PageNum> pages;
            std::vector<FrameNum> frames;
        };
        std::vector<Run> runs;
        Run fault_run;
        for (std::size_t i = 0; i < pages.size(); ++i) {
            if (faulty && pages[i] == *faulty) {
                fault_run.pages.push_back(pages[i]);
                fault_run.frames.push_back(granted[i]);
                continue;
            }
            // Contiguity naturally breaks across the hole left by the
            // fault-page cut, because the fault page is not in `runs`.
            bool extend = !runs.empty() &&
                          runs.back().pages.back() + 1 == pages[i] &&
                          !(faulty && pages[i] == *faulty + 1);
            if (!extend)
                runs.emplace_back();
            runs.back().pages.push_back(pages[i]);
            runs.back().frames.push_back(granted[i]);
        }

        frames_in_transit_ += granted.size();
        auto launch = [this](Run run) {
            std::uint64_t bytes = run.pages.size() * pageSize;
            auto arrive = [this, run = std::move(run)]() {
                for (std::size_t i = 0; i < run.pages.size(); ++i) {
                    page_table_.mapPage(run.pages[i], run.frames[i]);
                    trackerFor(run.pages[i]).onResident(run.pages[i]);
                }
                frames_in_transit_ -= run.pages.size();
                migrationArrived(run.pages);
                // Newly resident pages may unblock queued frame
                // requests that had nothing evictable before.
                pumpFrameQueue();
                audit("migration-arrival");
            };
            pcie_.transfer(PcieDir::hostToDevice, bytes, std::move(arrive));
        };

        if (!fault_run.pages.empty())
            launch(std::move(fault_run));
        for (auto &run : runs)
            launch(std::move(run));
    });
}

void
Gmmu::migrationArrived(const std::vector<PageNum> &pages)
{
    emit(trace::Event{trace::Kind::migrationArrived,
                      trace::Category::migration, "migration_arrived",
                      eq_.curTick(), 0, pages.size(),
                      pages.size() * pageSize, pages.front()},
         pages.front());
    for (PageNum p : pages) {
        mshrExit(p);
        auto waiters = mshr_.complete(p);
        for (auto &w : waiters)
            w();
    }
}

void
Gmmu::ensureFrames(std::uint64_t pages, TenantId tenant,
                   std::function<void(std::vector<FrameNum>)> grant)
{
    if (pages > frames_.totalFrames()) {
        fatal("migration of %llu pages exceeds device memory of %llu "
              "frames",
              static_cast<unsigned long long>(pages),
              static_cast<unsigned long long>(frames_.totalFrames()));
    }
    frame_requests_.push_back(FrameRequest{pages, tenant,
                                           std::move(grant)});
    pumpFrameQueue();
}

void
Gmmu::pumpFrameQueue()
{
    while (!frame_requests_.empty()) {
        FrameRequest &req = frame_requests_.front();
        last_tenant_ = req.tenant;
        if (frames_.freeFrames() >= req.pages) {
            std::vector<FrameNum> granted;
            granted.reserve(req.pages);
            for (std::uint64_t i = 0; i < req.pages; ++i)
                granted.push_back(*frames_.allocate());
            auto grant = std::move(req.grant);
            frame_requests_.pop_front();
            grant(std::move(granted));
            continue;
        }
        // Short on frames: this is the over-subscription moment for
        // the requesting tenant.
        if (!tenant_oversub_[req.tenant])
            enterOversubscription(req.tenant);
        if (frames_.freeFrames() + pending_free_frames_ < req.pages) {
            if (!evictUntil(req.pages, req.tenant) &&
                pending_free_frames_ == 0 &&
                frames_in_transit_ == 0) {
                fatal("device memory exhausted and nothing evictable "
                      "(need %llu frames)",
                      static_cast<unsigned long long>(req.pages));
            }
        }
        // Clean 4KB victims free their frames synchronously; retry
        // the request before deciding to wait.
        if (frames_.freeFrames() >= req.pages)
            continue;
        // Wait for in-flight write-backs; completions re-pump.
        break;
    }
    maintainFreeBuffer();
}

void
Gmmu::enterOversubscription(TenantId tenant)
{
    if (tenant_oversub_[tenant])
        return;
    tenant_oversub_[tenant] = 1;
    if (!tenant_stats_.empty()) {
        tenant_stats_[tenant]->oversubscribed_at_us.set(
            ticksToMicroseconds(eq_.curTick()));
    }
    if (!oversubscribed_) {
        oversubscribed_ = true;
        oversubscribed_at_us_.set(ticksToMicroseconds(eq_.curTick()));
    }
    trace::Event latched{trace::Kind::oversubscribed,
                         trace::Category::eviction, "oversubscribed",
                         eq_.curTick(), 0, 0, 0, tenant};
    latched.tenant = tenant;
    emit(latched);
    DTRACE("GMMU", "over-subscription latched for tenant %u at %.1f us",
           tenant, ticksToMicroseconds(eq_.curTick()));
}

void
Gmmu::maintainFreeBuffer()
{
    if (config_.free_buffer_pages == 0)
        return;
    if (frames_.freeFrames() + pending_free_frames_ >=
        config_.free_buffer_pages)
        return;
    // The buffer cannot be maintained without eviction: the threshold
    // pre-eviction latch also disables the aggressive prefetcher
    // (paper Sec. 4.2).
    if (!tenant_oversub_[last_tenant_] &&
        frames_.usedFrames() + pending_free_frames_ +
                config_.free_buffer_pages >=
            frames_.totalFrames()) {
        enterOversubscription(last_tenant_);
    }
    if (oversubscribed_)
        evictUntil(config_.free_buffer_pages, last_tenant_);
}

TenantId
Gmmu::pickVictimTenant(TenantId requester) const
{
    // Work-conserving quota arbitration: the tenant furthest above its
    // frame entitlement pays.  Entitlements are an even split for
    // staticQuota and footprint-proportional for proportionalShare
    // (recomputed per reclaim; footprints are stable by then and the
    // tenant count is small).
    const std::uint32_t n = static_cast<std::uint32_t>(residency_.size());
    std::uint64_t total = frames_.totalFrames();
    std::uint64_t total_padded = tenants_.totalPaddedBytes();

    TenantId best = requester;
    bool have_best = false;
    std::int64_t best_over = 0;
    TenantId largest = requester;
    std::uint64_t largest_size = 0;

    for (TenantId t = 0; t < n; ++t) {
        std::uint64_t resident = residency_[t].size();
        if (resident == 0)
            continue;
        std::uint64_t entitlement;
        if (config_.tenant_eviction ==
                TenantEvictionKind::proportionalShare &&
            total_padded > 0) {
            entitlement = static_cast<std::uint64_t>(
                static_cast<unsigned __int128>(total) *
                tenants_.space(t).totalPaddedBytes() / total_padded);
        } else {
            entitlement = total / n + (t < total % n ? 1 : 0);
        }
        std::int64_t over = static_cast<std::int64_t>(resident) -
                            static_cast<std::int64_t>(entitlement);
        if (!have_best || over > best_over) {
            best = t;
            best_over = over;
            have_best = true;
        }
        if (resident > largest_size) {
            largest = t;
            largest_size = resident;
        }
    }
    if (have_best && best_over > 0)
        return best;
    // Nobody over entitlement: the requester reclaims from itself when
    // it can, otherwise from the largest resident set.
    if (requester < n && residency_[requester].size() > 0)
        return requester;
    return largest;
}

bool
Gmmu::evictUntil(std::uint64_t target_frames, TenantId requester)
{
    const std::uint32_t trackers =
        static_cast<std::uint32_t>(residency_.size());
    while (frames_.freeFrames() + pending_free_frames_ < target_frames) {
        // The arbiter's pick goes first; the remaining trackers serve
        // as deterministic fallbacks so reclaim cannot stall on one
        // empty (or unevictable) tenant while others hold frames.
        std::uint32_t primary =
            trackers > 1 ? pickVictimTenant(requester) : 0;
        std::vector<PageNum> victims;
        std::uint64_t reserve = 0;
        std::uint32_t chosen = primary;
        for (std::uint32_t k = 0; k < trackers && victims.empty(); ++k) {
            std::uint32_t ti = (primary + k) % trackers;
            ResidencyTracker &tracker = residency_[ti];
            reserve = static_cast<std::uint64_t>(
                config_.lru_reserve_fraction *
                static_cast<double>(tracker.size()));
            EvictionContext ctx{tracker, tenants_, rng_, reserve};
            victims = eviction_->selectVictims(ctx);
            if (victims.empty() && reserve > 0) {
                ctx.reserve_pages = 0;
                reserve = 0;
                victims = eviction_->selectVictims(ctx);
            }
            if (!victims.empty())
                chosen = ti;
        }
        if (victims.empty())
            return false;
        emit(trace::Event{trace::Kind::evictionSelect,
                          trace::Category::eviction, "victim_select",
                          eq_.curTick(), 0, victims.size(), 0,
                          victims.front()},
             victims.front());
        if (auditor_) {
            auditor_->checkVictims("victim-selection", eviction_->kind(),
                                   victims, reserve, chosen);
        }
        if (applyEviction(victims, requester) == 0)
            return false; // no progress; avoid spinning
    }
    return true;
}

std::uint64_t
Gmmu::applyEviction(const std::vector<PageNum> &victims,
                    TenantId requester)
{
    struct Victim
    {
        PageNum page;
        FrameNum frame;
        bool dirty;
    };
    std::vector<Victim> evicted;
    evicted.reserve(victims.size());

    for (PageNum p : victims) {
        if (!page_table_.isValid(p)) {
            // TBNe's tree drain can select pages whose migration is
            // still in flight; restore their to-be-valid marks and
            // leave them alone.
            if (mshr_.isPending(p)) {
                if (LargePageTree *tree = tenants_.treeFor(p)) {
                    if (!tree->pageMarked(p))
                        tree->markPage(p);
                }
            }
            continue;
        }
        bool dirty = page_table_.isDirty(p);
        FrameNum frame = page_table_.invalidatePage(p);
        if (tlb_shootdown_)
            tlb_shootdown_(p);
        trackerFor(p).onEvicted(p);
        if (LargePageTree *tree = tenants_.treeFor(p))
            tree->unmarkPage(p);
        if (ManagedAllocation *alloc = tenants_.allocationFor(p))
            alloc->noteEvicted(p);
        ++pages_evicted_;
        if (!tenant_stats_.empty()) {
            TenantId owner = tenants_.tenantOf(p);
            ++tenant_stats_[owner]->pages_evicted;
            if (owner != requester)
                ++tenant_stats_[owner]->pages_evicted_cross;
        }
        DTRACE("Evict", "evicting page %llu (%s)",
               static_cast<unsigned long long>(p),
               dirty ? "dirty" : "clean");
        evicted.push_back(Victim{p, frame, dirty});
    }

    if (evicted.empty())
        return 0;

    emit(trace::Event{trace::Kind::evictionDrain,
                      trace::Category::eviction, "eviction_drain",
                      eq_.curTick(), 0, evicted.size(),
                      evicted.size() * pageSize, evicted.front().page},
         evicted.front().page);

    auto writeBack = [this](std::vector<FrameNum> frames,
                            std::uint64_t num_pages) {
        pages_written_back_ += num_pages;
        pending_free_frames_ += frames.size();
        pcie_.transfer(PcieDir::deviceToHost, num_pages * pageSize,
                       [this, frames = std::move(frames)]() {
                           for (FrameNum f : frames)
                               frames_.free(f);
                           pending_free_frames_ -= frames.size();
                           pumpFrameQueue();
                       });
    };

    if (eviction_->writesBackWholeUnits() && config_.whole_unit_writeback) {
        // Contiguous victim pages group into single write-back
        // transfers (paper Sec. 5.1: the whole 64KB unit goes back
        // regardless of which pages are dirty).
        std::size_t i = 0;
        while (i < evicted.size()) {
            std::size_t j = i + 1;
            while (j < evicted.size() &&
                   evicted[j].page == evicted[j - 1].page + 1)
                ++j;
            std::vector<FrameNum> frames;
            frames.reserve(j - i);
            for (std::size_t k = i; k < j; ++k)
                frames.push_back(evicted[k].frame);
            writeBack(std::move(frames), j - i);
            i = j;
        }
    } else {
        // 4KB policies: dirty pages round-trip through the write-back
        // channel; clean frames are reusable immediately.
        for (const Victim &v : evicted) {
            if (v.dirty)
                writeBack({v.frame}, 1);
            else
                frames_.free(v.frame);
        }
    }
    audit("eviction-drain");
    return evicted.size();
}

void
Gmmu::registerStats(stats::StatRegistry &registry)
{
    registry.add(&far_faults_);
    registry.add(&fault_services_);
    registry.add(&skipped_services_);
    registry.add(&prefetches_trimmed_);
    registry.add(&pages_migrated_);
    registry.add(&pages_prefetched_);
    registry.add(&pages_evicted_);
    registry.add(&pages_written_back_);
    registry.add(&pages_thrashed_);
    registry.add(&walk_count_);
    registry.add(&walk_queue_delay_ns_);
    registry.add(&mshr_stalls_);
    registry.add(&user_prefetched_pages_);
    registry.add(&oversubscribed_at_us_);
    registry.add(&audit_checks_);
    for (auto &ts : tenant_stats_) {
        registry.add(&ts->far_faults);
        registry.add(&ts->pages_migrated);
        registry.add(&ts->pages_evicted);
        registry.add(&ts->pages_evicted_cross);
        registry.add(&ts->mshr_pending_peak);
        registry.add(&ts->oversubscribed_at_us);
    }
    mshr_.registerStats(registry);
}

} // namespace uvmsim
