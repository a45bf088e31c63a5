/**
 * @file
 * Tests for the server-class workload families (database buffer pool,
 * LLM inference) and their fuzz-pattern mirrors: structural checks of
 * the access shapes (Zipfian skew, monotone KV growth), differential
 * oracle agreement for the new zipf/kvgrow patterns across all six
 * canonical policy combos at {1,2} tenants and {110,150}%%
 * oversubscription, and audited end-to-end simulations of both
 * workload classes under the same pressure grid.
 */

#include <gtest/gtest.h>

#include <map>

#include "api/simulator.hh"
#include "testing/differential.hh"
#include "workloads/benchmarks.hh"
#include "workloads/workload.hh"

namespace uvmsim
{

namespace
{

WorkloadParams
serverParams(std::uint64_t iterations)
{
    WorkloadParams p;
    p.size_scale = 0.05; // keep structural tests fast
    p.iterations = iterations;
    return p;
}

/** Per-page access counts within one allocation of a workload. */
std::map<PageNum, std::uint64_t>
pageCounts(Workload &wl, ManagedSpace &space, std::size_t alloc_index,
           std::vector<std::uint64_t> *max_page_per_kernel = nullptr)
{
    wl.setup(space);
    const ManagedAllocation *alloc =
        space.allocations()[alloc_index].get();
    std::map<PageNum, std::uint64_t> counts;
    while (Kernel *k = wl.nextKernel()) {
        std::uint64_t max_page = 0;
        bool touched = false;
        while (auto tb = k->nextThreadBlock()) {
            for (auto &trace : tb->warps) {
                WarpOp op;
                while (trace->next(op)) {
                    for (const TraceAccess &a : op.accesses) {
                        if (!alloc->contains(a.addr))
                            continue;
                        ++counts[pageOf(a.addr)];
                        max_page = std::max(max_page,
                                            std::uint64_t{
                                                pageOf(a.addr)});
                        touched = true;
                    }
                }
            }
        }
        if (max_page_per_kernel && touched)
            max_page_per_kernel->push_back(max_page);
    }
    return counts;
}

} // namespace

TEST(ServerWorkloads, DbBufferLookupsAreZipfSkewed)
{
    auto wl = makeDbBuffer(serverParams(3));
    EXPECT_EQ(wl->totalKernels(), 3u);
    ManagedSpace space;
    // Allocation 0 is the buffer-pool heap.
    auto counts = pageCounts(*wl, space, 0);
    ASSERT_FALSE(counts.empty());
    std::uint64_t total = 0, hottest = 0;
    for (const auto &[page, n] : counts) {
        total += n;
        hottest = std::max(hottest, n);
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(counts.size());
    // Zipf-0.86 point lookups hammer the head of the rank order far
    // harder than the scan baseline touches the average page.
    EXPECT_GT(static_cast<double>(hottest), 10.0 * mean)
        << "hottest=" << hottest << " mean=" << mean;
}

TEST(ServerWorkloads, DbBufferWritesLogAndHeap)
{
    auto wl = makeDbBuffer(serverParams(2));
    ManagedSpace space;
    // Allocation 2 is the write-ahead log: every lookup round appends.
    auto counts = pageCounts(*wl, space, 2);
    EXPECT_FALSE(counts.empty());
}

TEST(ServerWorkloads, LlmInferKvCacheGrowsMonotonically)
{
    auto wl = makeLlmInfer(serverParams(4));
    EXPECT_EQ(wl->totalKernels(), 5u); // prefill + 4 decode steps
    ManagedSpace space;
    // Allocation 1 is the KV cache; the high-water page per kernel
    // only ever moves forward as decode steps append.
    std::vector<std::uint64_t> max_pages;
    auto counts = pageCounts(*wl, space, 1, &max_pages);
    ASSERT_FALSE(counts.empty());
    ASSERT_GE(max_pages.size(), 2u);
    for (std::size_t i = 1; i < max_pages.size(); ++i)
        EXPECT_GE(max_pages[i], max_pages[i - 1]) << "kernel " << i;
    EXPECT_GT(max_pages.back(), max_pages.front());
}

TEST(ServerWorkloads, LlmInferWeightsAreReadOnly)
{
    auto wl = makeLlmInfer(serverParams(2));
    ManagedSpace space;
    wl->setup(space);
    const ManagedAllocation *weights = space.allocations()[0].get();
    while (Kernel *k = wl->nextKernel()) {
        while (auto tb = k->nextThreadBlock()) {
            for (auto &trace : tb->warps) {
                WarpOp op;
                while (trace->next(op))
                    for (const TraceAccess &a : op.accesses) {
                        if (weights->contains(a.addr)) {
                            EXPECT_FALSE(a.is_write);
                        }
                    }
            }
        }
    }
}

/**
 * The zipf/kvgrow fuzz patterns mirror the server workloads inside
 * the differential harness: the real simulator and the functional
 * oracle must agree page-for-page on every canonical combo, single-
 * and multi-tenant, at both paper oversubscription points.
 */
class ServerPatternDifferential
    : public ::testing::TestWithParam<fuzzing::PolicyCombo>
{
};

TEST_P(ServerPatternDifferential, OracleAgreesUnderPressure)
{
    fuzzing::FuzzSpec base = fuzzing::specFromString(
        "seed=11/pf=TBNp/pfa=TBNp/ev=TBNe/os=110/rsv=0/buf=0/up=0/"
        "gap=10000/a=2097152,1245184/"
        "k=zipf:0:150:1:0.3/k=kvgrow:1:120:1:0.5");
    for (std::uint32_t tenants : {1u, 2u}) {
        for (double os : {110.0, 150.0}) {
            fuzzing::FuzzSpec spec =
                fuzzing::withCombo(base, GetParam());
            spec.tenants = tenants;
            spec.oversubscription_percent = os;
            ASSERT_TRUE(fuzzing::specProblem(spec).empty());
            fuzzing::DiffResult diff = fuzzing::runDifferential(spec);
            EXPECT_FALSE(diff.mismatch)
                << fuzzing::toString(GetParam()) << " tenants="
                << tenants << " os=" << os << "\n"
                << diff.report;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ServerPatternDifferential,
    ::testing::ValuesIn(fuzzing::canonicalCombos()),
    [](const auto &info) {
        std::string name = fuzzing::toString(info.param);
        for (char &c : name)
            if (c == ':')
                c = '_';
        return name;
    });

/**
 * Both server workload classes survive an audited end-to-end run at
 * 110%% and 150%% oversubscription under every canonical combo (the
 * state auditor aborts on any invariant violation).
 */
class ServerWorkloadAudit
    : public ::testing::TestWithParam<fuzzing::PolicyCombo>
{
};

TEST_P(ServerWorkloadAudit, AuditCleanUnderOversubscription)
{
    for (const char *name : {"dbbuffer", "llminfer"}) {
        for (double os : {110.0, 150.0}) {
            SimConfig cfg;
            cfg.audit = true;
            cfg.oversubscription_percent = os;
            cfg.prefetcher_before = GetParam().prefetcher;
            cfg.prefetcher_after = GetParam().prefetcher;
            cfg.eviction = GetParam().eviction;
            cfg.gpu.num_sms = 4;
            // Three rounds include dbbuffer's full-heap scan, which
            // guarantees eviction pressure at both os points.
            auto wl = makeWorkload(name, serverParams(3));
            Simulator sim(cfg);
            RunResult r = sim.run(*wl);
            EXPECT_EQ(r.stat("gpu.kernels"),
                      static_cast<double>(wl->totalKernels()))
                << name << " os=" << os;
            EXPECT_GT(r.farFaults(), 0.0) << name << " os=" << os;
            // At 110%% a demand-only run can still fit its touched
            // set; 150%% cannot, whatever the prefetcher.
            if (os >= 150.0) {
                EXPECT_GT(r.pagesEvicted(), 0.0)
                    << name << " os=" << os;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ServerWorkloadAudit,
    ::testing::ValuesIn(fuzzing::canonicalCombos()),
    [](const auto &info) {
        std::string name = fuzzing::toString(info.param);
        for (char &c : name)
            if (c == ':')
                c = '_';
        return name;
    });

} // namespace uvmsim
