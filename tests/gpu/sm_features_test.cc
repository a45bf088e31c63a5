/** @file Tests for the per-SM L1 cache and the issue-port throttle. */

#include <gtest/gtest.h>

#include "sim/ticks.hh"

#include "core/gmmu.hh"
#include "gpu/gpu.hh"

namespace uvmsim
{

namespace
{

struct SmFeatureHarness
{
    EventQueue eq;
    PcieLink pcie;
    FrameAllocator frames;
    PageTable pt;
    ManagedSpace space;
    Gmmu gmmu;
    GpuConfig gcfg;
    std::unique_ptr<Gpu> gpu;

    explicit SmFeatureHarness(GpuConfig cfg)
        : pcie(eq, PcieBandwidthModel{}),
          frames(4096),
          gmmu(eq, pcie, frames, pt, space, GmmuConfig{}),
          gcfg(cfg)
    {
        gpu = std::make_unique<Gpu>(eq, gcfg, gmmu);
    }

    Tick
    runStream(Addr base, std::uint32_t warps, std::uint32_t ops,
              Cycles compute)
    {
        GridKernel kernel("k", 1, [=](std::uint64_t) {
            std::vector<std::unique_ptr<WarpTrace>> out;
            for (std::uint32_t w = 0; w < warps; ++w) {
                std::vector<WarpOp> trace;
                for (std::uint32_t i = 0; i < ops; ++i) {
                    WarpOp op;
                    op.compute_cycles = compute;
                    Addr a = base + (w * ops + i) * 128;
                    op.accesses.push_back(TraceAccess{a, 128, false});
                    trace.push_back(std::move(op));
                }
                out.push_back(
                    std::make_unique<VectorTrace>(std::move(trace)));
            }
            return out;
        });
        bool done = false;
        gpu->launch(kernel, [&] { done = true; });
        eq.run();
        EXPECT_TRUE(done);
        return gpu->totalKernelTime();
    }

    static GpuConfig
    smallGpu()
    {
        GpuConfig cfg;
        cfg.num_sms = 1;
        cfg.max_warps_per_sm = 8;
        cfg.max_tbs_per_sm = 2;
        return cfg;
    }
};

} // namespace

TEST(SmFeatures, L1AbsorbsRepeatedReads)
{
    GpuConfig cfg = SmFeatureHarness::smallGpu();
    SmFeatureHarness h(cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    // Two passes over a 4KB region smaller than the L1.
    h.runStream(alloc.base(), 1, 32, 4);
    std::uint64_t l2_misses_first = h.gpu->l2().misses();
    h.runStream(alloc.base(), 1, 32, 4);
    // Second pass is served from the L1: no new L2 traffic at all.
    EXPECT_EQ(h.gpu->l2().misses(), l2_misses_first);
    EXPECT_EQ(h.gpu->l2().hits(), 0u);
}

TEST(SmFeatures, DisablingL1SendsReadsToL2)
{
    GpuConfig cfg = SmFeatureHarness::smallGpu();
    cfg.l1_bytes = 0;
    SmFeatureHarness h(cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    h.runStream(alloc.base(), 1, 32, 4);
    h.runStream(alloc.base(), 1, 32, 4);
    // With no L1, the second pass hits in L2 instead.
    EXPECT_GT(h.gpu->l2().hits(), 0u);
}

TEST(SmFeatures, WritesBypassL1)
{
    GpuConfig cfg = SmFeatureHarness::smallGpu();
    SmFeatureHarness h(cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    GridKernel kernel("w", 1, [&](std::uint64_t) {
        std::vector<std::unique_ptr<WarpTrace>> out;
        std::vector<WarpOp> trace;
        for (int i = 0; i < 8; ++i) {
            WarpOp op;
            op.compute_cycles = 2;
            op.accesses.push_back(
                TraceAccess{alloc.base() + i * 128u, 128, true});
            trace.push_back(std::move(op));
        }
        out.push_back(std::make_unique<VectorTrace>(std::move(trace)));
        return out;
    });
    bool done = false;
    h.gpu->launch(kernel, [&] { done = true; });
    h.eq.run();
    ASSERT_TRUE(done);

    stats::StatRegistry reg;
    h.gpu->registerStats(reg);
    // No-write-allocate: the L1 saw nothing.
    EXPECT_DOUBLE_EQ(reg.at("sm0.l1.hits").value(), 0.0);
    EXPECT_DOUBLE_EQ(reg.at("sm0.l1.misses").value(), 0.0);
    EXPECT_GT(h.gpu->l2().misses(), 0u);
}

TEST(SmFeatures, ShortLinesProbeAPageInChunks)
{
    // 32 B lines: a 4 KB read covers 128 lines, two 64-line runs.
    GpuConfig cfg = SmFeatureHarness::smallGpu();
    cfg.l2_line_bytes = 32;
    SmFeatureHarness h(cfg);
    auto &alloc = h.space.allocate(mib(2), "a");

    GridKernel kernel("page", 1, [&](std::uint64_t) {
        std::vector<std::unique_ptr<WarpTrace>> out;
        std::vector<WarpOp> trace(1);
        trace[0].accesses.push_back(
            TraceAccess{alloc.base(), pageSize, false});
        out.push_back(std::make_unique<VectorTrace>(std::move(trace)));
        return out;
    });
    bool done = false;
    h.gpu->launch(kernel, [&] { done = true; });
    h.eq.run();
    ASSERT_TRUE(done);

    stats::StatRegistry reg;
    h.gpu->registerStats(reg);
    EXPECT_DOUBLE_EQ(reg.at("sm0.l1.hits").value() +
                         reg.at("sm0.l1.misses").value(),
                     128.0);
    EXPECT_EQ(h.gpu->l2().hits() + h.gpu->l2().misses(), 128u);
    // Cold caches: every line is one DRAM transfer.
    EXPECT_DOUBLE_EQ(reg.at("dram.accesses").value(), 128.0);
    EXPECT_DOUBLE_EQ(reg.at("dram.bytes").value(), 4096.0);
}

TEST(SmFeatures, PageInvalidationFlushesL1)
{
    GpuConfig cfg = SmFeatureHarness::smallGpu();
    SmFeatureHarness h(cfg);
    auto &alloc = h.space.allocate(mib(2), "a");
    h.runStream(alloc.base(), 1, 8, 4);

    std::uint64_t l2_traffic_before = h.gpu->l2().misses() +
                                      h.gpu->l2().hits();
    // The shootdown drops the L1 lines (the page table mapping is
    // untouched by the GPU-side hook), so re-reading must go back to
    // the L2.
    h.gpu->invalidatePage(pageOf(alloc.base()));
    h.runStream(alloc.base(), 1, 8, 4);
    EXPECT_GT(h.gpu->l2().misses() + h.gpu->l2().hits(),
              l2_traffic_before);
}

TEST(SmFeatures, IssueThrottleSlowsDenseWarpStreams)
{
    // Many warps with zero compute: op issue is bound by the SM's
    // issue ports, so halving the ports roughly doubles the time.
    GpuConfig wide = SmFeatureHarness::smallGpu();
    wide.issue_ports_per_sm = 4;
    GpuConfig narrow = SmFeatureHarness::smallGpu();
    narrow.issue_ports_per_sm = 1;

    Tick wide_time, narrow_time;
    {
        SmFeatureHarness h(wide);
        auto &alloc = h.space.allocate(mib(2), "a");
        wide_time = h.runStream(alloc.base(), 8, 64, 0);
    }
    {
        SmFeatureHarness h(narrow);
        auto &alloc = h.space.allocate(mib(2), "a");
        narrow_time = h.runStream(alloc.base(), 8, 64, 0);
    }
    EXPECT_GT(narrow_time, wide_time);
}

TEST(SmFeatures, ThrottleDisabledIsNoSlower)
{
    GpuConfig off = SmFeatureHarness::smallGpu();
    off.issue_ports_per_sm = 0;
    GpuConfig on = SmFeatureHarness::smallGpu();
    on.issue_ports_per_sm = 1;

    Tick off_time, on_time;
    {
        SmFeatureHarness h(off);
        auto &alloc = h.space.allocate(mib(2), "a");
        off_time = h.runStream(alloc.base(), 8, 64, 0);
    }
    {
        SmFeatureHarness h(on);
        auto &alloc = h.space.allocate(mib(2), "a");
        on_time = h.runStream(alloc.base(), 8, 64, 0);
    }
    EXPECT_LE(off_time, on_time);
}

} // namespace uvmsim
