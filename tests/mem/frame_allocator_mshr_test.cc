/** @file Unit tests for the frame allocator and the far-fault MSHRs. */

#include <gtest/gtest.h>

#include <set>

#include "mem/frame_allocator.hh"
#include "mem/mshr.hh"

#include "closure_events.hh"

namespace uvmsim
{

namespace
{

void noop(void *, std::uint64_t) {}

/** A waiter that replays nothing observable. */
constexpr FarFaultMshr::Waiter idle{&noop, nullptr, 0};

} // namespace

TEST(FrameAllocator, InitialState)
{
    FrameAllocator fa(10);
    EXPECT_EQ(fa.totalFrames(), 10u);
    EXPECT_EQ(fa.freeFrames(), 10u);
    EXPECT_EQ(fa.usedFrames(), 0u);
    EXPECT_EQ(fa.capacityBytes(), 10u * pageSize);
    EXPECT_DOUBLE_EQ(fa.occupancy(), 0.0);
}

TEST(FrameAllocator, AllocateAllUnique)
{
    FrameAllocator fa(10);
    std::set<FrameNum> seen;
    for (int i = 0; i < 10; ++i) {
        auto f = fa.allocate();
        ASSERT_TRUE(f.has_value());
        EXPECT_LT(*f, 10u);
        EXPECT_TRUE(seen.insert(*f).second) << "duplicate frame";
    }
    EXPECT_EQ(fa.freeFrames(), 0u);
    EXPECT_DOUBLE_EQ(fa.occupancy(), 1.0);
}

TEST(FrameAllocator, ExhaustionReturnsNullopt)
{
    FrameAllocator fa(2);
    fa.allocate();
    fa.allocate();
    EXPECT_FALSE(fa.allocate().has_value());
}

TEST(FrameAllocator, FreeMakesReusable)
{
    FrameAllocator fa(1);
    auto f = fa.allocate();
    EXPECT_FALSE(fa.allocate().has_value());
    fa.free(*f);
    EXPECT_EQ(fa.freeFrames(), 1u);
    auto g = fa.allocate();
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(*g, *f);
}

TEST(FrameAllocator, DoubleFreeDies)
{
    FrameAllocator fa(2);
    auto f = fa.allocate();
    fa.free(*f);
    EXPECT_DEATH(fa.free(*f), "double free");
}

TEST(FrameAllocator, OutOfRangeFreeDies)
{
    FrameAllocator fa(2);
    EXPECT_DEATH(fa.free(5), "out-of-range");
}

TEST(FrameAllocator, StatsTrackActivity)
{
    stats::StatRegistry reg;
    FrameAllocator fa(2);
    fa.registerStats(reg);
    auto f = fa.allocate();
    fa.allocate();
    fa.allocate(); // failure
    fa.free(*f);
    EXPECT_DOUBLE_EQ(reg.at("frames.allocations").value(), 2.0);
    EXPECT_DOUBLE_EQ(reg.at("frames.failures").value(), 1.0);
    EXPECT_DOUBLE_EQ(reg.at("frames.frees").value(), 1.0);
}

TEST(FarFaultMshr, FirstFaultIsPrimary)
{
    FarFaultMshr mshr;
    bool primary = mshr.registerFault(5, idle);
    EXPECT_TRUE(primary);
    EXPECT_TRUE(mshr.isPending(5));
    EXPECT_EQ(mshr.pendingPages(), 1u);
    EXPECT_EQ(mshr.pendingWaiters(), 1u);
}

TEST(FarFaultMshr, DuplicateFaultMerges)
{
    FarFaultMshr mshr;
    EXPECT_TRUE(mshr.registerFault(5, idle));
    EXPECT_FALSE(mshr.registerFault(5, idle));
    EXPECT_FALSE(mshr.registerFault(5, idle));
    EXPECT_EQ(mshr.pendingPages(), 1u);
    EXPECT_EQ(mshr.pendingWaiters(), 3u);
}

TEST(FarFaultMshr, CompleteReturnsWaitersInOrder)
{
    FarFaultMshr mshr;
    Closures closures;
    std::vector<int> order;
    mshr.registerFault(5, closures.thunk([&] { order.push_back(1); }));
    mshr.registerFault(5, closures.thunk([&] { order.push_back(2); }));
    auto waiters = mshr.complete(5);
    ASSERT_EQ(waiters.size(), 2u);
    for (auto &w : waiters)
        w();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_FALSE(mshr.isPending(5));
    EXPECT_EQ(mshr.pendingWaiters(), 0u);
}

TEST(FarFaultMshr, CompleteUnknownPageIsEmpty)
{
    FarFaultMshr mshr;
    EXPECT_TRUE(mshr.complete(5).empty());
}

TEST(FarFaultMshr, NullWaiterAllowedForPrefetches)
{
    FarFaultMshr mshr;
    // A prefetched page registers with no waiter: entry exists so
    // later faults merge, but nothing replays.
    EXPECT_TRUE(mshr.registerFault(9, FarFaultMshr::Waiter{}));
    EXPECT_EQ(mshr.pendingWaiters(), 0u);
    EXPECT_FALSE(mshr.registerFault(9, FarFaultMshr::Waiter{}));
    EXPECT_TRUE(mshr.complete(9).empty());
}

TEST(FarFaultMshr, StatsCountPrimaryAndMerged)
{
    stats::StatRegistry reg;
    FarFaultMshr mshr;
    mshr.registerStats(reg);
    mshr.registerFault(1, idle);
    mshr.registerFault(1, idle);
    mshr.registerFault(2, idle);
    EXPECT_DOUBLE_EQ(reg.at("mshr.primary_faults").value(), 2.0);
    EXPECT_DOUBLE_EQ(reg.at("mshr.merged_faults").value(), 1.0);
    EXPECT_DOUBLE_EQ(reg.at("mshr.max_outstanding").value(), 2.0);
}

} // namespace uvmsim
