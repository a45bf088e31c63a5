/**
 * @file
 * Unit tests for the discrete-event kernel.
 *
 * Besides the basic contract, these pin the properties the heap-ordered
 * queue must keep: total (tick, seq) firing order, determinism of
 * identically fed queues, deschedule semantics against stale handles
 * and reused slots, very wide tick spreads, reserved seqs, and --
 * through a std::set reference model -- arbitrary interleavings of
 * scheduling, reserving, scheduling under a reservation, cancelling
 * and running.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "closure_events.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace uvmsim
{

namespace
{

/** Records the argument of every firing. */
void
logArg(void *log, std::uint64_t arg)
{
    static_cast<std::vector<std::uint64_t> *>(log)->push_back(arg);
}

void
nop(void *, std::uint64_t)
{
}

} // namespace

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<std::uint64_t> order;
    eq.scheduleCall(30, &logArg, &order, 3);
    eq.scheduleCall(10, &logArg, &order, 1);
    eq.scheduleCall(20, &logArg, &order, 2);
    eq.run();
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, AdvancesTimeToEventTimestamp)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    Tick seen = 0;
    ev.at(12345, [&] { seen = eq.curTick(); });
    eq.runOne();
    EXPECT_EQ(seen, 12345u);
}

TEST(EventQueue, SameTickFiresInFifoOrder)
{
    EventQueue eq;
    std::vector<std::uint64_t> order;
    eq.scheduleCall(5, &logArg, &order, 10);
    eq.scheduleCall(4, &logArg, &order, 0);
    eq.scheduleCall(5, &logArg, &order, 20);
    eq.scheduleCall(5, &logArg, &order, 21);
    eq.scheduleCall(6, &logArg, &order, 99);
    eq.scheduleCall(5, &logArg, &order, 30);
    eq.run();
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 10, 20, 21, 30, 99}));
}

TEST(EventQueue, ScheduleAfterUsesCurrentTick)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    Tick fired_at = 0;
    ev.at(100, [&] { ev.after(50, [&] { fired_at = eq.curTick(); }); });
    eq.run();
    EXPECT_EQ(fired_at, 150u);
}

TEST(EventQueue, ReservedSeqFiresWhereItWasReserved)
{
    // A reserved seq keeps its place among same-tick events scheduled
    // before and after the reservation, as if scheduled at that point.
    EventQueue eq;
    std::vector<std::uint64_t> order;
    eq.scheduleCall(5, &logArg, &order, 1);
    const std::uint64_t first = eq.reserveSeq();
    eq.scheduleCall(5, &logArg, &order, 3);
    const std::uint64_t second = eq.reserveSeq();
    eq.scheduleCall(4, &logArg, &order, 0);
    eq.scheduleReserved(5, second, &logArg, &order, 4);
    eq.scheduleReserved(5, first, &logArg, &order, 2);
    eq.scheduleCall(5, &logArg, &order, 5);
    eq.run();
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(eq.executed(), 6u);
}

TEST(EventQueueDeathTest, ScheduleReservedRejectsUnreservedSeq)
{
    EventQueue eq;
    const std::uint64_t seq = eq.reserveSeq();
    EXPECT_DEATH(eq.scheduleReserved(1, seq + 1, &nop, nullptr, 0),
                 "unreserved seq");
    EXPECT_DEATH(eq.scheduleReserved(1, 0, &nop, nullptr, 0),
                 "unreserved seq");
}

TEST(EventQueueDeathTest, ScheduleReservedRejectsPastTick)
{
    EventQueue eq;
    eq.scheduleCall(10, &nop, nullptr, 0);
    const std::uint64_t seq = eq.reserveSeq();
    eq.run();
    EXPECT_DEATH(eq.scheduleReserved(9, seq, &nop, nullptr, 0),
                 "in the past");
}

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    bool ran = false;
    auto id = ev.at(10, [&] { ran = true; });
    EXPECT_TRUE(eq.deschedule(id));
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DescheduleTwiceReturnsFalse)
{
    EventQueue eq;
    auto id = eq.scheduleCall(10, &nop, nullptr, 0);
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, DescheduleAfterFiringReturnsFalse)
{
    EventQueue eq;
    auto id = eq.scheduleCall(10, &nop, nullptr, 0);
    eq.run();
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, EventsMayScheduleAtCurrentTick)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    std::vector<int> order;
    ev.at(10, [&] {
        order.push_back(1);
        ev.at(10, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue eq;
    std::vector<std::uint64_t> fired;
    eq.scheduleCall(10, &logArg, &fired, 0);
    eq.scheduleCall(20, &logArg, &fired, 1);
    eq.scheduleCall(30, &logArg, &fired, 2);
    EXPECT_EQ(eq.run(20), 2u);
    EXPECT_EQ(fired.size(), 2u);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(fired.size(), 3u);
}

TEST(EventQueue, ExecutedCounterCounts)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.scheduleCall(static_cast<Tick>(i + 1), &nop, nullptr, 0);
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.scheduleCall(10, &nop, nullptr, 0);
    eq.scheduleCall(20, &nop, nullptr, 0);
    eq.runOne();
    eq.reset();
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, CancelledEventsDoNotBlockLimitRun)
{
    EventQueue eq;
    auto id = eq.scheduleCall(5, &nop, nullptr, 0);
    eq.scheduleCall(10, &nop, nullptr, 0);
    eq.deschedule(id);
    EXPECT_EQ(eq.run(10), 1u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    Tick last = 0;
    bool monotone = true;
    for (int i = 1000; i > 0; --i) {
        ev.at(static_cast<Tick>(i), [&] {
            if (eq.curTick() < last)
                monotone = false;
            last = eq.curTick();
        });
    }
    EXPECT_EQ(eq.run(), 1000u);
    EXPECT_TRUE(monotone);
    EXPECT_EQ(last, 1000u);
}

TEST(EventQueue, TotalOrderOverRandomTicks)
{
    EventQueue eq;
    std::vector<std::uint64_t> fired;
    Rng rng(0xca1e12ull);

    // Many more events than any small heap, ticks spanning six decades
    // and plenty of same-tick ties.
    const std::uint64_t n = 5000;
    std::vector<std::pair<Tick, std::uint64_t>> expect;
    for (std::uint64_t i = 0; i < n; ++i) {
        Tick when = rng.below(1u << (i % 2 ? 20 : 8));
        expect.emplace_back(when, i);
        eq.scheduleCall(when, &logArg, &fired, i);
    }
    EXPECT_EQ(eq.pending(), n);

    std::sort(expect.begin(), expect.end());
    eq.run();
    ASSERT_EQ(fired.size(), n);
    for (std::uint64_t k = 0; k < n; ++k)
        ASSERT_EQ(fired[k], expect[k].second) << "firing " << k;
    EXPECT_EQ(eq.curTick(), expect.back().first);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DeterministicAcrossIdenticalFeeds)
{
    auto drive = [](std::uint64_t seed) {
        EventQueue eq;
        std::vector<std::uint64_t> fired;
        Rng rng(seed);
        std::vector<EventQueue::EventId> ids;
        for (std::uint64_t i = 0; i < 2000; ++i)
            ids.push_back(
                eq.scheduleCall(rng.below(1u << 16), &logArg, &fired, i));
        // Deschedule a deterministic subset.
        for (std::size_t i = 0; i < ids.size(); i += 7)
            EXPECT_TRUE(eq.deschedule(ids[i]));
        eq.run();
        EXPECT_EQ(fired.size(), 2000u - 286u);
        return fired;
    };
    EXPECT_EQ(drive(42), drive(42));
}

TEST(EventQueue, StaleHandlesAndSlotReuse)
{
    EventQueue eq;
    std::vector<std::uint64_t> fired;
    EventQueue::EventId a = eq.scheduleCall(10, &logArg, &fired, 1);
    const std::uint64_t a_slot = a >> 32;
    EXPECT_TRUE(eq.deschedule(a));
    EXPECT_FALSE(eq.deschedule(a)); // second cancel is a no-op
    EXPECT_EQ(eq.pending(), 0u);

    // Draining reclaims the cancelled slot; the next event reuses it
    // under a new generation and the old handle must stay dead.
    EXPECT_EQ(eq.run(), 0u);
    EventQueue::EventId b = eq.scheduleCall(20, &logArg, &fired, 2);
    EXPECT_EQ(b >> 32, a_slot);
    EXPECT_FALSE(eq.deschedule(a));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, (std::vector<std::uint64_t>{2}));
    EXPECT_FALSE(eq.deschedule(b)); // already executed

    // A fired slot is reused too, and its old handle stays dead.
    EventQueue::EventId c = eq.scheduleCall(30, &logArg, &fired, 3);
    EXPECT_EQ(c >> 32, a_slot);
    EXPECT_FALSE(eq.deschedule(b));
    EXPECT_FALSE(eq.deschedule(EventQueue::invalidEventId));
    EXPECT_FALSE(eq.deschedule(EventQueue::EventId{99} << 32));
    eq.run();
    EXPECT_EQ(fired, (std::vector<std::uint64_t>{2, 3}));
}

TEST(EventQueue, FarFutureTickSpread)
{
    // A sparse population spread over 2^42 ticks (~4.4 simulated
    // seconds) next to near events; order must still hold.
    EventQueue eq;
    std::vector<std::uint64_t> fired;
    const Tick spread[] = {1ull << 42, 5, (1ull << 40) + 1, 1ull << 30,
                           1ull << 40};
    for (Tick t : spread)
        eq.scheduleCall(t, &logArg, &fired, t);
    eq.run();
    EXPECT_EQ(fired, (std::vector<std::uint64_t>{
                         5, 1ull << 30, 1ull << 40, (1ull << 40) + 1,
                         1ull << 42}));
    EXPECT_EQ(eq.curTick(), 1ull << 42);
}

namespace
{

/**
 * Drives an EventQueue with random interleavings of scheduleCall,
 * reserveSeq, scheduleReserved, deschedule, runOne and run(limit),
 * checked in lockstep against a std::set of (tick, seq) keys: every
 * firing must be the set's minimum, and pending()/curTick() must match
 * after every operation.  A reservation takes its model seq when it is
 * reserved, so the oracle fires it exactly where scheduling eagerly at
 * reservation time would have.
 */
struct RefModel
{
    /** A reservation not scheduled yet: model seq, queue seq. */
    struct Reservation
    {
        std::uint64_t seq;
        std::uint64_t queue_seq;
    };

    EventQueue eq;
    Rng rng;
    std::set<std::pair<Tick, std::uint64_t>> oracle;
    Tick oracle_tick = 0;
    std::vector<Tick> when_of;             //!< By seq.
    std::vector<EventQueue::EventId> ids;  //!< By seq.
    std::vector<char> was_reserved;        //!< By seq.
    std::vector<Reservation> reserved;
    std::vector<std::uint64_t> fired;
    std::uint64_t bad_firings = 0;
    std::uint64_t reserved_fired = 0;

    explicit RefModel(std::uint64_t seed) : rng(seed) {}

    void
    add(Tick when)
    {
        const std::uint64_t seq = ids.size();
        when_of.push_back(when);
        was_reserved.push_back(0);
        ids.push_back(eq.scheduleCall(when, &onFire, this, seq));
        oracle.emplace(when, seq);
    }

    /** Take a seq now; the event gets a tick later. */
    void
    reserve()
    {
        reserved.push_back(Reservation{ids.size(), eq.reserveSeq()});
        when_of.push_back(0);
        was_reserved.push_back(1);
        ids.push_back(EventQueue::invalidEventId);
    }

    /** Schedule a random pending reservation at `when`. */
    void
    scheduleReserved(Tick when)
    {
        const std::size_t r = rng.below(reserved.size());
        const Reservation res = reserved[r];
        reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(r));
        when_of[res.seq] = when;
        ids[res.seq] =
            eq.scheduleReserved(when, res.queue_seq, &onFire, this, res.seq);
        oracle.emplace(when, res.seq);
    }

    /** A delay mix: same tick, near ticks and far ticks. */
    Tick
    delay()
    {
        switch (rng.below(4)) {
        case 0:
            return 0;
        case 1:
            return rng.below(8);
        case 2:
            return rng.below(1000);
        default:
            return rng.below(1ull << 40);
        }
    }

    static void
    onFire(void *self, std::uint64_t seq)
    {
        auto *m = static_cast<RefModel *>(self);
        m->fired.push_back(seq);
        const std::pair<Tick, std::uint64_t> key{m->when_of[seq], seq};
        if (m->oracle.empty() || *m->oracle.begin() != key ||
            m->eq.curTick() != key.first)
            ++m->bad_firings;
        m->oracle.erase(key);
        m->oracle_tick = key.first;

        if (m->was_reserved[seq])
            ++m->reserved_fired;

        // Callbacks schedule follow-ups at the current tick and later,
        // eagerly or under a reservation taken earlier.
        switch (m->rng.below(5)) {
        case 0:
            m->add(m->eq.curTick() + m->delay());
            break;
        case 1:
            if (!m->reserved.empty())
                m->scheduleReserved(m->eq.curTick() + m->delay());
            break;
        case 2:
            m->reserve();
            break;
        default:
            break;
        }
    }
};

} // namespace

TEST(EventQueue, MatchesReferenceModelUnderInterleavings)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        RefModel m(seed);
        std::uint64_t cancels = 0;
        std::uint64_t stale_cancels = 0;
        for (int op = 0; op < 3000; ++op) {
            const std::uint64_t kind = m.rng.below(12);
            if (kind < 4) {
                m.add(m.eq.curTick() + m.delay());
            } else if (kind == 4) {
                m.reserve();
            } else if (kind == 5) {
                if (!m.reserved.empty())
                    m.scheduleReserved(m.eq.curTick() + m.delay());
            } else if (kind < 8 && !m.ids.empty()) {
                // Live, stale (fired or reused slot) or double cancel;
                // recent events are the likeliest to be live.
                const std::uint64_t n = m.ids.size();
                std::uint64_t seq = m.rng.below(n);
                if (m.rng.chance(0.5))
                    seq = n - 1 - m.rng.below(std::min<std::uint64_t>(n, 8));
                const bool live =
                    m.oracle.erase(std::make_pair(m.when_of[seq], seq)) == 1;
                ASSERT_EQ(m.eq.deschedule(m.ids[seq]), live)
                    << "seed " << seed << " op " << op;
                cancels += live;
                stale_cancels += !live;
            } else if (kind < 10) {
                const bool expect = !m.oracle.empty();
                const std::size_t before = m.fired.size();
                ASSERT_EQ(m.eq.runOne(), expect);
                ASSERT_EQ(m.fired.size(), before + (expect ? 1 : 0));
            } else {
                const Tick limit = m.eq.curTick() + m.delay();
                const std::size_t before = m.fired.size();
                const std::uint64_t ran = m.eq.run(limit);
                ASSERT_EQ(ran, m.fired.size() - before);
                ASSERT_TRUE(m.oracle.empty() ||
                            m.oracle.begin()->first > limit);
            }
            ASSERT_EQ(m.bad_firings, 0u) << "seed " << seed << " op " << op;
            ASSERT_EQ(m.eq.pending(), m.oracle.size());
            ASSERT_EQ(m.eq.empty(), m.oracle.empty());
            ASSERT_EQ(m.eq.curTick(), m.oracle_tick);
        }
        // Drain, scheduling every reservation still open (firings may
        // open more).
        while (!m.reserved.empty() || !m.eq.empty()) {
            if (!m.reserved.empty())
                m.scheduleReserved(m.eq.curTick() + m.delay());
            else
                m.eq.run();
        }
        EXPECT_EQ(m.bad_firings, 0u);
        EXPECT_TRUE(m.oracle.empty());
        EXPECT_EQ(m.eq.executed(), m.fired.size());
        EXPECT_EQ(m.fired.size() + cancels, m.ids.size());
        // Reserved events fire in number, a seq old when scheduled.
        EXPECT_GT(m.reserved_fired, 100u) << "seed " << seed;
        // Both deschedule outcomes are exercised.
        EXPECT_GT(cancels, 50u) << "seed " << seed;
        EXPECT_GT(stale_cancels, 50u) << "seed " << seed;
    }
}

} // namespace uvmsim
