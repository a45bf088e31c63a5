/**
 * @file
 * The discrete-event simulation kernel.
 *
 * Every timed behaviour in the simulator -- a warp finishing a compute
 * burst, a PCI-e transfer completing, the GMMU finishing a fault-handling
 * window -- is an event scheduled on the single EventQueue owned by the
 * Simulator.  Events fire in (tick, insertion order), so simulations are
 * fully deterministic.
 *
 * An event is a plain function pointer plus (context, argument) words:
 * fn(ctx, arg).  Records live in a pooled free-list arena and a 4-ary
 * min-heap of (tick, seq, slot) keys orders them.  Scheduling performs
 * no allocation once the arena and heap have grown to the simulation's
 * peak event count.  Cancelling an event only marks its record dead;
 * the slot is reclaimed when its key reaches the top of the heap.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/ticks.hh"

namespace uvmsim
{

/**
 * A time-ordered queue of fn(ctx, arg) events.
 *
 * The queue advances simulated time: executing an event sets the current
 * tick to that event's timestamp.  Scheduling into the past is a
 * simulator bug and panics.
 */
class EventQueue
{
  public:
    /** Opaque handle identifying a scheduled event; 0 is never valid. */
    using EventId = std::uint64_t;

    /** The function an event runs: fn(ctx, arg). */
    using Fn = void (*)(void *ctx, std::uint64_t arg);

    /**
     * A fn(ctx, arg) call held outside the queue: the continuation a
     * component parks while it waits (a page walk, a far fault) and
     * runs, or schedules, when the wait ends.
     */
    struct Thunk
    {
        Fn fn = nullptr;
        void *ctx = nullptr;
        std::uint64_t arg = 0;

        explicit operator bool() const { return fn != nullptr; }
        void operator()() const { fn(ctx, arg); }
    };

    /** Handle value that never names a live event. */
    static constexpr EventId invalidEventId = 0;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return cur_tick_; }

    /**
     * Schedule fn(ctx, arg) at an absolute tick.  Events at the same
     * tick fire in the order they were scheduled.
     *
     * @param when Absolute firing time; must be >= curTick().
     * @return A handle usable with deschedule().
     */
    EventId
    scheduleCall(Tick when, Fn fn, void *ctx, std::uint64_t arg)
    {
        return push(when, next_seq_++, fn, ctx, arg);
    }

    /** Schedule fn(ctx, arg) relative to the current tick. */
    EventId
    scheduleCallAfter(Tick delay, Fn fn, void *ctx, std::uint64_t arg)
    {
        return scheduleCall(cur_tick_ + delay, fn, ctx, arg);
    }

    /**
     * Take the insertion-order number scheduleCall() would take now,
     * without scheduling anything.  A component that may or may not
     * need an event later reserves its place in the total order here
     * and schedules it with scheduleReserved().
     */
    std::uint64_t reserveSeq() { return next_seq_++; }

    /**
     * Schedule fn(ctx, arg) under a seq from reserveSeq(): it fires
     * exactly where a scheduleCall() made at reservation time would
     * have.  Panics on a seq that was never reserved or a past tick.
     */
    EventId scheduleReserved(Tick when, std::uint64_t seq, Fn fn, void *ctx,
                             std::uint64_t arg);

    /**
     * Cancel a previously scheduled event.
     *
     * @return true if the event existed and was cancelled; false if it
     *         already fired or was already cancelled.
     */
    bool deschedule(EventId id);

    /** True if there is at least one live (non-cancelled) event. */
    bool empty() const { return live_ == 0; }

    /** Number of live scheduled events. */
    std::size_t pending() const { return live_; }

    /** Total number of events executed since construction/reset. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Execute the single next live event, advancing time to it.
     *
     * @return true if an event was executed, false if the queue was
     *         empty.
     */
    bool runOne() { return fireNext(maxTick); }

    /**
     * Run events until the queue drains or the next event lies beyond
     * the limit tick.
     *
     * @param limit Run no event scheduled strictly after this tick.
     * @return Number of events executed.
     */
    std::uint64_t run(Tick limit = maxTick);

    /** Drop all events and reset time to zero. */
    void reset();

  private:
    /** Sentinel index for "no record". */
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    /** One arena slot: an event's thunk or a free-list link. */
    struct Rec
    {
        Fn fn = nullptr;
        void *ctx = nullptr;
        std::uint64_t arg = 0;
        std::uint32_t gen = 0;     //!< Guards stale EventIds.
        std::uint32_t next = npos; //!< Free-list link.
        bool live = false;         //!< Scheduled and not cancelled.
    };

    /** A heap entry: fires in (when, seq) order. */
    struct Key
    {
        Tick when;
        std::uint64_t seq; //!< Insertion order, the tie-break.
        std::uint32_t slot;
    };

    static bool
    firesBefore(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /** Put an unused slot on the free list. */
    void
    release(std::uint32_t slot)
    {
        arena_[slot].next = free_head_;
        free_head_ = slot;
    }

    /** Insert a record under the key (when, seq). */
    EventId push(Tick when, std::uint64_t seq, Fn fn, void *ctx,
                 std::uint64_t arg);

    /** Remove the heap's top key. */
    void popTop();

    /**
     * Reclaim cancelled records off the top of the heap, then fire the
     * earliest live event if it lies at or before limit.
     * @return Whether an event fired.
     */
    bool fireNext(Tick limit);

    std::vector<Rec> arena_;
    std::uint32_t free_head_ = npos;
    std::vector<Key> heap_; //!< 4-ary min-heap; children of i: 4i+1..4i+4.

    std::size_t live_ = 0;
    Tick cur_tick_ = 0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
};

} // namespace uvmsim
