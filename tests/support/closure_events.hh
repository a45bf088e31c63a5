/**
 * @file
 * Test-only adapters that turn std::function closures into the
 * simulator's POD fn(ctx, arg) continuations.
 *
 * The event queue, Gmmu::translate and the far-fault MSHRs only take
 * POD thunks.  Tests that want to capture locals hand their closures
 * to a Closures, which owns them and returns a thunk whose argument is
 * the closure's index; ClosureEvents schedules such thunks on an
 * EventQueue.  Closures are kept until the adapter dies, so it must
 * outlive every thunk it handed out.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace uvmsim
{

class Closures
{
  public:
    Closures() = default;

    // Handed-out thunks hold this object's address.
    Closures(const Closures &) = delete;
    Closures &operator=(const Closures &) = delete;

    /** A thunk that runs fn once. */
    EventQueue::Thunk
    thunk(std::function<void()> fn)
    {
        closures_.push_back(std::move(fn));
        return {&fire, this, closures_.size() - 1};
    }

  private:
    static void
    fire(void *self, std::uint64_t index)
    {
        // Move out first: the closure may hand out more thunks and
        // grow the vector.
        auto fn = std::move(static_cast<Closures *>(self)->closures_[index]);
        fn();
    }

    std::vector<std::function<void()>> closures_;
};

class ClosureEvents
{
  public:
    explicit ClosureEvents(EventQueue &eq) : eq_(eq) {}

    /** Run fn at absolute tick `when`. */
    EventQueue::EventId
    at(Tick when, std::function<void()> fn)
    {
        const EventQueue::Thunk t = closures_.thunk(std::move(fn));
        return eq_.scheduleCall(when, t.fn, t.ctx, t.arg);
    }

    /** Run fn `delay` ticks after the queue's current tick. */
    EventQueue::EventId
    after(Tick delay, std::function<void()> fn)
    {
        return at(eq_.curTick() + delay, std::move(fn));
    }

  private:
    EventQueue &eq_;
    Closures closures_;
};

} // namespace uvmsim
