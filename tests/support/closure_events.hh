/**
 * @file
 * Test-only adapter that schedules std::function closures on an
 * EventQueue.
 *
 * The queue itself only runs POD fn(ctx, arg) events.  Tests that want
 * to capture locals hand their closures to a ClosureEvents, which owns
 * them and schedules a thunk through scheduleCall() with the closure's
 * index as the argument.  Closures are kept until the ClosureEvents
 * dies, so it must outlive the queue's run.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace uvmsim
{

class ClosureEvents
{
  public:
    explicit ClosureEvents(EventQueue &eq) : eq_(eq) {}

    // Scheduled events hold this object's address.
    ClosureEvents(const ClosureEvents &) = delete;
    ClosureEvents &operator=(const ClosureEvents &) = delete;

    /** Run fn at absolute tick `when`. */
    EventQueue::EventId
    at(Tick when, std::function<void()> fn)
    {
        closures_.push_back(std::move(fn));
        return eq_.scheduleCall(when, &fire, this, closures_.size() - 1);
    }

    /** Run fn `delay` ticks after the queue's current tick. */
    EventQueue::EventId
    after(Tick delay, std::function<void()> fn)
    {
        return at(eq_.curTick() + delay, std::move(fn));
    }

  private:
    static void
    fire(void *self, std::uint64_t index)
    {
        // Move out first: the closure may schedule more closures and
        // grow the vector.
        auto fn = std::move(static_cast<ClosureEvents *>(self)
                                ->closures_[index]);
        fn();
    }

    EventQueue &eq_;
    std::vector<std::function<void()>> closures_;
};

} // namespace uvmsim
