#include "event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace uvmsim
{

EventQueue::EventId
EventQueue::scheduleReserved(Tick when, std::uint64_t seq, Fn fn,
                             void *ctx, std::uint64_t arg)
{
    if (seq == 0 || seq >= next_seq_) {
        panic("event scheduled under unreserved seq %llu (next %llu)",
              static_cast<unsigned long long>(seq),
              static_cast<unsigned long long>(next_seq_));
    }
    return push(when, seq, fn, ctx, arg);
}

EventQueue::EventId
EventQueue::push(Tick when, std::uint64_t seq, Fn fn, void *ctx,
                 std::uint64_t arg)
{
    if (when < cur_tick_) {
        panic("event scheduled in the past (when=%llu cur=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(cur_tick_));
    }

    std::uint32_t slot = free_head_;
    if (slot != npos) {
        free_head_ = arena_[slot].next;
    } else {
        slot = static_cast<std::uint32_t>(arena_.size());
        arena_.emplace_back();
    }
    Rec &rec = arena_[slot];
    rec.fn = fn;
    rec.ctx = ctx;
    rec.arg = arg;
    rec.live = true;
    ++live_;

    // Sift the new key up from a hole at the end.
    const Key key{when, seq, slot};
    std::size_t i = heap_.size();
    heap_.emplace_back();
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!firesBefore(key, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = key;

    return (static_cast<EventId>(slot) + 1) << 32 | rec.gen;
}

bool
EventQueue::deschedule(EventId id)
{
    if (id == invalidEventId)
        return false;
    std::uint64_t slot64 = (id >> 32) - 1;
    if (slot64 >= arena_.size())
        return false;
    Rec &rec = arena_[slot64];
    if (!rec.live || rec.gen != static_cast<std::uint32_t>(id))
        return false;

    // The key stays in the heap; fireNext() reclaims the slot when the
    // key reaches the top.
    rec.live = false;
    ++rec.gen; // stale EventIds must stop resolving
    --live_;
    return true;
}

void
EventQueue::popTop()
{
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return;

    // Sift the former last key down from a hole at the root.  A full
    // family of four picks its minimum by a two-round tournament whose
    // outcomes index the array instead of branching.
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = 4 * i + 1;
        std::size_t best = first;
        if (first + 3 < n) {
            const Key *c = &heap_[first];
            const std::size_t lo = firesBefore(c[1], c[0]);
            const std::size_t hi = 2 + firesBefore(c[3], c[2]);
            best += firesBefore(c[hi], c[lo]) ? hi : lo;
        } else if (first < n) {
            for (std::size_t c = first + 1; c < n; ++c) {
                if (firesBefore(heap_[c], heap_[best]))
                    best = c;
            }
        } else {
            break;
        }
        if (!firesBefore(heap_[best], last))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = last;
}

bool
EventQueue::fireNext(Tick limit)
{
    while (!heap_.empty()) {
        const Key top = heap_.front();
        Rec &rec = arena_[top.slot];
        if (!rec.live) {
            popTop(); // cancelled: reclaim lazily
            release(top.slot);
            continue;
        }
        if (top.when > limit)
            return false;

        popTop();
        const Fn fn = rec.fn;
        void *const ctx = rec.ctx;
        const std::uint64_t arg = rec.arg;
        rec.live = false;
        ++rec.gen;
        release(top.slot);
        --live_;

        cur_tick_ = top.when;
        ++executed_;
        // The callback may schedule new events and reallocate the
        // arena; no references into it may be held across this call.
        fn(ctx, arg);
        return true;
    }
    return false;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t count = 0;
    while (fireNext(limit))
        ++count;
    return count;
}

void
EventQueue::reset()
{
    arena_.clear();
    free_head_ = npos;
    heap_.clear();
    live_ = 0;
    cur_tick_ = 0;
    next_seq_ = 1;
    executed_ = 0;
}

} // namespace uvmsim
