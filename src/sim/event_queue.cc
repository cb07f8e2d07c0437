#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pvsim {

EventQueue::~EventQueue()
{
    for (Event *e : heap_) {
        if (e->destroy)
            e->destroy(e->storage);
    }
    // Chunk storage is released by chunks_; no per-node delete.
}

EventQueue::Event *
EventQueue::acquire(Tick when, int priority)
{
    pv_assert(when >= curTick_,
              "event scheduled in the past (%llu < %llu)",
              (unsigned long long)when, (unsigned long long)curTick_);
    if (!freeHead_) {
        auto chunk = std::make_unique<Event[]>(kChunkEvents);
        for (size_t i = 0; i < kChunkEvents; ++i) {
            chunk[i].nextFree = freeHead_;
            freeHead_ = &chunk[i];
        }
        freeCount_ += kChunkEvents;
        chunks_.push_back(std::move(chunk));
    }
    Event *e = freeHead_;
    freeHead_ = e->nextFree;
    --freeCount_;
    e->when = when;
    e->priority = priority;
    e->seq = nextSeq_++;
    return e;
}

void
EventQueue::commit(Event *e)
{
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
EventQueue::release(Event *e)
{
    e->nextFree = freeHead_;
    freeHead_ = e;
    ++freeCount_;
}

void
EventQueue::discard(Event *e)
{
    if (e->destroy)
        e->destroy(e->storage);
    release(e);
}

void
EventQueue::setCurTick(Tick to)
{
    pv_assert(to >= curTick_, "cannot rewind time");
    pv_assert(empty() || nextTick() >= to,
              "setCurTick would skip pending events");
    curTick_ = to;
}

Tick
EventQueue::nextTick() const
{
    pv_assert(!heap_.empty(), "nextTick on an empty queue");
    return heap_.front()->when;
}

EventQueue::Event *
EventQueue::popNext()
{
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event *e = heap_.back();
    heap_.pop_back();
    return e;
}

uint64_t
EventQueue::runUntil(Tick limit)
{
    uint64_t executed = 0;
    // Peek: stop without popping once the earliest event is beyond
    // the limit.
    while (!heap_.empty() && heap_.front()->when <= limit) {
        Event *e = popNext();
        pv_assert(e->when >= curTick_, "event queue went backwards");
        curTick_ = e->when;
        // The callable may schedule (allocating nodes); this node is
        // off the heap, so its storage stays valid until released
        // below.
        e->invoke(e->storage);
        if (e->destroy)
            e->destroy(e->storage);
        release(e);
        ++numExecuted_;
        ++executed;
    }
    return executed;
}

uint64_t
EventQueue::runOneTick()
{
    if (empty())
        return 0;
    return runUntil(nextTick());
}

void
EventQueue::reset()
{
    for (Event *e : heap_)
        discard(e);
    heap_.clear();
    curTick_ = 0;
}

} // namespace pvsim
