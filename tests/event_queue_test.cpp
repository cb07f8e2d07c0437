/**
 * @file
 * Tests for the discrete-event queue: ordering, priorities, stable
 * same-tick order, bounded runs, time control, and the node pool.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/sim_object.hh"

using namespace pvsim;

TEST(EventQueue, RunsInTickOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    EXPECT_EQ(q.runUntil(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameTickPriorityOrdering)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, EventQueue::kPrioCpu, [&] { order.push_back(2); });
    q.schedule(5, EventQueue::kPrioResponse,
               [&] { order.push_back(1); });
    q.schedule(5, EventQueue::kPrioDefault,
               [&] { order.push_back(15); });
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 15, 2}));
}

TEST(EventQueue, SameTickSamePriorityIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    q.runUntil();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[size_t(i)], i);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.schedule(30, [&] { ++fired; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.numPending(), 1u);
    EXPECT_EQ(q.nextTick(), 30u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    std::vector<Tick> ticks;
    std::function<void()> chain = [&] {
        ticks.push_back(q.curTick());
        if (ticks.size() < 5)
            q.schedule(q.curTick() + 3, chain);
    };
    q.schedule(0, chain);
    q.runUntil();
    EXPECT_EQ(ticks, (std::vector<Tick>{0, 3, 6, 9, 12}));
}

TEST(EventQueue, SameTickReentrantScheduling)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] {
        order.push_back(1);
        q.schedule(5, [&] { order.push_back(2); });
    });
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunOneTickExecutesExactlyOneTick)
{
    EventQueue q;
    int fired = 0;
    q.schedule(4, [&] { ++fired; });
    q.schedule(4, [&] { ++fired; });
    q.schedule(9, [&] { ++fired; });
    EXPECT_EQ(q.runOneTick(), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.curTick(), 4u);
}

TEST(EventQueue, SetCurTickAdvancesIdleTime)
{
    EventQueue q;
    q.setCurTick(100);
    EXPECT_EQ(q.curTick(), 100u);
    int fired = 0;
    q.schedule(150, [&] { ++fired; });
    q.runUntil();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.curTick(), 150u);
}

TEST(EventQueue, ResetDropsEverything)
{
    EventQueue q;
    int fired = 0;
    q.schedule(5, [&] { ++fired; });
    q.reset();
    EXPECT_TRUE(q.empty());
    q.runUntil();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.curTick(), 0u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 5000; ++i) {
        Tick when = Tick((i * 7919) % 1000);
        q.schedule(when, [&, when] {
            monotonic = monotonic && when >= last;
            last = when;
        });
    }
    q.runUntil();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(q.numExecuted(), 5000u);
}

TEST(SimContextTest, ModesAndScheduling)
{
    SimContext fn(SimMode::Functional);
    EXPECT_FALSE(fn.isTiming());
    SimContext tm(SimMode::Timing);
    EXPECT_TRUE(tm.isTiming());

    SimObject obj(tm, nullptr, "obj");
    int fired = 0;
    obj.schedule(5, [&] { ++fired; });
    tm.events().runUntil();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(obj.curTick(), 5u);
}

// ---------------------------------------------------------------------
// Event node pool (the intrusive freelist behind schedule())
// ---------------------------------------------------------------------

TEST(EventPool, SteadyStateSchedulingDoesNotGrowThePool)
{
    EventQueue q;
    // Warm up: one chunk's worth of churn.
    for (int i = 0; i < 1000; ++i) {
        q.schedule(q.curTick() + 1, [] {});
        q.runOneTick();
    }
    size_t capacity = q.poolCapacity();
    EXPECT_GT(capacity, 0u);
    // Steady state: schedule-execute cycles with a few events in
    // flight must recycle nodes instead of allocating chunks.
    for (int i = 0; i < 20000; ++i) {
        q.schedule(q.curTick() + 1, [] {});
        q.schedule(q.curTick() + 2, [] {});
        q.runOneTick();
    }
    EXPECT_EQ(q.poolCapacity(), capacity)
        << "steady-state scheduling allocated new chunks";
    q.runUntil();
    EXPECT_EQ(q.poolFree(), q.poolCapacity())
        << "every node must return to the freelist when drained";
}

TEST(EventPool, ExecutedNodesAreReused)
{
    EventQueue q;
    int fired = 0;
    q.schedule(5, [&] { ++fired; });
    q.schedule(5, [&] { ++fired; });
    q.runUntil();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.poolFree(), q.poolCapacity());
}

TEST(EventPool, LargeCallablesAreBoxedAndDestroyed)
{
    auto token = std::make_shared<int>(7);
    EventQueue q;
    int sum = 0;
    // Capture well past the inline slot (48 bytes) to force the
    // heap-boxed path.
    struct Big {
        std::shared_ptr<int> p;
        char pad[96];
    };
    {
        Big big{token, {}};
        q.schedule(3, [big, &sum] { sum += *big.p; });
    }
    EXPECT_EQ(token.use_count(), 2);
    q.runUntil();
    EXPECT_EQ(sum, 7);
    EXPECT_EQ(token.use_count(), 1)
        << "boxed callable must be destroyed after execution";
}

