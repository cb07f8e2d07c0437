/**
 * @file
 * Tests for the PVCache victim buffer (paper Section 4.3 locality):
 * evicted-but-hot lines come back without a round trip through the
 * L2, an overflowing buffer writes its cold line back, flush drains
 * it, and under QoS each tenant's retention is capped by its PVCache
 * entitlement share.
 */

#include <gtest/gtest.h>

#include "core/pv_proxy.hh"
#include "core/pv_qos.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"

using namespace pvsim;

namespace {

/**
 * A PVProxy in front of a real L2 + DRAM. build() makes the
 * single-tenant proxy (table 0 pre-registered); buildShared() makes
 * an empty multi-tenant one for addTenant().
 */
struct VictimTest : public ::testing::Test {
    static constexpr unsigned kSets = 64;

    AddrMap amap{1ull << 30, 1, 512 * 1024};
    std::unique_ptr<SimContext> ctxp;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<PvProxy> proxy;

    PvProxyParams
    buildMemory(unsigned pvcache_entries, unsigned victim_entries)
    {
        proxy.reset();
        l2.reset();
        dram.reset();
        ctxp = std::make_unique<SimContext>(SimMode::Functional);
        dram = std::make_unique<Dram>(
            *ctxp, DramParams{"dram", 400, 0}, &amap);
        CacheParams l2p;
        l2p.name = "l2";
        l2p.sizeBytes = 1024 * 1024;
        l2p.assoc = 8;
        l2p.directory = true;
        l2 = std::make_unique<Cache>(*ctxp, l2p, &amap);
        l2->setMemSide(dram.get());

        PvProxyParams pp;
        pp.pvCacheEntries = pvcache_entries;
        pp.victimEntries = victim_entries;
        return pp;
    }

    void
    build(unsigned pvcache_entries, unsigned victim_entries)
    {
        PvProxyParams pp = buildMemory(pvcache_entries, victim_entries);
        proxy = std::make_unique<PvProxy>(
            *ctxp, pp, PvTableLayout(amap.pvStart(0), kSets));
        proxy->setMemSide(l2.get());
    }

    void
    buildShared(unsigned pvcache_entries, unsigned victim_entries)
    {
        PvProxyParams pp = buildMemory(pvcache_entries, victim_entries);
        pp.usedBitsPerLine = 0;
        proxy = std::make_unique<PvProxy>(
            *ctxp, pp, amap.pvStart(0), amap.pvBytesPerCore());
        proxy->setMemSide(l2.get());
    }

    unsigned
    addTenant(const std::string &name, unsigned weight)
    {
        PvTenantQos q;
        q.weight = weight;
        return proxy->registerEngine({name, kSets, 100, q});
    }

    void
    poke(unsigned set, uint8_t value, unsigned table = 0)
    {
        proxy->access({table, set, PvReqClass::Demand,
                       [value](PvLineView v) {
            ASSERT_NE(v.bytes, nullptr);
            v.bytes[0] = value;
            *v.dirty = true;
        }});
    }

    uint8_t
    peek(unsigned set, unsigned table = 0)
    {
        uint8_t out = 0xEE;
        proxy->access({table, set, PvReqClass::Demand,
                       [&out](PvLineView v) {
            ASSERT_NE(v.bytes, nullptr);
            out = v.bytes[0];
        }});
        return out;
    }

    unsigned
    victimTotal() const
    {
        unsigned n = 0;
        for (unsigned t = 0; t < proxy->numEngines(); ++t)
            n += proxy->victimOccupancy(t);
        return n;
    }

    /**
     * Weights 3:1 over 8 PVCache entries (entitlements 6 and 2) and
     * 8 victim entries (shares 6 and 2), with the buffer filled to
     * both shares: btb's sets 0..5 retained first (the coldest), then
     * agg's sets 0 and 1. Values are 0x10+set for btb, 0x20+set for
     * agg. Returns {btb, agg}.
     */
    std::pair<unsigned, unsigned>
    fillToBothShares()
    {
        buildShared(/*pvcache=*/8, /*victims=*/8);
        const unsigned btb = addTenant("btb", 3);
        const unsigned agg = addTenant("agg", 1);
        for (unsigned s = 0; s < 6; ++s)
            poke(s, uint8_t(0x10 + s), btb);
        poke(0, 0x20, agg);
        poke(1, 0x21, agg);
        // At its entitlement, each tenant replaces within its own
        // lines, and each eviction is retained.
        for (unsigned s = 6; s < 12; ++s)
            poke(s, uint8_t(0x10 + s), btb);
        poke(2, 0x22, agg);
        poke(3, 0x23, agg);
        return {btb, agg};
    }
};

} // namespace

TEST_F(VictimTest, VictimBufferReinstatesWithoutL2Traffic)
{
    build(/*pvcache=*/2, /*victims=*/4);
    poke(1, 0xAA);
    poke(2, 0xBB);
    poke(3, 0xCC); // evicts dirty set 1 into the victim buffer
    EXPECT_EQ(proxy->writebacks.value(), 0u)
        << "retention replaces the writeback";
    uint64_t mem = proxy->memRequests.value();

    // The evicted-but-hot line comes back from the victim buffer:
    // bytes intact, no L2 round trip.
    EXPECT_EQ(peek(1), 0xAA);
    EXPECT_EQ(proxy->victimHits.value(), 1u);
    EXPECT_EQ(proxy->engineStats(0).victimHits.value(), 1u);
    EXPECT_EQ(proxy->memRequests.value(), mem);
}

TEST_F(VictimTest, VictimOverflowWritesBackTheColdLine)
{
    build(/*pvcache=*/1, /*victims=*/1);
    poke(1, 0x11); // PVCache
    poke(2, 0x22); // set 1 -> victim buffer
    poke(3, 0x33); // set 2 evicts; buffer full, set 1 flushes dirty
    EXPECT_GE(proxy->writebacks.value(), 1u);
    // The flushed line is recoverable through the hierarchy.
    EXPECT_EQ(peek(1), 0x11);
}

TEST_F(VictimTest, FlushDrainsTheVictimBuffer)
{
    build(/*pvcache=*/2, /*victims=*/4);
    poke(1, 0x11);
    poke(2, 0x22);
    poke(3, 0x33); // dirty set 1 retained
    proxy->flush();
    EXPECT_EQ(proxy->victimOccupancy(0), 0u);
    // Every dirty line — cached or retained — reached the L2.
    EXPECT_EQ(peek(1), 0x11);
    EXPECT_EQ(peek(2), 0x22);
    EXPECT_EQ(peek(3), 0x33);
}

// ---------------------------------------------------------------------
// QoS: retention is charged to the owning tenant's PVCache share.
// ---------------------------------------------------------------------

TEST_F(VictimTest, ZeroEntitlementTenantRetainsNothing)
{
    buildShared(/*pvcache=*/8, /*victims=*/8);
    const unsigned btb = addTenant("btb", 3);
    const unsigned agg = addTenant("agg", 1);
    // The aggressor takes every free PVCache entry before the
    // contract change...
    for (unsigned s = 0; s < 8; ++s)
        poke(s, uint8_t(0x20 + s), agg);
    ASSERT_EQ(proxy->pvCacheOccupancy(agg), 8u);

    // ... then drops to weight 0: entitled to no PVCache entries,
    // and so to no victim slots. btb reclaims all eight lines; each
    // is written back, none is retained.
    PvTenantQos best_effort;
    best_effort.weight = 0;
    proxy->setTenantQos(agg, best_effort);
    ASSERT_EQ(proxy->qosArbiter().entitlement(agg, PvQosArbiter::PvCache),
              0u);
    for (unsigned s = 0; s < 8; ++s)
        poke(s, uint8_t(0x10 + s), btb);
    EXPECT_EQ(proxy->pvCacheOccupancy(agg), 0u);
    EXPECT_EQ(proxy->victimOccupancy(agg), 0u);
    EXPECT_EQ(proxy->engineStats(agg).writebacks.value(), 8u);
    EXPECT_EQ(proxy->victimOccupancy(btb), 0u);
    EXPECT_EQ(proxy->victimHits.value(), 0u);
}

TEST_F(VictimTest, TenantAtItsShareRecyclesItsOwnColdestVictim)
{
    auto [btb, agg] = fillToBothShares();
    ASSERT_EQ(proxy->victimOccupancy(btb), 6u);
    ASSERT_EQ(proxy->victimOccupancy(agg), 2u);
    ASSERT_EQ(proxy->writebacks.value(), 0u);

    // agg evicts set 2 while at its share. btb's set 0 is the
    // buffer's coldest line, but agg must recycle its own coldest
    // victim (set 0), writing it back.
    poke(4, 0x24, agg);
    EXPECT_EQ(proxy->victimOccupancy(btb), 6u);
    EXPECT_EQ(proxy->victimOccupancy(agg), 2u);
    EXPECT_EQ(proxy->engineStats(agg).writebacks.value(), 1u);
    EXPECT_EQ(proxy->engineStats(btb).writebacks.value(), 0u);

    // btb's coldest line is still retained; agg's set 0 now comes
    // from memory, its value intact.
    EXPECT_EQ(peek(0, btb), 0x10);
    EXPECT_EQ(proxy->engineStats(btb).victimHits.value(), 1u);
    const uint64_t mem = proxy->memRequests.value();
    EXPECT_EQ(peek(0, agg), 0x20);
    EXPECT_EQ(proxy->engineStats(agg).victimHits.value(), 0u);
    EXPECT_EQ(proxy->memRequests.value(), mem + 1);
}

TEST_F(VictimTest, OccupancySumsToValidSlotsAndFlushEmptiesThem)
{
    auto [btb, agg] = fillToBothShares();
    // Both tenants at their shares fill all eight slots.
    EXPECT_EQ(victimTotal(), 8u);

    proxy->flush();
    EXPECT_EQ(victimTotal(), 0u);
    EXPECT_EQ(proxy->pvCacheOccupancy(btb), 0u);
    EXPECT_EQ(proxy->pvCacheOccupancy(agg), 0u);
    // Every dirty line, cached or retained, reached the L2.
    for (unsigned s = 0; s < 12; ++s)
        EXPECT_EQ(peek(s, btb), uint8_t(0x10 + s)) << "btb set " << s;
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(peek(s, agg), uint8_t(0x20 + s)) << "agg set " << s;
}
