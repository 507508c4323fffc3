/**
 * @file
 * hDSM protocol tests: MSI state transitions, invalidation, transfer
 * accounting, and a randomized property test against a shadow memory.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "dsm/dsm.hh"
#include "util/rng.hh"

namespace xisa {
namespace {

constexpr uint64_t kBase = 0x10000000ull;

struct DsmFixture : ::testing::Test {
    Interconnect net;
    DsmSpace dsm{2, &net, {3.5, 2.4}};
    obs::StatRegistry reg;

    DsmFixture() { dsm.registerStats(reg); }
    uint64_t stat(const char *name) const
    {
        return reg.counterValue(name);
    }
};

TEST_F(DsmFixture, PopulateMakesHomeNodeModified)
{
    uint64_t v = 0xdeadbeef;
    dsm.populate(0, kBase, &v, 8);
    EXPECT_EQ(dsm.state(0, kBase / vm::kPageSize), PageState::Modified);
    EXPECT_EQ(dsm.state(1, kBase / vm::kPageSize), PageState::Invalid);
    EXPECT_EQ(dsm.modifiedOwner(kBase / vm::kPageSize), 0);
}

TEST_F(DsmFixture, RemoteReadSharesThePage)
{
    uint64_t v = 42;
    dsm.populate(0, kBase, &v, 8);
    uint64_t got = 0;
    uint64_t cost = dsm.port(1).read(kBase, &got, 8);
    EXPECT_EQ(got, 42u);
    EXPECT_GT(cost, 0u) << "remote fetch must cost cycles";
    EXPECT_EQ(dsm.state(0, kBase / vm::kPageSize), PageState::Shared);
    EXPECT_EQ(dsm.state(1, kBase / vm::kPageSize), PageState::Shared);
    EXPECT_EQ(stat("dsm.read_faults"), 1u);
    EXPECT_EQ(stat("dsm.page_transfers"), 1u);
    // Second read is a local hit.
    EXPECT_EQ(dsm.port(1).read(kBase, &got, 8), 0u);
}

TEST_F(DsmFixture, RemoteWriteInvalidatesOtherCopies)
{
    uint64_t v = 1;
    dsm.populate(0, kBase, &v, 8);
    uint64_t got;
    dsm.port(1).read(kBase, &got, 8); // both Shared
    uint64_t w = 7;
    uint64_t cost = dsm.port(1).write(kBase, &w, 8);
    EXPECT_GT(cost, 0u);
    EXPECT_EQ(dsm.state(1, kBase / vm::kPageSize), PageState::Modified);
    EXPECT_EQ(dsm.state(0, kBase / vm::kPageSize), PageState::Invalid);
    EXPECT_GE(stat("dsm.invalidations"), 1u);
    // Node 0 reading again must see node 1's write (fresh fetch).
    dsm.port(0).read(kBase, &got, 8);
    EXPECT_EQ(got, 7u);
    dsm.checkInvariants();
}

TEST_F(DsmFixture, ColdPagesMaterializeWithoutTraffic)
{
    uint64_t got = 1;
    EXPECT_EQ(dsm.port(0).read(kBase + 0x5000, &got, 8), 0u);
    EXPECT_EQ(got, 0u);
    EXPECT_EQ(stat("dsm.page_transfers"), 0u);
}

TEST_F(DsmFixture, WriteThenWriteOnOwnerIsFree)
{
    uint64_t w = 5;
    dsm.port(0).write(kBase, &w, 8);
    EXPECT_EQ(dsm.port(0).write(kBase + 8, &w, 8), 0u);
}

TEST_F(DsmFixture, CrossPageAccessFaultsBothPages)
{
    uint64_t v[2] = {0x1111, 0x2222};
    dsm.populate(0, kBase + vm::kPageSize - 4, v, 8);
    uint64_t got = 0;
    dsm.port(1).read(kBase + vm::kPageSize - 4, &got, 8);
    EXPECT_EQ(got & 0xffffffffu, 0x1111u);
    EXPECT_EQ(stat("dsm.page_transfers"), 2u);
}

TEST_F(DsmFixture, VdsoBroadcastIsVisibleEverywhereWithoutFaults)
{
    dsm.broadcastWrite64(vm::kVdsoBase, 99);
    for (int n = 0; n < 2; ++n) {
        uint64_t got = 0;
        EXPECT_EQ(dsm.port(n).read(vm::kVdsoBase, &got, 8), 0u);
        EXPECT_EQ(got, 99u);
    }
    EXPECT_EQ(stat("dsm.read_faults"), 0u);
}

TEST_F(DsmFixture, PeekNeverDisturbsProtocolState)
{
    uint64_t v = 13;
    dsm.populate(0, kBase, &v, 8);
    uint64_t got = 0;
    dsm.peek(kBase, &got, 8);
    EXPECT_EQ(got, 13u);
    EXPECT_EQ(dsm.state(0, kBase / vm::kPageSize), PageState::Modified);
    EXPECT_EQ(dsm.state(1, kBase / vm::kPageSize), PageState::Invalid);
}

TEST(DsmProperty, RandomOpsMatchShadowMemoryAcrossThreeNodes)
{
    Interconnect net;
    DsmSpace dsm(3, &net, {3.5, 2.4, 2.4});
    obs::StatRegistry reg;
    dsm.registerStats(reg);
    std::map<uint64_t, uint64_t> shadow; // word address -> value
    Rng rng(2024);
    const uint64_t words = 512; // spans two pages
    for (int op = 0; op < 20000; ++op) {
        int node = static_cast<int>(rng.below(3));
        uint64_t addr = kBase + rng.below(words) * 8;
        if (rng.below(2) == 0) {
            uint64_t v = rng.next();
            dsm.port(node).write(addr, &v, 8);
            shadow[addr] = v;
        } else {
            uint64_t got = 0;
            dsm.port(node).read(addr, &got, 8);
            auto it = shadow.find(addr);
            ASSERT_EQ(got, it == shadow.end() ? 0 : it->second)
                << "op " << op << " node " << node;
        }
        if (op % 1000 == 0)
            dsm.checkInvariants();
    }
    dsm.checkInvariants();
    EXPECT_GT(reg.counterValue("dsm.page_transfers"), 10u);
    EXPECT_GT(reg.counterValue("dsm.invalidations"), 10u);
}

TEST_F(DsmFixture, FencedHealRejectsMinorityWritesAndResyncs)
{
    uint64_t a = 0xA;
    dsm.populate(0, kBase, &a, 8);
    uint64_t got = 0;
    dsm.port(1).read(kBase, &got, 8); // both Shared
    ASSERT_EQ(got, 0xAu);

    dsm.beginPartition({1});
    EXPECT_TRUE(dsm.partitionActive());
    EXPECT_EQ(dsm.nodeEpoch(0), 1u);
    EXPECT_EQ(dsm.nodeEpoch(1), 1u);

    // The minority writes during the cut: its upgrade INVAL for node
    // 0's copy cannot cross, so it is deferred into the fenced outbox
    // and both sides keep serving their own (now divergent) copy.
    uint64_t c = 0xC;
    dsm.port(1).write(kBase, &c, 8);
    dsm.port(0).read(kBase, &got, 8);
    EXPECT_EQ(got, 0xAu) << "majority must keep its pre-cut value";
    dsm.port(1).read(kBase, &got, 8);
    EXPECT_EQ(got, 0xCu) << "minority serves its own write locally";

    dsm.healPartition();
    EXPECT_FALSE(dsm.partitionActive());
    // The heal minted a new epoch everywhere, recognized the deferred
    // INVAL as stale (sent under epoch 1, received under epoch 2), and
    // re-synced the divergent page from the majority side.
    EXPECT_EQ(dsm.nodeEpoch(0), 2u);
    EXPECT_EQ(dsm.nodeEpoch(1), 2u);
    EXPECT_EQ(dsm.fencedMessages(), 1u);
    EXPECT_EQ(dsm.pagesResynced(), 1u);
    dsm.port(0).read(kBase, &got, 8);
    EXPECT_EQ(got, 0xAu) << "majority copy is authoritative after heal";
    dsm.port(1).read(kBase, &got, 8);
    EXPECT_EQ(got, 0xAu) << "minority rejoins by re-sync, not replay";
    dsm.checkInvariants();
}

TEST_F(DsmFixture, UnfencedHealReplaysSplitBrainWrite)
{
    // Regression shape: with the epoch fence off, the heal applies the
    // stale pre-heal INVAL verbatim, killing the majority's good copy;
    // the majority then refetches the minority's partition-era write.
    dsm.setEpochFencing(false);
    uint64_t a = 0xA;
    dsm.populate(0, kBase, &a, 8);
    uint64_t got = 0;
    dsm.port(1).read(kBase, &got, 8); // both Shared

    dsm.beginPartition({1});
    uint64_t c = 0xC;
    dsm.port(1).write(kBase, &c, 8); // INVAL deferred across the cut
    dsm.healPartition();

    EXPECT_EQ(dsm.fencedMessages(), 0u) << "fence off: nothing rejected";
    EXPECT_EQ(dsm.pagesResynced(), 0u) << "fence off: no re-sync";
    // Epochs still advance at every heal -- fencing only controls
    // whether the receiver ENFORCES them by rejecting stale messages.
    EXPECT_EQ(dsm.nodeEpoch(0), 2u);
    EXPECT_EQ(dsm.nodeEpoch(1), 2u);
    dsm.port(0).read(kBase, &got, 8);
    EXPECT_EQ(got, 0xCu)
        << "split-brain: the minority's pre-heal write won";
}

TEST_F(DsmFixture, PartitionFencingCountersReachTheRegistry)
{
    uint64_t a = 0xA;
    dsm.populate(0, kBase, &a, 8);
    uint64_t got = 0;
    dsm.port(1).read(kBase, &got, 8);
    dsm.beginPartition({1});
    uint64_t c = 0xC;
    dsm.port(1).write(kBase, &c, 8);
    dsm.healPartition();
    EXPECT_EQ(stat("xfault.fenced_messages"), 1u);
    EXPECT_EQ(stat("xfault.pages_resynced"), 1u);
    // The deferred INVAL was first refused by the live cut.
    EXPECT_EQ(stat("xfault.cut_rejects"), 1u);
}

TEST(Interconnect, CostModelIsLatencyPlusBandwidth)
{
    Interconnect::Config cfg;
    cfg.latencyUs = 2.0;
    cfg.gbitPerSec = 8.0; // 1 GB/s
    Interconnect net(cfg);
    obs::StatRegistry reg;
    net.registerStats(reg, "net");
    EXPECT_NEAR(net.transferSeconds(0), 2e-6, 1e-12);
    EXPECT_NEAR(net.transferSeconds(1000000), 2e-6 + 1e-3, 1e-9);
    uint64_t cycles = net.charge(1000000, 1.0); // 1 GHz
    EXPECT_NEAR(static_cast<double>(cycles), (2e-6 + 1e-3) * 1e9, 2.0);
    EXPECT_EQ(reg.counterValue("net.messages"), 1u);
    EXPECT_EQ(reg.counterValue("net.bytes"), 1000000u);
}

} // namespace
} // namespace xisa
