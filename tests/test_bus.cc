/**
 * @file
 * Unit tests for the split-transaction bus model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/split_bus.hh"

namespace prefsim
{
namespace
{

struct Completion
{
    Transaction txn;
    Cycle at;
};

struct BusHarness
{
    explicit BusHarness(const BusTiming &timing, unsigned procs = 4)
        : bus(timing, procs)
    {}

    /** Run the bus up to (and including) cycle @p until. */
    void
    runTo(Cycle until)
    {
        for (; cycle <= until; ++cycle)
            bus.tick(cycle, [this](const Transaction &t, Cycle now) {
                done.push_back({t, now});
            });
    }

    Transaction
    make(BusOpKind kind, ProcId proc, Addr line, bool prefetch = false)
    {
        Transaction t;
        t.kind = kind;
        t.requester = proc;
        t.lineBase = line;
        t.isPrefetch = prefetch;
        t.issuedAt = cycle;
        return t;
    }

    SplitBus bus;
    Cycle cycle = 0;
    std::vector<Completion> done;
};

const BusTiming kT8{100, 8, 2};

TEST(BusTiming, Phases)
{
    EXPECT_EQ(kT8.memoryPhase(), 92u);
    EXPECT_EQ(kT8.occupancy(BusOpKind::ReadShared), 8u);
    EXPECT_EQ(kT8.occupancy(BusOpKind::ReadExclusive), 8u);
    EXPECT_EQ(kT8.occupancy(BusOpKind::WriteBack), 8u);
    EXPECT_EQ(kT8.occupancy(BusOpKind::Upgrade), 2u);
}

TEST(BusTimingDeathTest, InvalidTransferIsFatal)
{
    EXPECT_EXIT(SplitBus(BusTiming{100, 0, 2}, 4),
                testing::ExitedWithCode(1), "");
    EXPECT_EXIT(SplitBus(BusTiming{100, 200, 2}, 4),
                testing::ExitedWithCode(1), "");
}

TEST(SplitBus, UncontendedLatencyIsTotal)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h.runTo(200);
    ASSERT_EQ(h.done.size(), 1u);
    // Memory phase 92, granted at 92, transfer 8 -> completes at 100.
    EXPECT_EQ(h.done[0].at, 100u);
}

TEST(SplitBus, UpgradeSkipsMemoryPhase)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::Upgrade, 0, 0x1000), 0);
    h.runTo(10);
    ASSERT_EQ(h.done.size(), 1u);
    EXPECT_EQ(h.done[0].at, 2u);
}

TEST(SplitBus, WritebackReadyImmediately)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::WriteBack, 0, 0x1000), 0);
    h.runTo(20);
    ASSERT_EQ(h.done.size(), 1u);
    EXPECT_EQ(h.done[0].at, 8u);
}

TEST(SplitBus, BackToBackTransfersSerialize)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h.bus.request(h.make(BusOpKind::ReadShared, 1, 0x2000), 0);
    h.runTo(300);
    ASSERT_EQ(h.done.size(), 2u);
    EXPECT_EQ(h.done[0].at, 100u);
    EXPECT_EQ(h.done[1].at, 108u); // Queued behind the first transfer.
    EXPECT_EQ(h.bus.stats().busyCycles, 16u);
}

TEST(SplitBus, DemandBeatsPrefetch)
{
    BusHarness h(kT8);
    // Both ready at the same time; the prefetch was requested first.
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000, true), 0);
    h.bus.request(h.make(BusOpKind::ReadShared, 1, 0x2000, false), 0);
    h.runTo(300);
    ASSERT_EQ(h.done.size(), 2u);
    EXPECT_EQ(h.done[0].txn.requester, 1u); // Demand first.
    EXPECT_TRUE(h.done[1].txn.isPrefetch);
}

TEST(SplitBus, PromotedPrefetchGainsDemandPriority)
{
    BusHarness h(kT8);
    const auto id =
        h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000, true), 0);
    h.bus.request(h.make(BusOpKind::ReadShared, 1, 0x2000, true), 0);
    h.bus.promoteToDemand(id);
    h.runTo(300);
    ASSERT_EQ(h.done.size(), 2u);
    EXPECT_EQ(h.done[0].txn.requester, 0u);
    EXPECT_TRUE(h.done[0].txn.demandWaiting);
    EXPECT_EQ(h.bus.stats().grantsDemand, 1u);
    EXPECT_EQ(h.bus.stats().grantsPrefetch, 1u);
}

TEST(SplitBus, RoundRobinAcrossProcessors)
{
    BusHarness h(kT8);
    // Four demands become ready simultaneously.
    for (ProcId p = 0; p < 4; ++p)
        h.bus.request(h.make(BusOpKind::ReadShared, 3 - p,
                             0x1000 + Addr{p} * 0x100), 0);
    h.runTo(400);
    ASSERT_EQ(h.done.size(), 4u);
    // Grant order rotates: 0 wins the first grant (rr starts at 0),
    // then each grant moves past the served requester.
    std::vector<ProcId> order;
    for (const auto &c : h.done)
        order.push_back(c.txn.requester);
    EXPECT_EQ(order, (std::vector<ProcId>{0, 1, 2, 3}));
}

TEST(SplitBus, RoundRobinIsNotStarving)
{
    BusHarness h(kT8, 2);
    // Proc 0 floods with 32 demands; proc 1 submits one later. Proc 1
    // must be served at its first arbitration opportunity, not behind
    // the whole queue.
    for (unsigned i = 0; i < 32; ++i)
        h.bus.request(
            h.make(BusOpKind::ReadShared, 0, 0x1000 + Addr{i} * 32), 0);
    h.runTo(91);
    h.bus.request(h.make(BusOpKind::ReadShared, 1, 0xf000), h.cycle);
    h.runTo(2500);
    ASSERT_EQ(h.done.size(), 33u);
    std::size_t pos = 0;
    for (std::size_t i = 0; i < h.done.size(); ++i) {
        if (h.done[i].txn.requester == 1)
            pos = i;
    }
    // Ready at ~184; grants happen every 8 cycles from 92, so it should
    // be roughly the 13th grant, not the 33rd.
    EXPECT_LE(pos, 14u);
}

TEST(SplitBus, QueueWaitAccounting)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h.bus.request(h.make(BusOpKind::ReadShared, 1, 0x2000), 0);
    h.runTo(300);
    // Second transaction waited 8 cycles after its memory phase.
    EXPECT_EQ(h.bus.stats().queueWaitDemand, 8u);
}

TEST(SplitBus, BusyFlag)
{
    BusHarness h(kT8);
    EXPECT_FALSE(h.bus.busy());
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    EXPECT_TRUE(h.bus.busy());
    h.runTo(120);
    EXPECT_FALSE(h.bus.busy());
}

TEST(SplitBus, OpCountsByKind)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h.bus.request(h.make(BusOpKind::ReadExclusive, 1, 0x2000), 0);
    h.bus.request(h.make(BusOpKind::Upgrade, 2, 0x3000), 0);
    h.bus.request(h.make(BusOpKind::WriteBack, 3, 0x4000), 0);
    h.runTo(400);
    const BusStats &s = h.bus.stats();
    EXPECT_EQ(s.opCount[unsigned(BusOpKind::ReadShared)], 1u);
    EXPECT_EQ(s.opCount[unsigned(BusOpKind::ReadExclusive)], 1u);
    EXPECT_EQ(s.opCount[unsigned(BusOpKind::Upgrade)], 1u);
    EXPECT_EQ(s.opCount[unsigned(BusOpKind::WriteBack)], 1u);
    EXPECT_EQ(s.totalOps(), 4u);
    // Address-class upgrades do not occupy the data bus.
    EXPECT_EQ(s.busyCycles, 8u + 8u + 8u);
}

TEST(SplitBus, UtilizationMath)
{
    BusStats s;
    s.busyCycles = 50;
    EXPECT_NEAR(s.utilization(200), 0.25, 1e-12);
    EXPECT_EQ(s.utilization(0), 0.0);
}

TEST(SplitBus, ResetStats)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h.runTo(150);
    EXPECT_GT(h.bus.stats().busyCycles, 0u);
    h.bus.resetStats();
    EXPECT_EQ(h.bus.stats().busyCycles, 0u);
    EXPECT_EQ(h.bus.stats().totalOps(), 0u);
}

TEST(SplitBus, FasterTransferLowerLatency)
{
    BusHarness h4(BusTiming{100, 4, 2});
    h4.bus.request(h4.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h4.runTo(200);
    ASSERT_EQ(h4.done.size(), 1u);
    EXPECT_EQ(h4.done[0].at, 100u); // Total latency unchanged...

    BusHarness h32(BusTiming{100, 32, 2});
    h32.bus.request(h32.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h32.bus.request(h32.make(BusOpKind::ReadShared, 1, 0x2000), 0);
    h32.runTo(400);
    ASSERT_EQ(h32.done.size(), 2u);
    EXPECT_EQ(h32.done[0].at, 100u);
    EXPECT_EQ(h32.done[1].at, 132u); // ...but queueing costs more.
}


TEST(MultiChannelBus, ParallelTransfers)
{
    // Two channels: two simultaneous fetches complete together.
    BusTiming timing{100, 8, 2, 2};
    BusHarness h(timing);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h.bus.request(h.make(BusOpKind::ReadShared, 1, 0x2000), 0);
    h.runTo(300);
    ASSERT_EQ(h.done.size(), 2u);
    EXPECT_EQ(h.done[0].at, 100u);
    EXPECT_EQ(h.done[1].at, 100u); // No queueing behind channel 1.
    EXPECT_EQ(h.bus.stats().queueWaitDemand, 0u);
    // Occupancy still accumulates per transfer.
    EXPECT_EQ(h.bus.stats().busyCycles, 16u);
}

TEST(MultiChannelBus, ThirdTransferQueues)
{
    BusTiming timing{100, 8, 2, 2};
    BusHarness h(timing);
    for (ProcId p = 0; p < 3; ++p)
        h.bus.request(
            h.make(BusOpKind::ReadShared, p, 0x1000 + Addr{p} * 0x100), 0);
    h.runTo(300);
    ASSERT_EQ(h.done.size(), 3u);
    EXPECT_EQ(h.done[0].at, 100u);
    EXPECT_EQ(h.done[1].at, 100u);
    EXPECT_EQ(h.done[2].at, 108u); // Waited for a free channel.
}

TEST(MultiChannelBus, ManyChannelsApproximateNoContention)
{
    BusTiming timing{100, 32, 2, 16};
    BusHarness h(timing, 16);
    for (ProcId p = 0; p < 16; ++p)
        h.bus.request(
            h.make(BusOpKind::ReadShared, p, 0x1000 + Addr{p} * 0x100), 0);
    h.runTo(300);
    ASSERT_EQ(h.done.size(), 16u);
    for (const auto &c : h.done)
        EXPECT_EQ(c.at, 100u); // Everyone sees the uncontended latency.
}

TEST(MultiChannelBusDeathTest, ZeroChannelsIsFatal)
{
    EXPECT_EXIT(SplitBus(BusTiming{100, 8, 2, 0}, 4),
                testing::ExitedWithCode(1), "channel");
}

TEST(BusOpNames, AllNamed)
{
    EXPECT_EQ(busOpName(BusOpKind::ReadShared), "ReadShared");
    EXPECT_EQ(busOpName(BusOpKind::ReadExclusive), "ReadExclusive");
    EXPECT_EQ(busOpName(BusOpKind::Upgrade), "Upgrade");
    EXPECT_EQ(busOpName(BusOpKind::WriteBack), "WriteBack");
    EXPECT_EQ(busOpName(BusOpKind::WriteUpdate), "WriteUpdate");
}

} // namespace
} // namespace prefsim
