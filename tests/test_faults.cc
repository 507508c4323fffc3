/**
 * @file
 * Deterministic chaos suite for the fault-injection layer.
 *
 * Every scenario runs from a fixed seed, so a failure replays exactly.
 * Coverage: the FaultPlan decision stream itself, interconnect
 * retry/backoff accounting, hDSM convergence and MSI invariants under
 * drop/duplicate/partition storms, thread migration under message loss
 * (complete or cleanly abort with the thread runnable on the source),
 * scheduler crash/failover with exactly-once checkpoint restarts, and
 * the zero-fault bit-identity guarantee.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "check/audit.hh"
#include "check/perturb.hh"
#include "dsm/dsm.hh"
#include "dsm/faults.hh"
#include "ir/interp.hh"
#include "obs/registry.hh"
#include "os/os.hh"
#include "sched/cluster.hh"
#include "sched/jobsets.hh"
#include "sched/profile.hh"
#include "testprogs.hh"
#include "traffic/traffic.hh"
#include "util/rng.hh"

namespace xisa {
namespace {

constexpr uint64_t kBase = 0x10000000ull;
constexpr uint64_t kPageMsg = vm::kPageSize + 64; // page + header
constexpr uint64_t kDsmWords = 512;               // two pages

// --- FaultPlan -------------------------------------------------------

TEST(FaultPlan, DeterministicPerSeedAndConfig)
{
    FaultConfig cfg;
    cfg.seed = 0x7a57;
    cfg.dropProb = 0.2;
    cfg.dupProb = 0.1;
    cfg.spikeProb = 0.15;
    cfg.degradeFactor = 2.0;
    cfg.degradePeriodMsgs = 10;
    cfg.degradeLenMsgs = 3;
    FaultPlan a(cfg), b(cfg);
    bool sawDrop = false, sawDup = false, sawSpike = false,
         sawDegrade = false;
    for (int i = 0; i < 5000; ++i) {
        FaultDecision da = a.next(), db = b.next();
        ASSERT_EQ(da.delivered, db.delivered) << "msg " << i;
        ASSERT_EQ(da.duplicated, db.duplicated) << "msg " << i;
        ASSERT_EQ(da.partitioned, db.partitioned) << "msg " << i;
        ASSERT_DOUBLE_EQ(da.extraLatencySeconds, db.extraLatencySeconds);
        ASSERT_DOUBLE_EQ(da.bandwidthFactor, db.bandwidthFactor);
        sawDrop |= !da.delivered;
        sawDup |= da.duplicated;
        sawSpike |= da.extraLatencySeconds > 0;
        sawDegrade |= da.bandwidthFactor != 1.0;
    }
    EXPECT_TRUE(sawDrop);
    EXPECT_TRUE(sawDup);
    EXPECT_TRUE(sawSpike);
    EXPECT_TRUE(sawDegrade);
    // A different seed yields a different schedule.
    FaultConfig reseeded = cfg;
    reseeded.seed = 0x7a58;
    FaultPlan c(reseeded);
    FaultPlan a2(cfg);
    int differing = 0;
    for (int i = 0; i < 1000; ++i)
        if (c.next().delivered != a2.next().delivered)
            ++differing;
    EXPECT_GT(differing, 0);
}

TEST(FaultPlan, EmptyConfigInjectsNothing)
{
    FaultConfig cfg; // all defaults
    EXPECT_TRUE(cfg.empty());
    FaultPlan plan(cfg);
    EXPECT_TRUE(plan.empty());
    for (int i = 0; i < 100; ++i) {
        FaultDecision d = plan.next();
        EXPECT_TRUE(d.delivered);
        EXPECT_FALSE(d.duplicated);
        EXPECT_FALSE(d.partitioned);
        EXPECT_DOUBLE_EQ(d.extraLatencySeconds, 0.0);
        EXPECT_DOUBLE_EQ(d.bandwidthFactor, 1.0);
    }
    // A degrade factor with no window is still empty.
    FaultConfig noWin;
    noWin.degradeFactor = 4.0;
    EXPECT_TRUE(noWin.empty());
}

TEST(FaultPlan, PartitionWindowsMatchConfiguredDuty)
{
    FaultConfig cfg;
    cfg.partitionPeriodMsgs = 8;
    cfg.partitionLenMsgs = 2;
    FaultPlan plan(cfg);
    for (uint64_t i = 0; i < 64; ++i) {
        bool expectDown = i % 8 >= 6;
        FaultDecision d = plan.next();
        EXPECT_EQ(d.partitioned, expectDown) << "msg " << i;
        EXPECT_EQ(d.delivered, !expectDown) << "msg " << i;
    }
}

TEST(FaultPlan, LegacyPartitionFlagsNormalizeToWholeLinkCut)
{
    // The legacy partition_period/partition_len pair is sugar: the
    // constructor folds it into a whole-link cut-set (empty sideA),
    // so there is exactly one partition code path.
    FaultConfig legacy;
    legacy.partitionPeriodMsgs = 8;
    legacy.partitionLenMsgs = 2;
    FaultPlan plan(legacy);
    ASSERT_EQ(plan.config().cutSets.size(), 1u);
    EXPECT_TRUE(plan.config().cutSets[0].sideA.empty());
    EXPECT_EQ(plan.config().cutSets[0].periodMsgs, 8u);
    EXPECT_EQ(plan.config().cutSets[0].lenMsgs, 2u);
    EXPECT_EQ(plan.config().partitionPeriodMsgs, 0u);
    EXPECT_EQ(plan.config().partitionLenMsgs, 0u);

    // ... and the decision stream is identical to a directly
    // configured whole-link cut-set.
    FaultConfig direct;
    FaultCut whole;
    whole.periodMsgs = 8;
    whole.lenMsgs = 2;
    direct.cutSets.push_back(whole);
    FaultPlan a(legacy), b(direct);
    for (int i = 0; i < 256; ++i) {
        FaultDecision da = a.next(), db = b.next();
        ASSERT_EQ(da.partitioned, db.partitioned) << "msg " << i;
        ASSERT_EQ(da.sidedCut, db.sidedCut) << "msg " << i;
        EXPECT_FALSE(da.sidedCut); // whole-link cuts are not sided
    }
}

TEST(FaultPlan, SidedCutOnlySeversCrossPairs)
{
    FaultConfig cfg;
    FaultCut cut;
    cut.sideA = {0, 1};
    cut.periodMsgs = 4;
    cut.lenMsgs = 4; // always inside the window
    cfg.cutSets.push_back(cut);
    EXPECT_FALSE(cfg.empty());

    FaultPlan plan(cfg);
    // Crossing the cut: severed, and marked sided so the failure
    // detector clamps at Suspect instead of declaring death.
    FaultDecision cross = plan.nextBetween(0, 2);
    EXPECT_TRUE(cross.partitioned);
    EXPECT_TRUE(cross.sidedCut);
    EXPECT_FALSE(cross.delivered);
    // Same side: unaffected.
    FaultDecision same = plan.nextBetween(0, 1);
    EXPECT_TRUE(same.delivered);
    FaultDecision far = plan.nextBetween(2, 3);
    EXPECT_TRUE(far.delivered);
    // Unknown endpoints (legacy peer-less send) never cross a SIDED
    // cut -- only whole-link cuts sever anonymous traffic.
    FaultDecision anon = plan.next();
    EXPECT_TRUE(anon.delivered);
}

// --- Interconnect send/reliableSend ----------------------------------

TEST(FaultyInterconnect, PerfectLinkSendMatchesCharge)
{
    Interconnect faultAware; // empty plan
    obs::StatRegistry reg;
    faultAware.registerStats(reg, "net");
    Interconnect legacy;
    auto r = faultAware.send(5000, 2.0);
    EXPECT_EQ(r.status, SendStatus::Delivered);
    EXPECT_FALSE(r.duplicate);
    EXPECT_EQ(r.cycles, legacy.charge(5000, 2.0));
    EXPECT_DOUBLE_EQ(r.seconds, legacy.transferSeconds(5000));
    auto rr = faultAware.reliableSend(5000, 2.0);
    EXPECT_EQ(rr.attempts, 1);
    EXPECT_EQ(rr.cycles, legacy.charge(5000, 2.0));
    EXPECT_EQ(reg.counterValue("net.messages"), 2u);
    EXPECT_EQ(reg.counterValue("net.bytes"), 10000u);
}

TEST(FaultyInterconnect, ReliableSendChargesTimeoutAndBackoff)
{
    Interconnect::Config cfg;
    cfg.faults.scriptedDrops = {0, 1}; // first two attempts lost
    Interconnect net(cfg);
    obs::StatRegistry reg;
    net.registerStats(reg, "net");

    auto r = net.reliableSend(100, 1.0);
    EXPECT_EQ(r.attempts, 3);
    // Three wire attempts plus (timeout+5us) and (timeout+10us) waits.
    double wire = 3 * net.transferSeconds(100);
    double waits = (10.0 + 5.0) * 1e-6 + (10.0 + 10.0) * 1e-6;
    EXPECT_NEAR(r.seconds, wire + waits, 1e-12);
    EXPECT_EQ(reg.counterValue("net.messages"), 3u);
    EXPECT_EQ(reg.counterValue("net.bytes"), 300u);
    EXPECT_EQ(reg.counterValue("xfault.drops"), 2u);
    EXPECT_EQ(reg.counterValue("xfault.retries"), 2u);
    // At 1 GHz, backoff cycles are the waits in nanoseconds (same
    // truncation as the implementation's cycle conversion).
    EXPECT_EQ(reg.counterValue("xfault.backoff_cycles"),
              static_cast<uint64_t>(15.0 * 1e-6 * 1e9) +
                  static_cast<uint64_t>(20.0 * 1e-6 * 1e9));
}

// --- hDSM under faults -----------------------------------------------

/** Scripted drops pin the exact wire accounting of one retried page
 *  fault: no double-charging anywhere in the path (issue audit). */
TEST(FaultyDsm, ScriptedDropsPinRetryAccounting)
{
    Interconnect::Config cfg;
    cfg.faults.scriptedDrops = {0, 1};
    Interconnect net(cfg);
    obs::StatRegistry reg;
    net.registerStats(reg, "net");
    DsmSpace dsm(2, &net, {3.5, 2.4});
    dsm.registerStats(reg);

    uint64_t v = 0xabcdef;
    dsm.populate(0, kBase, &v, 8);
    uint64_t got = 0;
    uint64_t cyc = dsm.port(1).read(kBase, &got, 8);
    EXPECT_EQ(got, 0xabcdefu);
    EXPECT_GT(cyc, 0u);
    // One page fault, three wire attempts (two lost), one page moved.
    EXPECT_EQ(reg.counterValue("net.messages"), 3u);
    EXPECT_EQ(reg.counterValue("net.bytes"), 3 * kPageMsg);
    EXPECT_EQ(reg.counterValue("xfault.drops"), 2u);
    EXPECT_EQ(reg.counterValue("xfault.retries"), 2u);
    EXPECT_EQ(reg.counterValue("dsm.page_transfers"), 1u);
    EXPECT_EQ(reg.counterValue("dsm.bytes_transferred"), vm::kPageSize);
    EXPECT_EQ(dsm.state(0, kBase / vm::kPageSize), PageState::Shared);
    EXPECT_EQ(dsm.state(1, kBase / vm::kPageSize), PageState::Shared);
    dsm.checkInvariants();
}

/** Pins the RemoteAccess extra-cycles fix: a multi-page access must
 *  charge each page's message once, not re-add the running total. */
TEST(FaultyDsm, RemoteAccessExtraCyclesNoDoubleCharge)
{
    Interconnect net;
    DsmSpace dsm(2, &net, {3.5, 2.4}, DsmMode::RemoteAccess);
    obs::StatRegistry reg;
    dsm.registerStats(reg);
    // Node 0 claims both pages as home.
    uint64_t v[2] = {0x1111, 0x2222};
    uint64_t straddle = kBase + vm::kPageSize - 4;
    dsm.port(0).write(straddle, v, 8);
    // Node 1 reads across the boundary: two remote messages.
    uint64_t got = 0;
    dsm.port(1).read(straddle, &got, 8);
    Interconnect ref;
    uint64_t expected = ref.charge(64 + 4, 2.4) + ref.charge(64 + 4, 2.4);
    EXPECT_EQ(reg.counterValue("dsm.extra_cycles"), expected);
}

struct StormCase : ::testing::TestWithParam<int> {};

TEST_P(StormCase, DsmConvergesUnderDropStorm)
{
    Interconnect::Config cfg;
    cfg.faults.seed = 0xbead + static_cast<uint64_t>(GetParam());
    cfg.faults.dropProb = 0.2;
    cfg.faults.dupProb = 0.15;
    cfg.faults.spikeProb = 0.1;
    Interconnect net(cfg);
    obs::StatRegistry reg;
    net.registerStats(reg, "net");
    DsmSpace dsm(3, &net, {3.5, 2.4, 2.4});
    std::map<uint64_t, uint64_t> shadow;
    Rng rng(0x570 + static_cast<uint64_t>(GetParam()));
    for (int op = 0; op < 3000; ++op) {
        int node = static_cast<int>(rng.below(3));
        uint64_t addr = kBase + rng.below(kDsmWords) * 8;
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
        if (op % 500 == 0)
            dsm.checkInvariants();
    }
    dsm.checkInvariants();
    EXPECT_GT(reg.counterValue("xfault.drops"), 0u);
    EXPECT_GT(reg.counterValue("xfault.retries"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StormCase, ::testing::Range(0, 6));

TEST(FaultyDsm, DuplicateDeliveryIsIdempotent)
{
    Interconnect::Config cfg;
    cfg.faults.seed = 0xd0b;
    cfg.faults.dupProb = 1.0; // every delivered message arrives twice
    Interconnect net(cfg);
    obs::StatRegistry reg;
    net.registerStats(reg, "net");
    DsmSpace dsm(2, &net, {3.5, 2.4});
    std::map<uint64_t, uint64_t> shadow;
    Rng rng(0xd0b);
    for (int op = 0; op < 2000; ++op) {
        int node = static_cast<int>(rng.below(2));
        uint64_t addr = kBase + rng.below(kDsmWords) * 8;
        if (rng.below(2) == 0) {
            uint64_t v = rng.next();
            dsm.port(node).write(addr, &v, 8);
            shadow[addr] = v;
        } else {
            uint64_t got = 0;
            dsm.port(node).read(addr, &got, 8);
            auto it = shadow.find(addr);
            ASSERT_EQ(got, it == shadow.end() ? 0 : it->second)
                << "op " << op;
        }
    }
    dsm.checkInvariants();
    EXPECT_GT(reg.counterValue("xfault.duplicates"), 0u);
    // Retransmissions are real wire traffic: strictly more bytes than
    // pages moved.
    EXPECT_GT(reg.counterValue("net.bytes"),
              reg.counterValue("dsm.bytes_transferred"));
}

TEST(FaultyDsm, SurvivesPartitionWindows)
{
    Interconnect::Config cfg;
    cfg.faults.partitionPeriodMsgs = 8;
    cfg.faults.partitionLenMsgs = 3;
    Interconnect net(cfg);
    obs::StatRegistry reg;
    net.registerStats(reg, "net");
    DsmSpace dsm(2, &net, {3.5, 2.4});
    std::map<uint64_t, uint64_t> shadow;
    Rng rng(0x9a9);
    for (int op = 0; op < 1500; ++op) {
        int node = static_cast<int>(rng.below(2));
        uint64_t addr = kBase + rng.below(kDsmWords) * 8;
        if (rng.below(2) == 0) {
            uint64_t v = rng.next();
            dsm.port(node).write(addr, &v, 8);
            shadow[addr] = v;
        } else {
            uint64_t got = 0;
            dsm.port(node).read(addr, &got, 8);
            auto it = shadow.find(addr);
            ASSERT_EQ(got, it == shadow.end() ? 0 : it->second)
                << "op " << op;
        }
    }
    dsm.checkInvariants();
    // Partition rejects cost latency but never count as wire traffic.
    EXPECT_GT(reg.counterValue("xfault.partition_rejects"), 0u);
    EXPECT_EQ(reg.counterValue("xfault.drops"), 0u);
}

// --- Migration under faults ------------------------------------------

TEST(FaultyMigration, UnderMessageLossMatchesReference)
{
    Module mod = testing::makeArithProgram(40);
    IRRunResult ref = IRInterp(mod, 1ull << 33).runEntry();
    MultiIsaBinary bin = compileModule(mod);

    OsConfig cfg = OsConfig::dualServer();
    cfg.quantum = 1500;
    cfg.net.faults.seed = 0xc4a05;
    cfg.net.faults.dropProb = 0.3;
    cfg.net.faults.dupProb = 0.2;
    cfg.net.faults.spikeProb = 0.2;
    ReplicatedOS os(bin, cfg);
    os.load(0);
    os.onQuantum = [](ReplicatedOS &self) {
        self.migrateProcess(1 - self.threadNode(0));
    };
    OsRunResult got = os.run();
    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.output, ref.output);
    EXPECT_EQ(got.exitCode, ref.retVal);
    EXPECT_GE(os.migrations().size(), 2u);
    EXPECT_GT(os.statRegistry().counterValue("xfault.drops"), 0u);
    os.dsm().checkInvariants();
}

TEST(FaultyMigration, AbortLeavesThreadRunnableOnSource)
{
    Module mod = testing::makeArithProgram(12);
    IRRunResult ref = IRInterp(mod, 1ull << 33).runEntry();
    MultiIsaBinary bin = compileModule(mod);

    OsConfig cfg = OsConfig::dualServer();
    cfg.net.faults.dropProb = 1.0; // nothing ever gets through
    cfg.migrationRetryLimit = 3;
    ReplicatedOS os(bin, cfg);
    os.load(0);
    os.migrateProcess(1);
    OsRunResult got = os.run();
    // The migration aborted cleanly: the thread finished on the source
    // node with the right answer, and was neither lost nor duplicated.
    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.output, ref.output);
    EXPECT_EQ(got.exitCode, ref.retVal);
    EXPECT_TRUE(os.migrations().empty());
    EXPECT_EQ(os.threadNode(0), 0);
    EXPECT_EQ(os.statRegistry().counterValue("xfault.migration_aborts"),
              1u);
    EXPECT_EQ(
        os.statRegistry().counterValue("xfault.migration_retries"), 3u);
}

// --- Scheduler crash recovery ----------------------------------------

const JobProfileTable &
table()
{
    static JobProfileTable t = JobProfileTable::synthetic();
    return t;
}

TEST(ClusterFaults, CrashFailoverRestartsCheckpointedJobsExactlyOnce)
{
    auto jobs = makeSustainedSet(42);
    ClusterSim clean(makeHeterogeneousPool(true, 1.0), table());
    ClusterResult base = clean.run(jobs, Policy::DynamicBalanced);
    ASSERT_GT(base.makespan, 0.0);
    EXPECT_EQ(base.crashes, 0);
    EXPECT_TRUE(base.restartCounts.empty());

    ClusterSim::Config cc;
    cc.crashes = {CrashEvent{0.3 * base.makespan, 0, 15.0}};
    ClusterSim faulty(makeHeterogeneousPool(true, 1.0), table(), cc);
    ClusterResult r = faulty.run(jobs, Policy::DynamicBalanced);
    EXPECT_EQ(r.crashes, 1);
    ASSERT_FALSE(r.restartCounts.empty());
    for (const auto &kv : r.restartCounts)
        EXPECT_EQ(kv.second, 1) << "job " << kv.first;
    // Dynamic policy: every victim fails over to the surviving machine.
    EXPECT_EQ(r.failovers,
              static_cast<int>(r.restartCounts.size()));
    EXPECT_GT(r.makespan, 0.0);
    EXPECT_GT(r.totalEnergy, 0.0);
}

TEST(ClusterFaults, StaticPolicyCrashRestartsOnRebootSameMachine)
{
    auto jobs = makeSustainedSet(43);
    ClusterSim clean(makeX86X86Pool(), table());
    ClusterResult base = clean.run(jobs, Policy::StaticBalanced);
    ASSERT_GT(base.makespan, 0.0);

    ClusterSim::Config cc;
    cc.crashes = {CrashEvent{0.4 * base.makespan, 0, 10.0}};
    // No checkpoint before the crash: victims restart from scratch, so
    // discarded progress must show up as lost work.
    cc.checkpointPeriod = 10 * base.makespan;
    ClusterSim faulty(makeX86X86Pool(), table(), cc);
    ClusterResult r = faulty.run(jobs, Policy::StaticBalanced);
    EXPECT_EQ(r.crashes, 1);
    EXPECT_EQ(r.failovers, 0); // static placements never move
    ASSERT_FALSE(r.restartCounts.empty());
    for (const auto &kv : r.restartCounts)
        EXPECT_EQ(kv.second, 1) << "job " << kv.first;
    EXPECT_GT(r.lostWorkSeconds, 0.0);
    EXPECT_GT(r.makespan, base.makespan);
}

TEST(ClusterFaults, ZeroFaultRunsAreBitIdentical)
{
    auto jobs = makeSustainedSet(44);
    ClusterSim a(makeHeterogeneousPool(true, 1.0), table());
    ClusterSim::Config cc;
    cc.checkpointPeriod = 0.25; // inert without crash events
    ClusterSim b(makeHeterogeneousPool(true, 1.0), table(), cc);
    for (Policy p : {Policy::StaticBalanced, Policy::DynamicBalanced,
                     Policy::DynamicUnbalanced}) {
        ClusterResult ra = a.run(jobs, p);
        ClusterResult rb = b.run(jobs, p);
        EXPECT_EQ(ra.totalEnergy, rb.totalEnergy) << policyName(p);
        EXPECT_EQ(ra.makespan, rb.makespan) << policyName(p);
        EXPECT_EQ(ra.edp, rb.edp) << policyName(p);
        EXPECT_EQ(ra.migrations, rb.migrations) << policyName(p);
        EXPECT_EQ(ra.avgTurnaround, rb.avgTurnaround) << policyName(p);
        EXPECT_EQ(rb.crashes, 0);
        EXPECT_EQ(rb.lostWorkSeconds, 0.0);
    }
}

// --- Checkpoint/restore recovery -------------------------------------

TEST(FaultyRecovery, CheckpointRestoreRecoversUnderFaultyLink)
{
    Module mod = testing::makeArithProgram(400);
    IRRunResult ref = IRInterp(mod, 1ull << 33).runEntry();
    MultiIsaBinary bin = compileModule(mod);
    OsConfig cleanCfg = OsConfig::dualServer();

    // Snapshot mid-run on a healthy container (the crashed machine's
    // last checkpoint)...
    std::vector<uint8_t> ckpt;
    {
        ReplicatedOS os(bin, cleanCfg);
        os.load(0);
        os.onQuantum = [&](ReplicatedOS &self) {
            if (ckpt.empty() && self.totalInstrs() >= 4000)
                ckpt = self.checkpoint();
        };
        os.run();
    }
    ASSERT_FALSE(ckpt.empty());

    // ... and resume it on a degraded fabric, migrating throughout.
    OsConfig faultyCfg = OsConfig::dualServer();
    faultyCfg.quantum = 2000;
    faultyCfg.net.faults.seed = 0x0c0ffee;
    faultyCfg.net.faults.dropProb = 0.25;
    faultyCfg.net.faults.dupProb = 0.2;
    ReplicatedOS resumed(bin, faultyCfg);
    resumed.restore(ckpt);
    ASSERT_FALSE(resumed.finished());
    resumed.onQuantum = [](ReplicatedOS &self) {
        self.migrateProcess(1 - self.threadNode(0));
    };
    OsRunResult res = resumed.run();
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.output, ref.output);
    EXPECT_EQ(res.exitCode, ref.retVal);
    resumed.dsm().checkInvariants();
}

// --- Circuit breaker (reliableSendTo) --------------------------------

TEST(CircuitBreaker, OpensAtThresholdAndFailsFast)
{
    Interconnect::Config cfg;
    cfg.faults.seed = 0xb4ea4;
    cfg.faults.dropProb = 1.0; // the link never heals
    cfg.retry.breakerThreshold = 3;
    Interconnect net(cfg);
    obs::StatRegistry reg;
    net.registerStats(reg, "net");

    Interconnect::ReliableResult first = net.reliableSendTo(1, 256, 1.0);
    EXPECT_FALSE(first.delivered);
    // Opened exactly at the threshold instead of burning the full
    // 64-attempt retry budget (and its panic).
    EXPECT_EQ(first.attempts, 3);
    EXPECT_TRUE(net.circuitOpen(1));
    EXPECT_EQ(reg.counterValue("xfault.circuit_open"), 1u);

    uint64_t failFast0 = reg.counterValue("xfault.circuit_fail_fast");
    for (int i = 0; i < 40; ++i)
        EXPECT_FALSE(net.reliableSendTo(1, 256, 1.0).delivered);
    // Most calls failed fast at latency-only cost; seeded half-open
    // probes kept re-testing the link without re-counting an open.
    EXPECT_GT(reg.counterValue("xfault.circuit_fail_fast"), failFast0);
    EXPECT_GT(reg.counterValue("xfault.circuit_probes"), 4u);
    EXPECT_EQ(reg.counterValue("xfault.circuit_open"), 1u);
    // Other peers are unaffected: each breaker is per-peer.
    EXPECT_FALSE(net.circuitOpen(2));
}

TEST(CircuitBreaker, DeliveredProbeClosesTheCircuit)
{
    Interconnect::Config cfg;
    cfg.faults.seed = 0x900d;
    cfg.faults.dropProb = 0.85; // lossy, but probes eventually land
    cfg.retry.breakerThreshold = 2;
    Interconnect net(cfg);

    bool sawOpen = false, sawClose = false;
    for (int i = 0; i < 400 && !(sawOpen && sawClose); ++i) {
        net.reliableSendTo(1, 64, 1.0);
        if (net.circuitOpen(1))
            sawOpen = true;
        else if (sawOpen)
            sawClose = true;
    }
    EXPECT_TRUE(sawOpen);
    EXPECT_TRUE(sawClose);
}

TEST(CircuitBreaker, DisabledPolicyIsByteIdenticalToLegacyPath)
{
    Interconnect::Config cfg;
    cfg.faults.seed = 0x1dea;
    cfg.faults.dropProb = 0.3;
    Interconnect a(cfg), b(cfg);
    obs::StatRegistry regA, regB;
    a.registerStats(regA, "net");
    b.registerStats(regB, "net");
    for (int i = 0; i < 200; ++i) {
        Interconnect::ReliableResult ra = a.reliableSend(512, 2.0);
        Interconnect::ReliableResult rb = b.reliableSendTo(1, 512, 2.0);
        ASSERT_EQ(ra.attempts, rb.attempts) << "msg " << i;
        ASSERT_DOUBLE_EQ(ra.seconds, rb.seconds) << "msg " << i;
        ASSERT_EQ(ra.cycles, rb.cycles) << "msg " << i;
        ASSERT_EQ(ra.duplicate, rb.duplicate) << "msg " << i;
    }
    EXPECT_EQ(regA.snapshot(), regB.snapshot());
}

// --- hDSM node-failure recovery (DESIGN.md section 9) ----------------

OsConfig
xenoPair()
{
    OsConfig cfg;
    cfg.nodes = {makeXenoServer(), makeXenoServer()};
    cfg.recovery.enabled = true;
    return cfg;
}

TEST(CrashRecovery, NodeCrashIsByteIdenticalToCrashFreeRun)
{
    Module mod = testing::makeThreadedProgram(4, 2000);
    MultiIsaBinary bin = compileModule(mod);

    // Crash-free reference: identical config and migration policy, no
    // scheduled crash. Acceptance is byte-identity against THIS run.
    auto migrateWorkers = [](ReplicatedOS &self) {
        if (self.dsm().nodeAlive(1))
            for (int tid = 1; tid < self.numThreads(); ++tid)
                self.migrateThread(tid, 1);
    };
    OsConfig refCfg = xenoPair();
    refCfg.quantum = 1200;
    ReplicatedOS refOs(bin, refCfg);
    refOs.load(0);
    refOs.onQuantum = migrateWorkers;
    OsRunResult ref = refOs.run();
    ASSERT_TRUE(ref.finished);

    OsConfig cfg = xenoPair();
    cfg.quantum = 1200;
    cfg.recovery.crashes = {PeerCrashEvent{1, 40}};
    ReplicatedOS os(bin, cfg);
    os.load(0);
    // Push the workers onto the doomed kernel so it dies holding
    // threads and sole-Modified pages.
    os.onQuantum = migrateWorkers;
    OsRunResult got = os.run();
    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.output, ref.output);
    EXPECT_EQ(got.exitCode, ref.exitCode);
    obs::StatRegistry &reg = os.statRegistry();
    EXPECT_EQ(reg.counterValue("xfault.deaths"), 1u);
    // The dead kernel held real state: something had to be recovered.
    EXPECT_GE(reg.counterValue("xfault.threads_recovered") +
                  reg.counterValue("xfault.pages_recovered"),
              1u);
    // Degraded mode: every thread finished on the survivor.
    for (int tid = 0; tid < os.numThreads(); ++tid)
        EXPECT_EQ(os.threadNode(tid), 0) << "tid " << tid;
    os.dsm().checkInvariants();
}

TEST(CrashRecovery, SourceCrashBeforeShipRecoversThreadExactlyOnce)
{
    Module mod = testing::makeArithProgram(60);
    IRRunResult ref = IRInterp(mod, 1ull << 33).runEntry();
    MultiIsaBinary bin = compileModule(mod);

    OsConfig cfg = xenoPair();
    // The source node dies at its first context-ship attempt, before
    // the context reaches the wire.
    cfg.recovery.shipCrashes = {ShipCrashEvent{0, 0, false}};
    ReplicatedOS os(bin, cfg);
    os.load(0);
    os.migrateProcess(1);
    OsRunResult got = os.run();
    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.output, ref.output);
    EXPECT_EQ(got.exitCode, ref.retVal);
    // The context never left the dying source: the thread was revived
    // from its committed at-trap snapshot on the survivor -- once.
    EXPECT_EQ(os.threadNode(0), 1);
    EXPECT_TRUE(os.migrations().empty());
    ASSERT_EQ(os.migrationLedger().size(), 1u);
    EXPECT_FALSE(os.migrationLedger()[0].applied);
    EXPECT_EQ(os.statRegistry().counterValue("xfault.deaths"), 1u);
    EXPECT_EQ(
        os.statRegistry().counterValue("xfault.threads_recovered"), 1u);
}

TEST(CrashRecovery, SourceCrashAfterDeliveryLeavesThreadOnDestOnly)
{
    Module mod = testing::makeArithProgram(60);
    IRRunResult ref = IRInterp(mod, 1ull << 33).runEntry();
    MultiIsaBinary bin = compileModule(mod);

    OsConfig cfg = xenoPair();
    // The source dies between state-ship and ack: the context was
    // already installed at the destination.
    cfg.recovery.shipCrashes = {ShipCrashEvent{0, 0, true}};
    ReplicatedOS os(bin, cfg);
    os.load(0);
    os.migrateProcess(1);
    OsRunResult got = os.run();
    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.output, ref.output);
    EXPECT_EQ(got.exitCode, ref.retVal);
    // Exactly-once: the migration completed (thread on the dest), and
    // the crash did not re-create it on a survivor.
    EXPECT_EQ(os.threadNode(0), 1);
    EXPECT_EQ(os.migrations().size(), 1u);
    ASSERT_EQ(os.migrationLedger().size(), 1u);
    EXPECT_TRUE(os.migrationLedger()[0].applied);
    EXPECT_EQ(os.statRegistry().counterValue("xfault.deaths"), 1u);
    EXPECT_EQ(
        os.statRegistry().counterValue("xfault.threads_recovered"), 0u);
}

TEST(CrashRecovery, DestinationCrashMidHandoffKeepsThreadOnSource)
{
    Module mod = testing::makeArithProgram(400);
    IRRunResult ref = IRInterp(mod, 1ull << 33).runEntry();
    MultiIsaBinary bin = compileModule(mod);

    OsConfig cfg = xenoPair();
    cfg.quantum = 500;
    // The destination dies just as the handoff starts: every ship
    // attempt fails, the migration aborts, and heartbeats later declare
    // the death.
    cfg.recovery.shipCrashes = {ShipCrashEvent{1, 0, false}};
    ReplicatedOS os(bin, cfg);
    os.load(0);
    os.migrateProcess(1);
    OsRunResult got = os.run();
    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.output, ref.output);
    EXPECT_EQ(got.exitCode, ref.retVal);
    EXPECT_EQ(os.threadNode(0), 0);
    EXPECT_TRUE(os.migrations().empty());
    ASSERT_EQ(os.migrationLedger().size(), 1u);
    EXPECT_FALSE(os.migrationLedger()[0].applied);
    EXPECT_EQ(
        os.statRegistry().counterValue("xfault.migration_aborts"), 1u);
    EXPECT_EQ(os.statRegistry().counterValue("xfault.deaths"), 1u);
}

TEST(CrashRecovery, PerturbedDeferredHandoffCrashKeepsThreadSingular)
{
    // The perturber defers migration traps and jitters the scheduled
    // ship-crash, exploring crash-vs-defer interleavings; the auditor
    // rides along. Whatever interleaving results, the run must stay
    // byte-identical and the thread must exist on exactly one kernel.
    setenv("XISA_PERTURB", "7", 1);
    setenv("XISA_AUDIT", "1", 1);
    Module mod = testing::makeArithProgram(80);
    IRRunResult ref = IRInterp(mod, 1ull << 33).runEntry();
    MultiIsaBinary bin = compileModule(mod);

    OsConfig cfg = xenoPair();
    cfg.quantum = 800;
    cfg.recovery.shipCrashes = {ShipCrashEvent{0, 1, true}};
    ReplicatedOS os(bin, cfg);
    unsetenv("XISA_PERTURB");
    unsetenv("XISA_AUDIT");
    os.load(0);
    os.migrateProcess(1);
    OsRunResult got = os.run();
    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.output, ref.output);
    EXPECT_EQ(got.exitCode, ref.retVal);
    int where = os.threadNode(0);
    ASSERT_TRUE(where == 0 || where == 1);
    EXPECT_TRUE(os.dsm().nodeAlive(where));
    ASSERT_NE(os.auditor(), nullptr);
    EXPECT_GT(os.auditor()->checksRun(), 0u);
}

TEST(CrashRecovery, PerturbedDeferredHandoffDestCrashKeepsThreadSingular)
{
    // Same deferred-trap exploration, but the DESTINATION kernel dies
    // mid-handoff. The context must never land on a dead kernel: the
    // thread stays (or is recovered) on a live one, exactly once.
    setenv("XISA_PERTURB", "7", 1);
    setenv("XISA_AUDIT", "1", 1);
    Module mod = testing::makeArithProgram(80);
    IRRunResult ref = IRInterp(mod, 1ull << 33).runEntry();
    MultiIsaBinary bin = compileModule(mod);

    OsConfig cfg = xenoPair();
    cfg.quantum = 800;
    cfg.recovery.shipCrashes = {ShipCrashEvent{1, 1, true}};
    ReplicatedOS os(bin, cfg);
    unsetenv("XISA_PERTURB");
    unsetenv("XISA_AUDIT");
    os.load(0);
    os.migrateProcess(1);
    OsRunResult got = os.run();
    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.output, ref.output);
    EXPECT_EQ(got.exitCode, ref.retVal);
    int where = os.threadNode(0);
    ASSERT_TRUE(where == 0 || where == 1);
    EXPECT_TRUE(os.dsm().nodeAlive(where));
    // Exactly-once: no ledger entry may sit applied at a dead
    // destination without being reconciled.
    for (const auto &rec : os.migrationLedger())
        if (rec.applied && !os.nodeAlive(rec.dest))
            EXPECT_TRUE(rec.destDied);
    ASSERT_NE(os.auditor(), nullptr);
    EXPECT_GT(os.auditor()->checksRun(), 0u);
}

TEST(CrashRecovery, PerturberInjectsSeededCrashOnlyWhenOptedIn)
{
    RecoveryConfig base;
    base.enabled = true;
    RecoveryConfig out =
        check::SchedulePerturber::perturbRecovery(base, {0, 1}, 42);
    ASSERT_EQ(out.crashes.size(), 1u);
    EXPECT_TRUE(out.crashes[0].node == 0 || out.crashes[0].node == 1);
    EXPECT_GE(out.crashes[0].atStep, 16u);
    RecoveryConfig again =
        check::SchedulePerturber::perturbRecovery(base, {0, 1}, 42);
    EXPECT_EQ(out.crashes[0].node, again.crashes[0].node);
    EXPECT_EQ(out.crashes[0].atStep, again.crashes[0].atStep);
    // A run that did not opt into crash tolerance is never perturbed
    // into one.
    RecoveryConfig off;
    RecoveryConfig kept =
        check::SchedulePerturber::perturbRecovery(off, {0, 1}, 42);
    EXPECT_FALSE(kept.enabled);
    EXPECT_TRUE(kept.crashes.empty());
}

TEST(CrashRecovery, DisabledRecoveryIsByteIdenticalToBaseline)
{
    Module mod = testing::makeArithProgram(40);
    MultiIsaBinary bin = compileModule(mod);
    OsConfig plain = OsConfig::dualServer();
    OsConfig armedOff = OsConfig::dualServer();
    armedOff.recovery = RecoveryConfig{}; // explicit: disabled
    ReplicatedOS a(bin, plain), b(bin, armedOff);
    a.load(0);
    b.load(0);
    a.onQuantum = [](ReplicatedOS &s) {
        s.migrateProcess(1 - s.threadNode(0));
    };
    b.onQuantum = [](ReplicatedOS &s) {
        s.migrateProcess(1 - s.threadNode(0));
    };
    OsRunResult ra = a.run(), rb = b.run();
    EXPECT_EQ(ra.output, rb.output);
    EXPECT_EQ(ra.totalInstrs, rb.totalInstrs);
    EXPECT_EQ(ra.makespanSeconds, rb.makespanSeconds);
    EXPECT_EQ(a.migrations().size(), b.migrations().size());
}

// --- Serving chaos ---------------------------------------------------

/** The fixed-seed mid-traffic crash scenario: every shard sits on the
 *  xeno node, which dies 30% into the run. */
traffic::ServingResult
runServingCrash(obs::StatRegistry &reg)
{
    traffic::TrafficConfig tc;
    tc.seed = 11;
    tc.clients = 1000;
    tc.requestHz = 20.0;
    tc.durationSeconds = 0.5;
    tc.zipfSkew = 0.99;
    tc.keySpace = 4096;
    tc.getFraction = 0.9;
    tc.shards = 4;
    std::vector<traffic::Request> reqs = traffic::generateRequests(tc);

    traffic::ServingConfig sc;
    sc.nodes = {makeXenoServer(), makeAetherServer()};
    sc.placement = {0, 0, 0, 0};
    sc.sloUs = 800.0;
    sc.crashes = {{0, 0.15, 30.0}};
    traffic::ServingSim sim(sc, traffic::ServingProfile::synthetic(),
                            reg, "chaos");
    return sim.run(reqs);
}

TEST(ServingChaos, CrashMidTrafficFailsOverAndKeepsServing)
{
    obs::StatRegistry reg;
    traffic::ServingResult r = runServingCrash(reg);

    // Every shard failed over exactly once and the survivor carried
    // the rest of the stream; nothing finished on the dead node after
    // the crash.
    EXPECT_EQ(r.failovers, 4u);
    EXPECT_EQ(r.migrations, 0u);
    EXPECT_EQ(r.servedByNodeAfterCrash[0], 0u);
    EXPECT_GT(r.servedByNodeAfterCrash[1], 0u);
    EXPECT_EQ(r.servedByNode[0] + r.servedByNode[1], r.requests);

    // SLO-violation counters are monotone across the stream.
    for (size_t d = 1; d < r.violationsByDecile.size(); ++d)
        EXPECT_GE(r.violationsByDecile[d], r.violationsByDecile[d - 1]);
    EXPECT_EQ(r.violationsByDecile.back(), r.sloViolations);

    // Fixed-seed golden: the scenario is fully deterministic, so the
    // aggregate counts are pinned exactly. The violation burst sits in
    // the deciles spanning the crash (the failover outage plus the
    // cold-start tail on the survivor), and the stream is clean before
    // the crash and after the queues drain.
    EXPECT_EQ(r.requests, 9953u);
    EXPECT_EQ(r.gets, 8967u);
    EXPECT_EQ(r.sets, 986u);
    EXPECT_EQ(r.sloViolations, 1140u);
    EXPECT_EQ(r.servedByNodeAfterCrash[1], 6912u);
    EXPECT_EQ(r.violationsByDecile[2], 0u);
    EXPECT_EQ(r.violationsByDecile[3], 833u);
    EXPECT_EQ(r.violationsByDecile[4], 1140u);
    EXPECT_EQ(r.violationsByDecile[9], 1140u);
}

/** The fixed-seed ToR-outage scenario: 4 nodes in 2 racks, all shards
 *  on rack 0, whose switch dies 15% into the run and heals at 40%; a
 *  brownout window spanning the outage sheds the 3 coldest deciles. */
traffic::ServingConfig
torOutageConfig()
{
    traffic::ServingConfig sc;
    sc.nodes = {makeXenoServer(), makeXenoServer(), makeAetherServer(),
                makeAetherServer()};
    sc.nodeRack = {0, 0, 1, 1};
    sc.placement = {0, 1, 0, 1};
    sc.sloUs = 800.0;
    // The whole rack at one timestamp: a correlated ToR outage, not
    // two independent crashes.
    sc.crashes = {{0, 0.075, 0.125}, {1, 0.075, 0.125}};
    sc.brownouts = {{0.075, 0.2, 3}};
    return sc;
}

std::vector<traffic::Request>
torOutageStream()
{
    traffic::TrafficConfig tc;
    tc.seed = 11;
    tc.clients = 1000;
    tc.requestHz = 20.0;
    tc.durationSeconds = 0.5;
    tc.zipfSkew = 0.99;
    tc.keySpace = 4096;
    tc.getFraction = 0.9;
    tc.shards = 4;
    return traffic::generateRequests(tc);
}

TEST(ServingChaos, TorOutageFailsOverOutsideRackAndSheds)
{
    obs::StatRegistry reg;
    traffic::ServingSim sim(torOutageConfig(),
                            traffic::ServingProfile::synthetic(), reg,
                            "torchaos");
    traffic::ServingResult r = sim.run(torOutageStream());

    // Every shard failed over exactly once, and the failovers landed
    // OUTSIDE the dead rack: nothing was served by rack 0 after the
    // outage began, even though node 1 was just as dead as node 0 and
    // a rack-blind scan would have picked it for node 0's shards.
    EXPECT_EQ(r.failovers, 4u);
    EXPECT_EQ(r.servedByNodeAfterCrash[0], 0u);
    EXPECT_EQ(r.servedByNodeAfterCrash[1], 0u);
    EXPECT_GT(r.servedByNodeAfterCrash[2], 0u);

    // Survivors kept serving: the stream completes, with shed
    // requests accounted separately from served ones.
    EXPECT_EQ(r.shed + r.gets + r.sets, r.requests);
    EXPECT_GT(r.shed, 0u);
    EXPECT_EQ(reg.counterValue("torchaos.shed"), r.shed);
    EXPECT_EQ(reg.counterValue("torchaos.slo_violations_degraded"),
              r.violationsDegraded);

    // Degraded-window violations are a subset of the total.
    EXPECT_LE(r.violationsDegraded, r.sloViolations);
    EXPECT_GT(r.violationsDegraded, 0u);

    // Fixed-seed golden: exact counts, pinned so any change to the
    // failover policy, the shedding predicate, or the accounting
    // order is a conscious diff.
    EXPECT_EQ(r.requests, 9953u);
    EXPECT_EQ(r.shed, 95u);
    EXPECT_EQ(r.sloViolations, 1154u);
    EXPECT_EQ(r.violationsDegraded, 1153u);
    EXPECT_EQ(r.servedByNodeAfterCrash[2], 8365u);
}

TEST(ServingChaos, TorOutageRunBytesIdenticalAcrossWorkerCounts)
{
    traffic::ServingResult runs[2];
    const char *threads[2] = {"1", "5"};
    for (int i = 0; i < 2; ++i) {
        setenv("XISA_BENCH_THREADS", threads[i], 1);
        obs::StatRegistry reg;
        traffic::ServingSim sim(torOutageConfig(),
                                traffic::ServingProfile::synthetic(),
                                reg, "torchaos");
        runs[i] = sim.run(torOutageStream());
    }
    unsetenv("XISA_BENCH_THREADS");
    EXPECT_EQ(runs[0].shed, runs[1].shed);
    EXPECT_EQ(runs[0].sloViolations, runs[1].sloViolations);
    EXPECT_EQ(runs[0].violationsDegraded, runs[1].violationsDegraded);
    EXPECT_EQ(runs[0].p99Us, runs[1].p99Us);
    EXPECT_EQ(runs[0].maxUs, runs[1].maxUs);
    EXPECT_EQ(runs[0].servedByNode, runs[1].servedByNode);
    EXPECT_EQ(runs[0].servedByNodeAfterCrash,
              runs[1].servedByNodeAfterCrash);
    EXPECT_EQ(runs[0].violationsByDecile, runs[1].violationsByDecile);
}

TEST(ServingChaos, CrashRunBytesIdenticalAcrossWorkerCounts)
{
    std::string dumps[2];
    const char *threads[2] = {"1", "5"};
    for (int i = 0; i < 2; ++i) {
        setenv("XISA_BENCH_THREADS", threads[i], 1);
        obs::StatRegistry reg;
        runServingCrash(reg);
        std::ostringstream os;
        reg.dumpJson(os);
        dumps[i] = os.str();
    }
    unsetenv("XISA_BENCH_THREADS");
    EXPECT_EQ(dumps[0], dumps[1]);
}

} // namespace
} // namespace xisa
