/**
 * @file
 * Invariant-auditor and schedule-perturber tests (DESIGN.md §8), plus
 * the minimized regressions for the bugs the auditor surfaced:
 *
 *  - RetryPolicy backoff arithmetic on long retry storms (the exponent
 *    must be capped before the shift);
 *  - ClusterSim lost-work accounting when a job migrates and the
 *    destination machine later crashes (work must be charged once);
 *  - DSM counters zeroed by checkpoint restore (the snapshot now
 *    carries the protocol counters);
 *  - software-TLB shootdown completeness across multiple ports.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "check/audit.hh"
#include "check/perturb.hh"
#include "compiler/compile.hh"
#include "dsm/dsm.hh"
#include "dsm/faults.hh"
#include "os/os.hh"
#include "sched/cluster.hh"
#include "sched/jobsets.hh"
#include "sched/profile.hh"
#include "util/bytes.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/workloads.hh"

namespace xisa {
namespace {

constexpr uint64_t kBase = 0x10000000ull;
constexpr uint64_t kPage = kBase / vm::kPageSize;

/** Scoped environment override restoring the prior value on exit. */
struct EnvGuard {
    std::string name;
    bool had;
    std::string old;
    EnvGuard(const char *n, const char *v) : name(n)
    {
        const char *p = std::getenv(n);
        had = p != nullptr;
        if (p)
            old = p;
        ::setenv(n, v, 1);
    }
    ~EnvGuard()
    {
        if (had)
            ::setenv(name.c_str(), old.c_str(), 1);
        else
            ::unsetenv(name.c_str());
    }
};

// --- Satellite 1: backoff arithmetic ---------------------------------

TEST(CheckBackoff, MatchesLegacyDoublingSequenceInRange)
{
    RetryPolicy p; // 5us start, 320us cap
    double legacy = p.backoffUs;
    for (int attempt = 1; attempt <= 24; ++attempt) {
        double want = legacy < p.backoffCapUs ? legacy : p.backoffCapUs;
        EXPECT_DOUBLE_EQ(p.backoffForAttempt(attempt), want)
            << "attempt " << attempt;
        legacy *= 2;
        if (legacy > p.backoffCapUs)
            legacy = p.backoffCapUs;
    }
}

TEST(CheckBackoff, MonotonicAndCappedForHugeAttempts)
{
    RetryPolicy p;
    double prev = 0;
    for (int attempt = 1; attempt <= 70; ++attempt) {
        double b = p.backoffForAttempt(attempt);
        EXPECT_GE(b, prev) << "attempt " << attempt;
        EXPECT_LE(b, p.backoffCapUs);
        prev = b;
    }
    // Beyond 63 doublings a raw shift is undefined behaviour and used
    // to wrap the delay back down; now the exponent saturates.
    EXPECT_DOUBLE_EQ(p.backoffForAttempt(64), p.backoffCapUs);
    EXPECT_DOUBLE_EQ(p.backoffForAttempt(1000), p.backoffCapUs);
    EXPECT_DOUBLE_EQ(p.backoffForAttempt(INT_MAX), p.backoffCapUs);
}

TEST(CheckBackoff, CapBelowFirstBackoffClampsEverything)
{
    RetryPolicy p;
    p.backoffUs = 50.0;
    p.backoffCapUs = 10.0;
    for (int attempt = 1; attempt <= 8; ++attempt)
        EXPECT_DOUBLE_EQ(p.backoffForAttempt(attempt), 10.0);
}

// --- Perturber -------------------------------------------------------

TEST(CheckPerturb, FaultOverlayIsDeterministicInSeed)
{
    FaultConfig base;
    base.dropProb = 0.01;
    FaultConfig a = check::SchedulePerturber::perturbFaults(base, 99);
    FaultConfig b = check::SchedulePerturber::perturbFaults(base, 99);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_DOUBLE_EQ(a.dropProb, b.dropProb);
    EXPECT_DOUBLE_EQ(a.dupProb, b.dupProb);
    EXPECT_DOUBLE_EQ(a.spikeProb, b.spikeProb);
    EXPECT_DOUBLE_EQ(a.spikeMaxUs, b.spikeMaxUs);
    // The overlay adds perturbation on top of the base plan.
    EXPECT_NE(a.seed, base.seed);
    EXPECT_GT(a.dupProb, base.dupProb);
    EXPECT_GT(a.spikeProb, base.spikeProb);
    EXPECT_GE(a.dropProb, base.dropProb);
    FaultConfig c = check::SchedulePerturber::perturbFaults(base, 100);
    EXPECT_NE(a.seed, c.seed);
}

TEST(CheckPerturb, ScriptedScheduleSurvivesTheOverlay)
{
    FaultConfig base;
    base.scriptedDrops = {3, 17};
    base.partitionPeriodMsgs = 100;
    base.partitionLenMsgs = 5;
    FaultConfig out = check::SchedulePerturber::perturbFaults(base, 7);
    EXPECT_EQ(out.scriptedDrops, base.scriptedDrops);
    EXPECT_EQ(out.partitionPeriodMsgs, base.partitionPeriodMsgs);
    EXPECT_EQ(out.partitionLenMsgs, base.partitionLenMsgs);
}

TEST(CheckPerturb, MigrationDeferralIsBounded)
{
    check::SchedulePerturber p(7);
    int streak = 0, maxStreak = 0, defers = 0;
    for (int i = 0; i < 2000; ++i) {
        if (p.deferMigrationTrap()) {
            ++defers;
            ++streak;
            maxStreak = std::max(maxStreak, streak);
        } else {
            streak = 0;
        }
    }
    EXPECT_GT(defers, 0) << "perturber never defers";
    EXPECT_LE(maxStreak, 4) << "a migration can be starved";
}

TEST(CheckPerturb, JitterStaysWithinMagnitude)
{
    check::SchedulePerturber p(21);
    for (int i = 0; i < 1000; ++i) {
        double j = p.jitterSeconds(2.5);
        EXPECT_GE(j, -2.5);
        EXPECT_LE(j, 2.5);
    }
}

// --- Satellite 4: TLB shootdown on the multi-port path ---------------

struct TlbFixture : ::testing::Test {
    Interconnect net;
    DsmSpace dsm{3, &net, {3.5, 2.4, 2.4}};

    void
    writeFrom(int node, uint64_t v)
    {
        dsm.port(node).write(kBase, &v, 8);
    }
    uint64_t
    readFrom(int node)
    {
        uint64_t v = 0;
        dsm.port(node).read(kBase, &v, 8);
        return v;
    }
};

TEST_F(TlbFixture, WriteFaultShootsDownEveryPortsEntries)
{
    writeFrom(0, 1); // node 0 exclusive: read+write entries cached
    readFrom(1);     // downgrade to Shared: 0 and 1 cache read entries
    ASSERT_NE(dsm.port(0).tlbReadBase(kPage), nullptr);
    ASSERT_NE(dsm.port(1).tlbReadBase(kPage), nullptr);

    writeFrom(2, 2); // steal: every other copy invalidated
    EXPECT_EQ(dsm.port(0).tlbReadBase(kPage), nullptr)
        << "node 0 read entry survived the invalidation";
    EXPECT_EQ(dsm.port(0).tlbWriteBase(kPage), nullptr);
    EXPECT_EQ(dsm.port(1).tlbReadBase(kPage), nullptr)
        << "node 1 read entry survived the invalidation";
    EXPECT_EQ(dsm.port(1).tlbWriteBase(kPage), nullptr);
    EXPECT_EQ(dsm.state(2, kPage), PageState::Modified);
    // The stale entries must not serve the old bytes.
    EXPECT_EQ(readFrom(0), 2u);
}

TEST_F(TlbFixture, DowngradeDropsTheWriteEntryButKeepsReads)
{
    writeFrom(0, 7);
    ASSERT_NE(dsm.port(0).tlbWriteBase(kPage), nullptr);
    readFrom(1); // Modified -> Shared downgrade of node 0
    EXPECT_EQ(dsm.port(0).tlbWriteBase(kPage), nullptr)
        << "write right survived the downgrade";
    EXPECT_NE(dsm.port(0).tlbReadBase(kPage), nullptr)
        << "read translation should stay valid across a downgrade";
    EXPECT_EQ(dsm.port(1).tlbWriteBase(kPage), nullptr);
    // A write through the stale fast path would skip the protocol; the
    // next store must fault and re-invalidate node 1.
    writeFrom(0, 9);
    EXPECT_EQ(dsm.state(1, kPage), PageState::Invalid);
    EXPECT_EQ(readFrom(2), 9u);
}

TEST_F(TlbFixture, SnapshotRestoreFlushesEveryPort)
{
    writeFrom(0, 5);
    readFrom(1);
    readFrom(2);
    ASSERT_NE(dsm.port(1).tlbReadBase(kPage), nullptr);
    ASSERT_NE(dsm.port(2).tlbReadBase(kPage), nullptr);

    ByteWriter w;
    dsm.saveState(w);
    ByteReader r(w.out);
    dsm.loadState(r); // in-place rewind
    for (int n = 0; n < 3; ++n) {
        EXPECT_EQ(dsm.port(n).tlbReadBase(kPage), nullptr)
            << "node " << n << " kept a translation across restore";
        EXPECT_EQ(dsm.port(n).tlbWriteBase(kPage), nullptr);
    }
    EXPECT_EQ(readFrom(1), 5u);
}

// --- Satellite 2: crash-during-migration accounting ------------------

TEST(CheckClusterAccounting, MigratedJobLosesOnlyPostMigrationWork)
{
    const JobProfileTable profiles = JobProfileTable::synthetic();
    ClusterSim::Config cc;
    cc.rebalancePeriod = 1.0;
    cc.migrationFixedSeconds = 0.0;
    cc.workingSetBytesPerScale = 0.0;
    cc.checkpointPeriod = 1e6; // no checkpoint tick before the crash
    // Machine 1 is down at t=0, so both jobs land on machine 0; it
    // reboots at 2.2, the t=3.0 rebalance migrates one job over, and
    // the t=3.5 crash kills it 0.5s of progress later.
    cc.crashes = {{0.0, 1, 2.2}, {3.5, 1, 50.0}};
    ClusterSim sim(makeX86X86Pool(), profiles, cc);
    std::vector<Job> jobs = {
        {0, WorkloadId::CG, ProblemClass::C, 1, 0.0},
        {1, WorkloadId::CG, ProblemClass::C, 1, 0.0},
    };
    ClusterResult r = sim.run(jobs, Policy::DynamicBalanced);
    ASSERT_EQ(r.migrations, 1);
    EXPECT_EQ(r.crashes, 2);
    EXPECT_EQ(r.failovers, 1);
    ASSERT_TRUE(r.restartCounts.count(0));
    EXPECT_EQ(r.restartCounts.at(0), 1);
    // The migration shipped the job's live state, so only the progress
    // made AFTER it may be lost. The pre-fix accounting rolled the job
    // back to its pre-migration checkpoint fraction and charged the
    // 3.0s of source-machine progress again (~3.5s "lost").
    EXPECT_NEAR(r.lostWorkSeconds, 0.5, 1e-6);
}

// --- Satellite 3: DSM counters across checkpoint restore -------------

/**
 * The stats a checkpoint carries: every counter and gauge in the
 * container's registry. Histograms restart empty in a restored
 * container, as its caches restart cold.
 */
std::map<std::string, double>
carriedStats(ReplicatedOS &os)
{
    std::map<std::string, double> out;
    const obs::StatRegistry &reg = os.statRegistry();
    for (const auto &[name, v] : reg.snapshot())
        if (reg.find(name)->kind() != obs::StatKind::Histogram)
            out.emplace(name, v);
    return out;
}

TEST(CheckDsmStatsRestore, RestoredCountersMatchTheCheckpointedRun)
{
    MultiIsaBinary bin =
        compileModule(buildWorkload(WorkloadId::CG, ProblemClass::A, 1));
    OsConfig cfg = OsConfig::dualServer();
    ReplicatedOS os(bin, cfg);
    os.load(0);
    os.migrateProcess(1);
    os.run();
    const std::map<std::string, double> want = carriedStats(os);
    for (const char *name :
         {"dsm.page_transfers", "node1.dsm.pages_in", "machine.instrs",
          "net.messages", "net.bytes", "node0.core0.l1d.accesses",
          "node1.core0.l1i.misses", "os.migrations"})
        ASSERT_GT(want.count(name) ? want.at(name) : 0.0, 0.0)
            << name << " should have advanced in the checkpointed run";
    std::vector<uint8_t> ckpt = os.checkpoint();

    ReplicatedOS fresh(bin, cfg);
    fresh.restore(ckpt);
    EXPECT_EQ(carriedStats(fresh), want);
}

TEST(CheckDsmStatsRestore, RejectsVersion2Images)
{
    // v2 images carried only the DSM counters, inside the DSM section;
    // their layout is not v3's, so they are refused up front.
    MultiIsaBinary bin =
        compileModule(buildWorkload(WorkloadId::EP, ProblemClass::A, 1));
    ReplicatedOS os(bin, OsConfig::dualServer());
    os.load(0);
    std::vector<uint8_t> ckpt = os.checkpoint();
    const uint32_t v2 = 2;
    std::memcpy(ckpt.data() + 4, &v2, sizeof v2); // after the magic
    ReplicatedOS fresh(bin, OsConfig::dualServer());
    try {
        fresh.restore(ckpt);
        ADD_FAILURE() << "a v2 image was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported checkpoint version 2"),
                  std::string::npos)
            << e.what();
    }
}

// --- Interp timing model must survive node-table growth --------------

// Regression: Interp used to hold a NodeSpec by reference, and
// ReplicatedOS::NodeRuntime passed a reference to its OWN spec member.
// nodes_ is a vector, so emplacing the second node reallocates and
// moves the first NodeRuntime -- its Interp kept pointing at the freed
// old spec, and the lazy predecode later read per-op costs through the
// dangling reference (heap-use-after-free under ASan; silently stale
// timing otherwise). Interp now owns a copy of the spec. This test
// fails on the pre-fix code under the sanitizer CI jobs.
TEST(CheckInterpSpec, SurvivesNodeTableReallocation)
{
    MultiIsaBinary bin =
        compileModule(buildWorkload(WorkloadId::CG, ProblemClass::A, 1));
    OsConfig cfg = OsConfig::dualServer(); // 2 nodes => one realloc
    ReplicatedOS os(bin, cfg);
    os.load(0);
    OsRunResult st = os.run(); // predecode reads spec_ per-op costs
    EXPECT_EQ(st.exitCode, 0);
    EXPECT_GT(st.totalInstrs, 0u);
}

// --- Auditor: clean runs stay clean ----------------------------------

TEST(CheckAuditor, LossyStormPassesAndCountsChecks)
{
    Interconnect::Config nc;
    nc.faults.seed = 1234;
    nc.faults.dropProb = 0.05;
    nc.faults.dupProb = 0.10;
    nc.faults.spikeProb = 0.10;
    Interconnect net(nc);
    DsmSpace dsm(3, &net, {1.0, 1.0, 1.0});
    check::InvariantAuditor auditor(dsm, {nc.faults.seed, 0});
    auditor.attach();

    Rng rng(42);
    for (int i = 0; i < 2000; ++i) {
        int node = static_cast<int>(rng.below(3));
        uint64_t addr = kBase + rng.below(16) * vm::kPageSize +
                        rng.below(vm::kPageSize / 8) * 8;
        uint64_t v = rng.next();
        if (rng.below(2) == 0)
            dsm.port(node).write(addr, &v, 8);
        else
            dsm.port(node).read(addr, &v, 8);
        if (rng.below(64) == 0)
            dsm.broadcastWrite64(vm::kVdsoBase, v);
    }
    auditor.deepCheck("storm_end");
    EXPECT_GT(auditor.checksRun(), 2000u);
}

// --- Auditor: planted corruption is caught ---------------------------

namespace {

check::InvariantAuditor
makeAuditor(DsmSpace &dsm)
{
    return check::InvariantAuditor(dsm, {});
}

} // namespace

TEST(CheckAuditor, FlagsPageResidentWhileDirectorySaysInvalid)
{
    Interconnect net;
    DsmSpace dsm(2, &net, {1.0, 1.0});
    std::vector<uint8_t> page(vm::kPageSize, 0xab);
    ByteWriter w;
    w.u32(2);
    w.u32(1); // node 0 holds the page, legitimately
    w.u64(kPage);
    w.raw(page.data(), page.size());
    w.u32(1); // node 1 also holds bytes -- leaked
    w.u64(kPage);
    w.raw(page.data(), page.size());
    w.u32(1);
    w.u64(kPage);
    w.u8(static_cast<uint8_t>(PageState::Modified));
    w.u8(static_cast<uint8_t>(PageState::Invalid));
    w.u32(0);
    ByteReader r(w.out);
    dsm.loadState(r);
    check::InvariantAuditor auditor = makeAuditor(dsm);
    EXPECT_THROW(auditor.deepCheck("planted"), PanicError);
}

TEST(CheckAuditor, FlagsValidStateWithNoBackingCopy)
{
    Interconnect net;
    DsmSpace dsm(2, &net, {1.0, 1.0});
    ByteWriter w;
    w.u32(2);
    w.u32(0); // node 0: directory says Modified, but no page bytes
    w.u32(0);
    w.u32(1);
    w.u64(kPage);
    w.u8(static_cast<uint8_t>(PageState::Modified));
    w.u8(static_cast<uint8_t>(PageState::Invalid));
    w.u32(0);
    ByteReader r(w.out);
    dsm.loadState(r);
    check::InvariantAuditor auditor = makeAuditor(dsm);
    EXPECT_THROW(auditor.deepCheck("planted"), PanicError);
}

TEST(CheckAuditor, FlagsDivergentSharedReplicas)
{
    Interconnect net;
    DsmSpace dsm(2, &net, {1.0, 1.0});
    std::vector<uint8_t> pageA(vm::kPageSize, 0x11);
    std::vector<uint8_t> pageB(vm::kPageSize, 0x22);
    ByteWriter w;
    w.u32(2);
    w.u32(1);
    w.u64(kPage);
    w.raw(pageA.data(), pageA.size());
    w.u32(1);
    w.u64(kPage);
    w.raw(pageB.data(), pageB.size());
    w.u32(1);
    w.u64(kPage);
    w.u8(static_cast<uint8_t>(PageState::Shared));
    w.u8(static_cast<uint8_t>(PageState::Shared));
    w.u32(0);
    ByteReader r(w.out);
    dsm.loadState(r); // MSI-legal, so the basic checker passes...
    check::InvariantAuditor auditor = makeAuditor(dsm);
    EXPECT_THROW(auditor.deepCheck("planted"), PanicError);
}

TEST(CheckAuditor, FlagsAggregatePerNodeCounterDrift)
{
    Interconnect net;
    DsmSpace dsm(2, &net, {1.0, 1.0});
    std::vector<uint8_t> page(vm::kPageSize, 0x33);
    ByteWriter w;
    w.u32(2);
    w.u32(1);
    w.u64(kPage);
    w.raw(page.data(), page.size());
    w.u32(0);
    w.u32(1);
    w.u64(kPage);
    w.u8(static_cast<uint8_t>(PageState::Modified));
    w.u8(static_cast<uint8_t>(PageState::Invalid));
    w.u32(0);
    ByteReader r(w.out);
    dsm.loadState(r);
    // Restored counters arrive by name through the registry (as a
    // container checkpoint restores them); plant the drift there.
    obs::StatRegistry reg;
    dsm.registerStats(reg);
    reg.findCounter("dsm.read_faults")->add(5); // per-node says 0
    check::InvariantAuditor auditor = makeAuditor(dsm);
    EXPECT_THROW(auditor.deepCheck("planted"), PanicError);
}

TEST(CheckAuditor, UnfencedHealTripsEpochRegression)
{
    Interconnect net;
    DsmSpace dsm(2, &net, {1.0, 1.0});
    dsm.setEpochFencing(false);
    check::InvariantAuditor auditor = makeAuditor(dsm);
    auditor.attach();
    uint64_t a = 0xA;
    dsm.populate(0, kPage * vm::kPageSize, &a, 8);
    uint64_t got = 0;
    dsm.port(1).read(kPage * vm::kPageSize, &got, 8); // both Shared
    dsm.beginPartition({1});
    uint64_t c = 0xC;
    dsm.port(1).write(kPage * vm::kPageSize, &c, 8); // INVAL deferred
    // With the fence down, the heal replays the stale pre-heal INVAL:
    // the per-peer epoch goes backwards and the auditor must flag it.
    EXPECT_THROW(dsm.healPartition(), PanicError);
}

TEST(CheckAuditor, FencedHealPassesAudit)
{
    Interconnect net;
    DsmSpace dsm(2, &net, {1.0, 1.0});
    check::InvariantAuditor auditor = makeAuditor(dsm);
    auditor.attach();
    uint64_t a = 0xA;
    dsm.populate(0, kPage * vm::kPageSize, &a, 8);
    uint64_t got = 0;
    dsm.port(1).read(kPage * vm::kPageSize, &got, 8);
    dsm.beginPartition({1});
    uint64_t c = 0xC;
    dsm.port(1).write(kPage * vm::kPageSize, &c, 8);
    EXPECT_NO_THROW(dsm.healPartition());
    EXPECT_EQ(dsm.fencedMessages(), 1u);
    auditor.deepCheck("after fenced heal");
}

// --- Auditor: OS integration and golden safety -----------------------

TEST(CheckAuditor, StackRoundTripRunsAndAuditedRunIsIdentical)
{
    MultiIsaBinary bin =
        compileModule(buildWorkload(WorkloadId::CG, ProblemClass::A, 1));
    OsConfig cfg = OsConfig::dualServer();

    ReplicatedOS plain(bin, cfg);
    plain.load(0);
    plain.migrateProcess(1);
    OsRunResult ref = plain.run();
    ASSERT_GE(plain.migrations().size(), 1u);

    EnvGuard audit("XISA_AUDIT", "1");
    ReplicatedOS audited(bin, cfg);
    ASSERT_NE(audited.auditor(), nullptr);
    audited.load(0);
    audited.migrateProcess(1);
    OsRunResult got = audited.run();
    EXPECT_GE(audited.auditor()->roundTripsChecked(), 1u);
    EXPECT_GT(audited.auditor()->checksRun(), 0u);

    // XISA_AUDIT must never change what it observes.
    EXPECT_EQ(got.exitCode, ref.exitCode);
    EXPECT_EQ(got.output, ref.output);
    EXPECT_EQ(got.totalInstrs, ref.totalInstrs);
    EXPECT_DOUBLE_EQ(got.makespanSeconds, ref.makespanSeconds);
    EXPECT_EQ(audited.statRegistry().snapshot(),
              plain.statRegistry().snapshot());
}

TEST(CheckAuditor, PerturbedCrashyClusterRunStaysClean)
{
    EnvGuard audit("XISA_AUDIT", "1");
    EnvGuard perturb("XISA_PERTURB", "17");
    const JobProfileTable profiles = JobProfileTable::synthetic();
    ClusterSim::Config cc;
    cc.net.faults.dropProb = 0.02;
    cc.crashes = {{5.0, 0, 10.0}, {20.0, 1, 15.0}};
    ClusterSim sim(makeHeterogeneousPool(), profiles, cc);
    std::vector<Job> jobs = makeSustainedSet(11, 10);
    ClusterResult r = sim.run(jobs, Policy::DynamicBalanced);
    EXPECT_GT(r.makespan, 0.0);
    EXPECT_GE(r.crashes, 1);
}

} // namespace
} // namespace xisa
