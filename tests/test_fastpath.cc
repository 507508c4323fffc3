/**
 * @file
 * Fast-path engine tests (DESIGN.md §7).
 *
 * Two families:
 *  - TLB coherence: the per-port software TLB must be invalidated on
 *    every event that changes a page's residency or rights -- hDSM page
 *    steal, invalidation, Modified->Shared downgrade, fault-induced
 *    protocol retries -- and must never return bytes that disagree
 *    with the protocol's authoritative copy. A thread migration changes
 *    neither, so translations survive it.
 *  - Differential: every observable of a run (program output, exit
 *    code, instruction count, simulated makespan, stat values, final
 *    memory image) must be identical between the fast path and the
 *    XISA_SLOW_PATH reference interpreter.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/compile.hh"
#include "dsm/dsm.hh"
#include "machine/interp_threaded.hh"
#include "machine/mem.hh"
#include "os/os.hh"
#include "util/rng.hh"
#include "workload/workloads.hh"

namespace xisa {
namespace {

constexpr uint64_t kBase = 0x10000000ull;
constexpr uint64_t kPage = kBase / vm::kPageSize;

/** Scope that forces the reference (slow) paths for components
 *  constructed inside it; XISA_SLOW_PATH is sampled at construction. */
struct SlowPathGuard {
    SlowPathGuard() { setenv("XISA_SLOW_PATH", "1", 1); }
    ~SlowPathGuard() { unsetenv("XISA_SLOW_PATH"); }
};

// ---------------------------------------------------------------------
// TLB invalidation contract.
// ---------------------------------------------------------------------

struct TlbFixture : ::testing::Test {
    Interconnect net;
    DsmSpace dsm{2, &net, {3.5, 2.4}};
};

TEST_F(TlbFixture, LocalAccessInstallsBothTranslations)
{
    uint64_t v = 5;
    dsm.port(0).write(kBase, &v, 8);
    uint64_t got = 0;
    EXPECT_TRUE(dsm.port(0).tryRead(kBase, &got, 8));
    EXPECT_EQ(got, 5u);
    uint64_t w = 9;
    EXPECT_TRUE(dsm.port(0).tryWrite(kBase + 8, &w, 8));
    dsm.peek(kBase + 8, &got, 8);
    EXPECT_EQ(got, 9u) << "TLB store must hit the authoritative copy";
}

TEST_F(TlbFixture, PageStealDropsTheOldOwnersEntries)
{
    uint64_t v = 1;
    dsm.port(0).write(kBase, &v, 8); // node0 Modified, TLB hot
    uint64_t w = 2;
    dsm.port(1).write(kBase, &w, 8); // steal: node0 invalidated
    uint64_t got = 0;
    EXPECT_FALSE(dsm.port(0).tryRead(kBase, &got, 8))
        << "stale read translation after invalidation";
    EXPECT_FALSE(dsm.port(0).tryWrite(kBase, &v, 8))
        << "stale write translation after invalidation";
    // The slow path re-faults and sees node1's value.
    dsm.port(0).read(kBase, &got, 8);
    EXPECT_EQ(got, 2u);
}

TEST_F(TlbFixture, SharedReadDowngradesTheOwnersWriteEntry)
{
    uint64_t v = 3;
    dsm.port(0).write(kBase, &v, 8); // node0 Modified
    uint64_t got = 0;
    dsm.port(1).read(kBase, &got, 8); // both Shared now
    EXPECT_FALSE(dsm.port(0).tryWrite(kBase, &v, 8))
        << "write rights must expire on Modified->Shared";
    EXPECT_TRUE(dsm.port(0).tryRead(kBase, &got, 8))
        << "read translation stays valid while Shared";
    EXPECT_EQ(got, 3u);
}

TEST_F(TlbFixture, ReaderEntriesDropOnInvalidation)
{
    uint64_t v = 4;
    dsm.port(0).write(kBase, &v, 8);
    uint64_t got = 0;
    dsm.port(1).read(kBase, &got, 8); // node1 Shared, read TLB hot
    ASSERT_TRUE(dsm.port(1).tryRead(kBase, &got, 8));
    uint64_t w = 6;
    dsm.port(0).write(kBase, &w, 8); // invalidates node1's copy
    EXPECT_FALSE(dsm.port(1).tryRead(kBase, &got, 8))
        << "stale reader translation after invalidation";
    dsm.port(1).read(kBase, &got, 8);
    EXPECT_EQ(got, 6u);
}

TEST_F(TlbFixture, VdsoWritesAreNeverCached)
{
    dsm.broadcastWrite64(vm::kVdsoBase, 7);
    uint64_t got = 0;
    dsm.port(0).read(vm::kVdsoBase, &got, 8);
    uint64_t w = 8;
    EXPECT_FALSE(dsm.port(0).tryWrite(vm::kVdsoBase, &w, 8))
        << "user stores to the vDSO page must take the slow path";
}

TEST_F(TlbFixture, FlushTlbDropsEveryTranslation)
{
    uint64_t v = 1;
    dsm.port(0).write(kBase, &v, 8);
    dsm.port(0).write(kBase + vm::kPageSize, &v, 8);
    dsm.flushTlb(0);
    uint64_t got = 0;
    EXPECT_FALSE(dsm.port(0).tryRead(kBase, &got, 8));
    EXPECT_FALSE(dsm.port(0).tryRead(kBase + vm::kPageSize, &got, 8));
    EXPECT_FALSE(dsm.port(0).tryWrite(kBase, &v, 8));
}

TEST_F(TlbFixture, SlowPathModeNeverCaches)
{
    SlowPathGuard slow;
    Interconnect net2;
    DsmSpace ref(2, &net2, {3.5, 2.4});
    uint64_t v = 1, got = 0;
    ref.port(0).write(kBase, &v, 8);
    ref.port(0).read(kBase, &got, 8);
    EXPECT_FALSE(ref.port(0).tryRead(kBase, &got, 8));
    EXPECT_FALSE(ref.port(0).tryWrite(kBase, &v, 8));
}

TEST(TlbRemoteAccess, OnlyHomePagesAreCached)
{
    Interconnect net;
    DsmSpace dsm(2, &net, {3.5, 2.4}, DsmMode::RemoteAccess);
    uint64_t v = 11, got = 0;
    dsm.port(0).write(kBase, &v, 8); // node0 becomes home
    EXPECT_TRUE(dsm.port(0).tryRead(kBase, &got, 8));
    // Node1's accesses are remote: every one must pay the round trip,
    // so nothing may be cached on node1's port.
    dsm.port(1).read(kBase, &got, 8);
    EXPECT_EQ(got, 11u);
    EXPECT_FALSE(dsm.port(1).tryRead(kBase, &got, 8));
    EXPECT_FALSE(dsm.port(1).tryWrite(kBase, &v, 8));
}

TEST(TlbLocalPort, CachesAfterFirstTouch)
{
    SimMemory mem;
    LocalMemPort port(mem);
    uint64_t v = 21, got = 0;
    port.write(kBase, &v, 8);
    EXPECT_TRUE(port.tryRead(kBase, &got, 8));
    EXPECT_EQ(got, 21u);
    // Contract: dropping pages under the port requires a flush.
    mem.dropPage(kPage);
    port.tlbFlush();
    EXPECT_FALSE(port.tryRead(kBase, &got, 8));
}

/**
 * Under a lossy, duplicating link the protocol retries and replays
 * fault messages; whatever the schedule, a TLB hit must always agree
 * with the authoritative copy. Randomized: any divergence between a
 * cached translation and peek() is a missed invalidation.
 */
TEST(TlbFaultStorm, HitsAlwaysMatchAuthoritativeCopy)
{
    Interconnect::Config cfg;
    cfg.faults.seed = 0x71b;
    cfg.faults.dropProb = 0.2;
    cfg.faults.dupProb = 0.15;
    cfg.faults.spikeProb = 0.1;
    Interconnect net(cfg);
    DsmSpace dsm(3, &net, {3.5, 2.4, 2.4});
    constexpr uint64_t kWords = 512; // spans two pages
    Rng rng(0x7a11);
    for (int op = 0; op < 4000; ++op) {
        int node = static_cast<int>(rng.below(3));
        uint64_t addr = kBase + rng.below(kWords) * 8;
        if (rng.below(2) == 0) {
            uint64_t v = rng.next();
            dsm.port(node).write(addr, &v, 8);
        } else {
            uint64_t got = 0;
            dsm.port(node).read(addr, &got, 8);
        }
        // Probe every node's TLB at a random address; a hit must
        // return exactly what the protocol considers current.
        uint64_t probe = kBase + rng.below(kWords) * 8;
        for (int n = 0; n < 3; ++n) {
            uint64_t cached = 0;
            if (dsm.port(n).tryRead(probe, &cached, 8)) {
                uint64_t truth = 0;
                dsm.peek(probe, &truth, 8);
                ASSERT_EQ(cached, truth)
                    << "op " << op << " node " << n << " addr "
                    << std::hex << probe;
            }
        }
    }
    dsm.checkInvariants();
}

// ---------------------------------------------------------------------
// Differential: fast path vs XISA_SLOW_PATH reference.
// ---------------------------------------------------------------------

struct RunCapture {
    OsRunResult res;
    std::map<std::string, double> stats;
    std::map<uint64_t, std::vector<uint8_t>> image;
    size_t migrations = 0;
};

/** Run `bin` to completion, optionally under an adversarial ping-pong
 *  migration schedule, and capture every observable. Histogram stats
 *  compare by primary value (count), which is schedule-deterministic;
 *  full dumps are not comparable because stacktransform.host_us
 *  measures real host time. */
RunCapture
captureRun(const MultiIsaBinary &bin, bool pingPong, uint64_t quantum,
           DsmMode mode = DsmMode::MigratePages)
{
    OsConfig cfg = OsConfig::dualServer();
    cfg.dsmMode = mode;
    if (pingPong)
        cfg.quantum = quantum;
    ReplicatedOS os(bin, cfg);
    os.load(0);
    if (pingPong)
        os.onQuantum = [](ReplicatedOS &self) {
            self.migrateProcess(1 - self.threadNode(0));
        };
    RunCapture c;
    c.res = os.run();
    c.stats = os.statRegistry().snapshot();
    c.image = os.dsm().pageImage();
    c.migrations = os.migrations().size();
    return c;
}

void
expectIdentical(const RunCapture &fast, const RunCapture &slow,
                const char *what)
{
    EXPECT_EQ(fast.res.output, slow.res.output) << what;
    EXPECT_EQ(fast.res.exitCode, slow.res.exitCode) << what;
    EXPECT_EQ(fast.res.totalInstrs, slow.res.totalInstrs) << what;
    EXPECT_EQ(fast.res.makespanSeconds, slow.res.makespanSeconds)
        << what;
    EXPECT_EQ(fast.migrations, slow.migrations) << what;
    ASSERT_EQ(fast.image.size(), slow.image.size()) << what;
    EXPECT_TRUE(fast.image == slow.image)
        << what << ": final memory images differ";
    ASSERT_EQ(fast.stats.size(), slow.stats.size()) << what;
    for (const auto &[name, v] : slow.stats) {
        auto it = fast.stats.find(name);
        ASSERT_NE(it, fast.stats.end()) << what << ": " << name;
        // host_us histograms count real wall time per sample; the
        // primary value (sample count) is deterministic and compared,
        // which snapshot() already reduces to.
        EXPECT_EQ(it->second, v) << what << ": stat " << name;
    }
}

class WorkloadDifferential
    : public ::testing::TestWithParam<WorkloadId> {};

TEST_P(WorkloadDifferential, FastPathMatchesReferenceExactly)
{
    struct Leg {
        const char *what;
        bool pingPong;
        uint64_t quantum;
        DsmMode mode;
    };
    // Quantum 250 is the host benchmark's migrate shape (a move about
    // every quantum); RemoteAccess caches home pages only.
    const Leg legs[] = {
        {"plain", false, 0, DsmMode::MigratePages},
        {"ping-pong migration", true, 2500, DsmMode::MigratePages},
        {"quantum-250 ping-pong", true, 250, DsmMode::MigratePages},
        {"RemoteAccess ping-pong", true, 2500, DsmMode::RemoteAccess},
    };
    const WorkloadDesc &desc = workloadDesc(GetParam());
    Module mod = buildWorkload(GetParam(), ProblemClass::A,
                               desc.threadCapable ? 2 : 1);
    MultiIsaBinary bin = compileModule(mod);
    for (const Leg &leg : legs) {
        RunCapture fast =
            captureRun(bin, leg.pingPong, leg.quantum, leg.mode);
        RunCapture slow;
        {
            SlowPathGuard guard;
            slow = captureRun(bin, leg.pingPong, leg.quantum, leg.mode);
        }
        expectIdentical(fast, slow, leg.what);
        if (leg.pingPong)
            EXPECT_GE(fast.migrations, 1u) << leg.what;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, WorkloadDifferential,
    ::testing::Values(WorkloadId::CG, WorkloadId::IS, WorkloadId::EP,
                      WorkloadId::REDIS),
    [](const auto &info) { return std::string(workloadName(info.param)); });

// ---------------------------------------------------------------------
// TLB entries across a thread migration.
// ---------------------------------------------------------------------

/** Scope arming the invariant auditor for contained constructions. */
struct AuditGuard {
    AuditGuard() { setenv("XISA_AUDIT", "1", 1); }
    ~AuditGuard() { unsetenv("XISA_AUDIT"); }
};

/**
 * A migration moves a context, not page rights, so the kernel the
 * thread left keeps its translations -- and each one must still name
 * the node's current backing page for a page the directory says that
 * node holds. The auditor deep-checks every TLB after each migration
 * as well; this test pins both halves of the contract explicitly.
 */
TEST(TlbMigration, TranslationsSurviveMigrationAndStayExact)
{
    Module mod = buildWorkload(WorkloadId::REDIS, ProblemClass::A);
    MultiIsaBinary bin = compileModule(mod);
    AuditGuard audit;
    OsConfig cfg = OsConfig::dualServer();
    cfg.quantum = 250;
    ReplicatedOS os(bin, cfg);
    os.load(0);
    size_t seen = 0;
    int checked = 0;
    int kept = 0;
    // pageImage() copies every page, so only the first 16 moves are
    // inspected here; the auditor still checks all of them.
    os.onQuantum = [&](ReplicatedOS &self) {
        if (self.migrations().size() > seen && checked < 16) {
            seen = self.migrations().size();
            ++checked;
            DsmSpace &dsm = self.dsm();
            int left = 1 - self.threadNode(0);
            int reads = 0;
            for (const auto &page : dsm.pageImage()) {
                uint64_t vpage = page.first;
                const uint8_t *rb = dsm.port(left).tlbReadBase(vpage);
                const uint8_t *wb = dsm.port(left).tlbWriteBase(vpage);
                if (!rb && !wb)
                    continue;
                reads += rb != nullptr;
                ASSERT_NE(dsm.state(left, vpage), PageState::Invalid)
                    << "migration " << seen << " page " << std::hex
                    << vpage;
                const uint8_t *backing =
                    dsm.memory(left).peekPage(vpage);
                if (rb)
                    EXPECT_EQ(rb, backing) << "migration " << seen;
                if (wb)
                    EXPECT_EQ(wb, backing) << "migration " << seen;
            }
            if (reads > 0)
                ++kept;
        }
        self.migrateProcess(1 - self.threadNode(0));
    };
    OsRunResult res = os.run();
    EXPECT_TRUE(res.finished);
    ASSERT_GT(checked, 0) << "schedule never migrated";
    EXPECT_EQ(kept, checked)
        << "the node a thread left lost its read translations: a "
           "migration flushed TLBs that no revocation required";
}

// ---------------------------------------------------------------------
// Superblock threaded engine: the deopt contract (DESIGN.md §10).
//
// The engine retires straight-line code in compiled superblocks and
// materializes interpreter state only when it must hand off -- at a
// migration trap, on a software-TLB miss inside a block (shootdowns,
// page steals), or when the quantum runs dry mid-stream. These tests
// force each hand-off while a block is hot and require the run to stay
// observationally identical to the plain predecoded fast path
// (XISA_THREADED=0), while a boundary observer proves the deopt paths
// actually fired and that no block-local progress was lost.
// ---------------------------------------------------------------------

/** Scope that pins the plain predecoded fast path (no superblocks). */
struct NoThreadedGuard {
    NoThreadedGuard() { setenv("XISA_THREADED", "0", 1); }
    ~NoThreadedGuard() { unsetenv("XISA_THREADED"); }
};

/** Scope arming the schedule perturber for contained constructions. */
struct PerturbGuard {
    explicit PerturbGuard(const char *seed)
    {
        setenv("XISA_PERTURB", seed, 1);
    }
    ~PerturbGuard() { unsetenv("XISA_PERTURB"); }
};

/** Counts superblock-boundary events and re-checks the monotonicity
 *  contract the invariant auditor enforces in production: within one
 *  run() slice the live instruction count never decreases. */
struct CountingObserver final : SuperblockObserver {
    uint64_t enters = 0;
    uint64_t deopts = 0;
    uint64_t exits = 0;
    uint64_t watermark = 0;
    bool inSlice = false;
    bool monotone = true;

    void
    onSuperblock(Event ev, uint32_t, uint32_t, uint64_t now) override
    {
        if (ev == Event::Enter)
            ++enters;
        else if (ev == Event::Deopt)
            ++deopts;
        else
            ++exits;
        if (inSlice && now < watermark)
            monotone = false;
        watermark = now;
        inSlice = ev != Event::Exit;
    }
};

/** captureRun with a superblock observer installed on every node and a
 *  ping-pong migration schedule. */
RunCapture
captureObserved(const MultiIsaBinary &bin, uint64_t quantum,
                CountingObserver &obs)
{
    OsConfig cfg = OsConfig::dualServer();
    cfg.quantum = quantum;
    ReplicatedOS os(bin, cfg);
    for (int n = 0; n < static_cast<int>(cfg.nodes.size()); ++n)
        os.interp(n).setSuperblockObserver(&obs);
    os.load(0);
    os.onQuantum = [](ReplicatedOS &self) {
        self.migrateProcess(1 - self.threadNode(0));
    };
    RunCapture c;
    c.res = os.run();
    c.stats = os.statRegistry().snapshot();
    c.image = os.dsm().pageImage();
    c.migrations = os.migrations().size();
    return c;
}

TEST(ThreadedDeopt, MigrationTrapMidBlockIsObservationallyInvisible)
{
    Module mod = buildWorkload(WorkloadId::CG, ProblemClass::A, 2);
    MultiIsaBinary bin = compileModule(mod);
    CountingObserver obs;
    RunCapture threaded = captureObserved(bin, 700, obs);
    RunCapture plain;
    {
        NoThreadedGuard guard;
        plain = captureRun(bin, true, 700);
    }
    expectIdentical(threaded, plain, "migration-trap deopt");
    EXPECT_GE(threaded.migrations, 1u)
        << "schedule never migrated; the test lost its trigger";
#if XISA_THREADED_CAPABLE
    EXPECT_GT(obs.enters, 0u) << "no superblock ever entered";
    EXPECT_GT(obs.deopts, 0u)
        << "quantum 700 never expired mid-block; deopt path untested";
    EXPECT_TRUE(obs.monotone)
        << "block-local progress lost or double-counted at a deopt";
#endif
}

TEST(ThreadedDeopt, TlbShootdownInsideBlockDeoptsAndRefaults)
{
    // hDSM page steals shoot down live translations as the ping-pong
    // pulls the working set back and forth; a threaded load/store whose
    // inline probe then misses must deopt to the reference step,
    // re-fault the page, and resume -- with bit-identical accounting to
    // the fast path.
    Module mod = buildWorkload(WorkloadId::IS, ProblemClass::A, 2);
    MultiIsaBinary bin = compileModule(mod);
    CountingObserver obs;
    RunCapture threaded = captureObserved(bin, 900, obs);
    RunCapture plain;
    {
        NoThreadedGuard guard;
        plain = captureRun(bin, true, 900);
    }
    expectIdentical(threaded, plain, "TLB-shootdown deopt");
    auto inval = threaded.stats.find("dsm.invalidations");
    ASSERT_NE(inval, threaded.stats.end());
    EXPECT_GT(inval->second, 0.0)
        << "no shootdowns happened; the test lost its trigger";
#if XISA_THREADED_CAPABLE
    EXPECT_GT(obs.deopts, 0u)
        << "no mid-block hand-off ever fired under shootdown pressure";
    EXPECT_TRUE(obs.monotone);
#endif
}

TEST(ThreadedDeopt, PerturbedScheduleOverlayMatchesFastPath)
{
    // XISA_PERTURB jitters quantum boundaries and migration timing;
    // under the same seed the threaded engine and the plain fast path
    // must still agree on every observable.
    Module mod = buildWorkload(WorkloadId::CG, ProblemClass::A, 2);
    MultiIsaBinary bin = compileModule(mod);
    RunCapture threaded, plain;
    {
        PerturbGuard seed("20260809");
        threaded = captureRun(bin, true, 1100);
        NoThreadedGuard guard;
        plain = captureRun(bin, true, 1100);
    }
    expectIdentical(threaded, plain, "perturbed overlay");
}

} // namespace
} // namespace xisa
