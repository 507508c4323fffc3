/**
 * @file
 * Invariant auditor (DESIGN.md §8).
 *
 * When XISA_AUDIT=1, an InvariantAuditor rides along with a container
 * (or is attached to a bare DsmSpace) and validates global invariants
 * at every protocol step:
 *
 *  - MSI consistency: at most one Modified copy per page, and never
 *    Modified + Shared mixed (the vDSO page excepted -- it is
 *    replicated by kernel broadcast);
 *  - directory/residency agreement: a node's directory state is valid
 *    iff the node actually holds the page bytes -- "no node reads a
 *    page whose directory state for it is Invalid";
 *  - replica agreement: every Shared copy of a page is byte-identical;
 *  - TLB-shootdown completeness: no software-TLB entry survives a page
 *    steal, invalidation, or Modified->Shared downgrade on ANY port,
 *    and every live entry points at the node's current backing page;
 *  - stack-transform round-trip identity: transforming a migrated
 *    context back to the source ISA reproduces the source frames
 *    bit-for-bit and the source register state (checked under a
 *    protocol bypass so the audit is invisible to the run);
 *  - aggregate/per-node counter agreement: each `dsm.*` protocol
 *    aggregate equals the sum of its `node<N>.dsm.*` breakdown.
 *
 * A violation prints a replay line (perturbation seed + fault seed),
 * dumps a Chrome trace when tracing is compiled in, and panics -- so
 * property tests can EXPECT_THROW on planted corruption while sweep
 * drivers get a triagable artifact.
 *
 * Auditing must never change what it observes: the auditor keeps plain
 * (non-registry) counters, performs read-only sweeps, and runs its
 * round-trip transform under DsmSpace::ProtocolBypass with the
 * transformer's stat/trace emission suppressed. A run with XISA_AUDIT=1
 * is observable-for-observable identical to the same run without it.
 */

#ifndef XISA_CHECK_AUDIT_HH
#define XISA_CHECK_AUDIT_HH

#include <cstdint>
#include <string>

#include "dsm/dsm.hh"
#include "machine/interp.hh"
#include "machine/interp_threaded.hh"

namespace xisa {

class StackTransformer;

namespace check {

/** True if XISA_AUDIT is set (auditors should be wired up). */
bool auditRequested();

class InvariantAuditor;

/**
 * Superblock-boundary probe of the invariant auditor (DESIGN.md §10):
 * installed into every node's threaded engine when XISA_AUDIT=1. The
 * engine fires Enter / Deopt / Exit events with the thread's live
 * instruction count (committed ctx.instrs plus unmaterialized
 * block-local progress); within one run() slice -- the events between
 * two Exits -- that count must be non-decreasing, or the engine lost or
 * double-counted instructions across a deoptimization. Quanta run
 * sequentially on the host, so one probe per container suffices.
 *
 * Keeps plain counters only (the auditor's invisibility contract).
 */
class SuperblockAudit final : public SuperblockObserver
{
  public:
    explicit SuperblockAudit(InvariantAuditor &audit) : audit_(audit) {}
    void onSuperblock(Event ev, uint32_t funcId, uint32_t instrIdx,
                      uint64_t instrsNow) override;

    uint64_t enters() const { return enters_; }
    uint64_t deopts() const { return deopts_; }
    uint64_t exits() const { return exits_; }

  private:
    InvariantAuditor &audit_;
    bool inSlice_ = false;
    uint64_t watermark_ = 0; ///< last instrsNow seen in this slice
    uint64_t enters_ = 0;
    uint64_t deopts_ = 0;
    uint64_t exits_ = 0;
};

class InvariantAuditor
{
  public:
    /** Replay identity printed with every violation. */
    struct Context {
        uint64_t faultSeed = 0;   ///< net fault-plan seed
        uint64_t perturbSeed = 0; ///< XISA_PERTURB seed (0 if unset)
    };

    /** Audit `dsm`, which outlives the auditor. */
    InvariantAuditor(DsmSpace &dsm, Context ctx);

    /** Install this auditor as `dsm`'s protocol-step hook. */
    void attach();

    /**
     * One protocol step happened on `vpage` (fault, fill, broadcast,
     * restore). Runs the per-page checks; every 64th step additionally
     * sweeps the whole directory and every port's TLB.
     */
    void onProtocolStep(const char *what, uint64_t vpage);

    /** Full sweep: directory, every TLB, every page's replica bytes,
     *  and the counter agreement. Called at migrations, restores, and
     *  end of run. */
    void deepCheck(const char *where);

    /**
     * Round-trip identity: transform `destCtx` (the result of
     * transforming `srcCtx` at `siteId`) back to the source ISA and
     * require that (a) the stack region is bit-for-bit unchanged and
     * (b) the round-tripped SP/FP/PC/TLS agree with `srcCtx`. Runs
     * under ProtocolBypass + the transformer's audit scope, so it is
     * invisible to the run's observables.
     */
    void auditStackRoundTrip(StackTransformer &xform,
                             const ThreadContext &srcCtx,
                             const ThreadContext &destCtx,
                             uint32_t siteId, int node,
                             uint64_t stackTopAddr);

    uint64_t checksRun() const { return checks_; }
    uint64_t roundTripsChecked() const { return roundTrips_; }

    /** The superblock-boundary probe to install into each node's
     *  interpreter (Interp::setSuperblockObserver). */
    SuperblockAudit &superblockAudit() { return sbAudit_; }

    /** Print the replay line, dump a trace if enabled, and panic. */
    [[noreturn]] void violation(const char *where,
                                const std::string &detail);

  private:
    void checkPage(const char *where, uint64_t vpage, bool bytes);
    void checkDirectoryAndTlbs(const char *where, bool bytes);
    void checkCounterAgreement(const char *where);

    DsmSpace &dsm_;
    Context ctx_;
    SuperblockAudit sbAudit_{*this};
    // Plain counters on purpose: registry-attached audit stats would
    // change snapshot()/dump() output and break golden comparisons
    // under XISA_AUDIT=1.
    uint64_t checks_ = 0;
    uint64_t roundTrips_ = 0;
    uint64_t steps_ = 0;
};

} // namespace check
} // namespace xisa

#endif // XISA_CHECK_AUDIT_HH
