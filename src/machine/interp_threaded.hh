/**
 * @file
 * Superblock threaded-code execution engine (DESIGN.md §10).
 *
 * The PR 3 fast path predecodes but still pays one dispatch round trip
 * (switch + per-instruction bookkeeping) per guest instruction. This
 * engine goes the rest of the way: straight-line guest code -- basic
 * blocks chained across direct branches, with migration points, calls,
 * indirect branches and other potential-faulting ops lowered as exit
 * micro-ops -- is discovered once per (function, entry) and compiled
 * into a dense micro-op array executed by a computed-goto threaded
 * dispatch loop. Guest-visible interpreter state (PC, instruction and
 * cycle accounting) is materialized only at superblock exits; anything
 * the micro-ops cannot complete byte-identically (software-TLB miss,
 * page-crossing access, indirect call, budget boundary, machine fault)
 * deoptimizes by materializing that state at the precise guest
 * instruction and resuming the reference fast engine
 * (Interp::runImpl<kFast>) there.
 *
 * The engine is observationally invisible: stdout, stats snapshots,
 * trace streams and final memory images are byte-identical to both
 * XISA_THREADED=0 (plain fast path) and XISA_SLOW_PATH=1 (reference
 * path), enforced by tests/test_fastpath.cc and the FastSlowFuzz
 * differential. It therefore keeps NO registry-attached stats of its
 * own -- a threaded-only counter would break snapshot equality.
 *
 * Computed goto is a GNU extension; on other compilers (and under
 * XISA_THREADED=0) Interp never constructs the engine and everything
 * falls back to runImpl<kFast>.
 */

#ifndef XISA_MACHINE_INTERP_THREADED_HH
#define XISA_MACHINE_INTERP_THREADED_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "machine/interp.hh"

#if defined(__GNUC__) || defined(__clang__)
#define XISA_THREADED_CAPABLE 1
#else
#define XISA_THREADED_CAPABLE 0
#endif

namespace xisa {

/**
 * One micro-op of a lowered superblock (32 bytes, half an I-line, so
 * straight-line dispatch streams two uops per line). `label` is the
 * computed-goto handler address -- process-wide, since the dispatch
 * loop is a single function, so lowered blocks are shareable across
 * engines and threads. The remaining fields are the operands the
 * handler needs, pre-resolved at lowering time (including ABI registers
 * like SP/LR baked into rn/rm) so the hot loop never consults the
 * MachInstr or the AbiInfo again.
 *
 * Each instruction uop accounts for its own I-fetch: `fetchReal` marks
 * the first instruction executed on a new I-line (block entries, join
 * targets, line crossings), which flushes the batched memo hits and
 * runs a real cache access; everything else just owes one more memo
 * hit. Crucially the fetch runs AFTER the uop's TLB probes, so a
 * deoptimizing instruction has mutated nothing -- the reference step
 * that replays it performs the one and only fetch.
 */
struct Uop {
    const void *label = nullptr;
    uint8_t rd = 0;
    uint8_t rn = 0;
    uint8_t rm = 0;
    uint8_t cost = 0;      ///< NodeSpec::cost of the guest op
    Cond cond = Cond::Always;
    uint8_t fetchReal = 0; ///< 1: flush batch + real L1I access
    uint8_t pad_[2] = {};
    uint32_t aux = 0;   ///< intra-block uop index / callee id / site id
    uint32_t gidx = 0;  ///< guest instruction index (deopt, PC, faults)
    int64_t imm = 0;    ///< immediate / scale / guest target / RA
};

/**
 * One lowered superblock: single entry, multiple exits. `len` is the
 * guest range length, which upper-bounds the instructions executed
 * between budget checks -- the budget contract: a block is entered (and
 * a backward edge taken) only while at least `len` instructions of
 * quantum remain, so the dispatch loop needs no per-instruction check.
 */
struct SuperBlock {
    std::vector<Uop> uops;
    uint32_t entry = 0;
    uint32_t len = 0;
};

/**
 * Observer of superblock-boundary events (the invariant auditor's
 * probe). Fired on block entry, on every deoptimization to the
 * reference engine, and at run()-slice exit; `instrsNow` is the
 * thread's live instruction count including unmaterialized block-local
 * progress, so within one run() slice it must be non-decreasing --
 * the auditor checks exactly that contract.
 */
class SuperblockObserver
{
  public:
    enum class Event : uint8_t {
        Enter, ///< dispatch entered a superblock at (funcId, instrIdx)
        Deopt, ///< state materialized, resuming runImpl at instrIdx
        Exit,  ///< run() slice returning; state fully materialized
    };
    virtual ~SuperblockObserver() = default;
    virtual void onSuperblock(Event ev, uint32_t funcId,
                              uint32_t instrIdx, uint64_t instrsNow) = 0;
};

/**
 * Everything a predecoded stream or lowered superblock bakes in from
 * the node's timing model: per-op costs, the I-line geometry that
 * marks line-start fetches, the memory penalty, and the ISA. Two nodes
 * with equal signatures produce bit-identical artifacts, which is what
 * lets ExecCache share them across sweep configurations.
 */
uint64_t execTimingSig(const NodeSpec &spec);

/**
 * Shared cache of predecoded streams and lowered superblocks. Both are
 * keyed only by (binary, ISA, function) plus the timing signature, so
 * sweep drivers running one binary across many configs share one cache
 * instead of redecoding per config (the overhead runner hands one to every
 * ReplicatedOS via OsConfig::execCache). The first claimant of an ISA
 * slot fixes its signature; an instance whose signature differs simply
 * bypasses the cache. Thread-safe; entries are immutable once stored.
 */
class ExecCache
{
  public:
    using PrePtr = std::shared_ptr<const std::vector<PreInstr>>;
    using BlockPtr = std::shared_ptr<const SuperBlock>;

    /** Cached predecoded stream, or null (absent / signature clash). */
    PrePtr pre(IsaId isa, uint32_t funcId, uint64_t sig);
    /** Store `p`; returns the canonical entry (first store wins). */
    PrePtr setPre(IsaId isa, uint32_t funcId, uint64_t sig, PrePtr p);
    /** Cached superblock, or null (absent / signature clash). */
    BlockPtr block(IsaId isa, uint32_t funcId, uint32_t entry,
                   uint64_t sig);
    /** Store `b`; returns the canonical entry (first store wins). */
    BlockPtr setBlock(IsaId isa, uint32_t funcId, uint32_t entry,
                      uint64_t sig, BlockPtr b);

  private:
    struct IsaSlot {
        bool sigSet = false;
        uint64_t sig = 0;
        std::vector<PrePtr> pre;                   ///< [funcId]
        std::vector<std::vector<BlockPtr>> blocks; ///< [funcId][entry]
    };
    /** Slot for `isa` if `sig` matches (claiming if unset), else null. */
    IsaSlot *slot(IsaId isa, uint64_t sig);

    std::mutex mu_;
    IsaSlot isa_[kNumIsas];
};

/**
 * The threaded dispatch engine of one Interp. Owns the per-function
 * superblock indexes and the computed-goto run loop; delegates anything
 * it cannot retire byte-identically to Interp::runImpl<kFast>. All stat
 * handles it touches (core caches, shared L2) are direct object
 * references resolved before dispatch -- superblock exits never pay a
 * registry map probe.
 *
 * The class is declared unconditionally (Interp holds a unique_ptr to
 * it on every compiler); without XISA_THREADED_CAPABLE, run() is a
 * plain passthrough to runImpl<kFast> and Interp never constructs one.
 */
class ThreadedEngine
{
  public:
    explicit ThreadedEngine(Interp &interp);

    /** Drop-in replacement for Interp::runImpl<kFast> (same contract). */
    StepResult run(ThreadContext &ctx, MemPort &mem, Core &core,
                   Cache &l2, uint64_t maxInstrs);

    /** Install (or clear) the superblock-boundary observer. */
    void setObserver(SuperblockObserver *obs) { observer_ = obs; }

    /** Share predecode/superblock artifacts through `cache`. */
    void shareCache(std::shared_ptr<ExecCache> cache);

  private:
    /** The dispatch loop; with `capture` set it only records the
     *  computed-goto label table and returns. */
    StepResult runLoop(ThreadContext *ctx, MemPort *mem, Core *core,
                       Cache *l2, uint64_t maxInstrs,
                       const void **capture);

    /** Resolved superblock for (funcId, entry), building on miss. */
    const SuperBlock *blockAt(uint32_t funcId, uint32_t entry);
    std::shared_ptr<const SuperBlock> lower(uint32_t funcId,
                                            uint32_t entry);

    Interp &interp_;
    SuperblockObserver *observer_ = nullptr;
    std::shared_ptr<ExecCache> cache_;
    /** Raw dispatch index: [funcId][entry] -> block (null until built);
     *  keepalive_ pins the shared_ptr ownership. */
    std::vector<std::vector<const SuperBlock *>> byEntry_;
    std::vector<std::shared_ptr<const SuperBlock>> keepalive_;
};

} // namespace xisa

#endif // XISA_MACHINE_INTERP_THREADED_HH
