/**
 * @file
 * Container checkpoint/restore (the CRIU analog of Section 8).
 *
 * Checkpoints capture a container between scheduling quanta, where
 * every thread context is architecturally consistent. Unlike live
 * migration, a checkpoint copies the ENTIRE memory image eagerly --
 * which is exactly the overhead the paper's seamless thread migration
 * avoids ("without the overheads of checkpoint/restore mechanisms").
 */

#include <cstring>

#include "check/audit.hh"
#include "os/os.hh"
#include "util/bytes.hh"
#include "util/logging.hh"

namespace xisa {

namespace {

constexpr uint32_t kCkptMagic = 0x544b4358; // "XCKT"
// v3: every counter and gauge of the container's registry travels by
// name, so a restored container's stats continue the checkpointed
// run's (v2 carried only the DSM protocol counters).
constexpr uint32_t kCkptVersion = 3;

void
writeContext(ByteWriter &w, const ThreadContext &ctx)
{
    for (uint64_t g : ctx.gpr)
        w.u64(g);
    for (double f : ctx.fpr)
        w.f64(f);
    w.u8(ctx.flags.eq);
    w.u8(ctx.flags.lt);
    w.u8(ctx.flags.ult);
    w.u32(ctx.pc.funcId);
    w.u32(ctx.pc.instrIdx);
    w.u64(ctx.tlsBase);
    w.u8(static_cast<uint8_t>(ctx.isa));
    w.u64(ctx.instrs);
    w.u64(ctx.cycles);
    w.u64(ctx.dsmExtraCycles);
}

ThreadContext
readContext(ByteReader &r)
{
    ThreadContext ctx;
    for (uint64_t &g : ctx.gpr)
        g = r.u64();
    for (double &f : ctx.fpr)
        f = r.f64();
    ctx.flags.eq = r.u8();
    ctx.flags.lt = r.u8();
    ctx.flags.ult = r.u8();
    ctx.pc.funcId = r.u32();
    ctx.pc.instrIdx = r.u32();
    ctx.tlsBase = r.u64();
    ctx.isa = static_cast<IsaId>(r.u8());
    ctx.instrs = r.u64();
    ctx.cycles = r.u64();
    ctx.dsmExtraCycles = r.u64();
    return ctx;
}

} // namespace

std::vector<uint8_t>
ReplicatedOS::checkpoint() const
{
    XISA_CHECK(loaded_, "checkpoint of an unloaded container");
    ByteWriter w;
    w.u32(kCkptMagic);
    w.u32(kCkptVersion);
    // Fingerprint: the restoring container must run the same program
    // on the same pool.
    w.str(bin_.name);
    w.u32(static_cast<uint32_t>(bin_.ir.functions.size()));
    w.u32(static_cast<uint32_t>(nodes_.size()));
    for (const NodeRuntime &nr : nodes_) {
        w.u8(static_cast<uint8_t>(nr.spec.isa));
        w.u32(static_cast<uint32_t>(nr.cores.size()));
    }

    // Threads.
    w.u32(static_cast<uint32_t>(threads_.size()));
    for (const auto &tp : threads_) {
        const OsThread &t = *tp;
        w.u32(static_cast<uint32_t>(t.tid));
        writeContext(w, t.ctx);
        w.u8(static_cast<uint8_t>(t.state));
        w.u32(static_cast<uint32_t>(t.node));
        w.u32(static_cast<uint32_t>(t.core));
        w.u32(t.stackSlot);
        w.u8(static_cast<uint8_t>(t.kcont.kind));
        w.u32(static_cast<uint32_t>(t.kcont.joinTid));
        w.i64(t.kcont.barrierKey);
        w.u8(static_cast<uint8_t>(t.kcont.isa));
        w.u32(static_cast<uint32_t>(t.kcont.node));
        w.u32(t.kcont.pendingBuiltin);
        w.u64(t.exitValue);
        w.u32(static_cast<uint32_t>(t.migrationTarget + 1));
        w.f64(t.migrationRequestTime);
    }

    // Core clocks (cache state is deliberately not captured).
    for (const NodeRuntime &nr : nodes_) {
        for (const Core &c : nr.cores) {
            w.u64(c.cycles);
            w.u64(c.instrs);
            w.u64(c.busyCycles);
        }
    }

    // Kernel services.
    w.u64(heapBrk_);
    w.u32(static_cast<uint32_t>(allocSizes_.size()));
    for (const auto &[addr, size] : allocSizes_) {
        w.u64(addr);
        w.u64(size);
    }
    w.u32(static_cast<uint32_t>(freeLists_.size()));
    for (const auto &[size, addrs] : freeLists_) {
        w.u64(size);
        w.list(addrs, [&](uint64_t a) { w.u64(a); });
    }
    w.u32(static_cast<uint32_t>(barriers_.size()));
    for (const auto &[key, b] : barriers_) {
        w.i64(key);
        w.i64(b.needed);
        w.list(b.waiting, [&](int tid) {
            w.u32(static_cast<uint32_t>(tid));
        });
    }
    w.u32(static_cast<uint32_t>(output_.size()));
    for (const std::string &s : output_)
        w.str(s);
    w.u64(totalInstrs_);
    w.u32(nextStackSlot_);
    w.u8(exited_);
    w.i64(exitCode_);

    // Memory (all pages on every kernel, protocol state included).
    dsm_->saveState(w);

    // Stats: every counter and gauge by name. Histograms restart empty,
    // as the caches restart cold.
    std::vector<std::pair<std::string, const obs::Stat *>> carried;
    for (const auto &entry : stats_.snapshot()) {
        const obs::Stat *st = stats_.find(entry.first);
        if (st->kind() != obs::StatKind::Histogram)
            carried.emplace_back(entry.first, st);
    }
    w.u32(static_cast<uint32_t>(carried.size()));
    for (const auto &[name, st] : carried) {
        w.str(name);
        w.u8(static_cast<uint8_t>(st->kind()));
        if (st->kind() == obs::StatKind::Counter)
            w.u64(static_cast<const obs::Counter *>(st)->value());
        else
            w.f64(static_cast<const obs::Gauge *>(st)->value());
    }
    return std::move(w.out);
}

void
ReplicatedOS::restore(const std::vector<uint8_t> &bytes)
{
    XISA_CHECK(!loaded_, "restore into an already-loaded container");
    ByteReader r(bytes);
    if (r.u32() != kCkptMagic)
        fatal("not a container checkpoint (bad magic)");
    if (uint32_t v = r.u32(); v != kCkptVersion)
        fatal("unsupported checkpoint version %u", v);
    if (r.str() != bin_.name)
        fatal("checkpoint is for a different binary");
    if (r.u32() != bin_.ir.functions.size())
        fatal("checkpoint binary shape mismatch");
    if (r.u32() != nodes_.size())
        fatal("checkpoint node count mismatch");
    for (const NodeRuntime &nr : nodes_) {
        if (static_cast<IsaId>(r.u8()) != nr.spec.isa)
            fatal("checkpoint node ISA mismatch");
        if (r.u32() != nr.cores.size())
            fatal("checkpoint core count mismatch");
    }

    uint32_t numThreads = r.u32();
    threads_.clear();
    for (uint32_t i = 0; i < numThreads; ++i) {
        auto tp = std::make_unique<OsThread>();
        OsThread &t = *tp;
        t.tid = static_cast<int>(r.u32());
        t.ctx = readContext(r);
        t.state = static_cast<ThreadState>(r.u8());
        t.node = static_cast<int>(r.u32());
        t.core = static_cast<int>(r.u32());
        t.stackSlot = r.u32();
        t.kcont.kind = static_cast<KernelContinuation::Kind>(r.u8());
        t.kcont.joinTid = static_cast<int>(r.u32());
        t.kcont.barrierKey = r.i64();
        t.kcont.isa = static_cast<IsaId>(r.u8());
        t.kcont.node = static_cast<int>(r.u32());
        t.kcont.pendingBuiltin = r.u32();
        t.exitValue = r.u64();
        t.migrationTarget = static_cast<int>(r.u32()) - 1;
        t.migrationRequestTime = r.f64();
        threads_.push_back(std::move(tp));
    }

    for (NodeRuntime &nr : nodes_) {
        for (Core &c : nr.cores) {
            c.cycles = r.u64();
            c.instrs = r.u64();
            c.busyCycles = r.u64();
        }
    }

    heapBrk_ = r.u64();
    allocSizes_.clear();
    for (uint32_t i = 0, n = r.u32(); i < n; ++i) {
        uint64_t addr = r.u64();
        allocSizes_[addr] = r.u64();
    }
    freeLists_.clear();
    for (uint32_t i = 0, n = r.u32(); i < n; ++i) {
        uint64_t size = r.u64();
        freeLists_[size] =
            r.list<uint64_t>([&] { return r.u64(); });
    }
    barriers_.clear();
    for (uint32_t i = 0, n = r.u32(); i < n; ++i) {
        int64_t key = r.i64();
        Barrier b;
        b.needed = r.i64();
        b.waiting = r.list<int>(
            [&] { return static_cast<int>(r.u32()); });
        barriers_[key] = std::move(b);
    }
    output_.clear();
    for (uint32_t i = 0, n = r.u32(); i < n; ++i)
        output_.push_back(r.str());
    totalInstrs_ = r.u64();
    nextStackSlot_ = r.u32();
    exited_ = r.u8();
    exitCode_ = r.i64();

    dsm_->loadState(r);

    // Stats the restoring container does not register (say, fault
    // counters of a config it does not enable) are dropped.
    for (uint32_t i = 0, n = r.u32(); i < n; ++i) {
        const std::string name = r.str();
        const auto kind = static_cast<obs::StatKind>(r.u8());
        if (kind == obs::StatKind::Counter) {
            const uint64_t v = r.u64();
            if (obs::Counter *c = stats_.findCounter(name)) {
                c->reset();
                c->add(v);
            }
        } else if (kind == obs::StatKind::Gauge) {
            const double v = r.f64();
            obs::Stat *st = stats_.find(name);
            if (st && st->kind() == obs::StatKind::Gauge)
                static_cast<obs::Gauge *>(st)->set(v);
        } else {
            fatal("checkpoint stat '%s' has unknown kind %u",
                  name.c_str(), static_cast<unsigned>(kind));
        }
    }
    if (!r.done())
        fatal("trailing garbage after checkpoint payload");
    loaded_ = true;
    // Checkpoints predate the crash-tolerance snapshots: a restored
    // thread is committed as-restored.
    if (fd_)
        for (auto &tp : threads_)
            commitThread(*tp);
    if (auditor_)
        auditor_->deepCheck("restore");
}

} // namespace xisa
