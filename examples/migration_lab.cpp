/**
 * @file
 * Migration lab: a guided dissection of one cross-ISA migration.
 *
 * Compiles a recursive program, shows how the SAME function is lowered
 * differently for each ISA (different instruction counts, encoded
 * sizes, frame sizes, and alloca placement -- the reason stack
 * transformation exists), then migrates it mid-recursion and dumps
 * exactly what the transformation runtime did.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "compiler/compile.hh"
#include "ir/builder.hh"
#include "obs/trace.hh"
#include "os/os.hh"

using namespace xisa;

namespace {

/** depth-`n` recursion with an alloca and live values in every frame. */
Module
buildProgram()
{
    ModuleBuilder mb("lab");
    FuncBuilder &down = mb.defineFunc("down", Type::I64, {Type::I64});
    {
        ValueId n = down.param(0);
        uint32_t slot = down.declareAlloca(24, 8, "frame_local");
        ValueId local = down.allocaAddr(slot);
        down.store(Type::I64, local, down.mulImm(n, 3));
        ValueId keep = down.addImm(down.mul(n, n), 11); // callee-saved
        ValueId stop = down.icmp(Cond::LE, n, down.constInt(0));
        uint32_t baseB = down.newBlock();
        uint32_t recB = down.newBlock();
        down.condBr(stop, baseB, recB);
        down.setBlock(baseB);
        down.ret(down.constInt(0));
        down.setBlock(recB);
        // Burn some cycles per frame so the migration lands mid-tree.
        down.forLoopI(0, 500, [&](ValueId i) {
            down.store(Type::I64, local,
                       down.add(down.load(Type::I64, local), i));
        });
        ValueId sub = down.call(mb.findFunc("down"),
                                {down.sub(n, down.constInt(1))});
        ValueId l = down.load(Type::I64, local);
        down.ret(down.add(down.add(l, sub), keep));
    }
    FuncBuilder &f = mb.defineFunc("main", Type::I64, {});
    ValueId r = f.call(mb.findFunc("down"), {f.constInt(25)});
    f.callVoid(mb.builtin(Builtin::PrintI64), {r});
    f.ret(f.constInt(0));
    return mb.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    // --trace-out FILE: arm the event tracer, write Chrome trace JSON.
    // --stats-json FILE: write the container's stat registry as JSON.
    const char *traceOut = nullptr;
    const char *statsJson = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--trace-out") && i + 1 < argc) {
            traceOut = argv[++i];
        } else if (!std::strcmp(argv[i], "--stats-json") &&
                   i + 1 < argc) {
            statsJson = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--trace-out FILE] "
                         "[--stats-json FILE]\n",
                         argv[0]);
            return 2;
        }
    }
    if (traceOut)
        obs::setTraceEnabled(true);

    MultiIsaBinary bin = compileModule(buildProgram());
    uint32_t downId = bin.ir.findFunc("down");

    std::printf("== the same function, two lowerings ==\n");
    for (int i = 0; i < kNumIsas; ++i) {
        IsaId isa = static_cast<IsaId>(i);
        const FuncImage &img = bin.image[i][downId];
        std::printf("\n'down' on %s: %zu instructions, %u bytes, frame "
                    "%u bytes, alloca at FP%+d,\n  %zu callee-saved GPR "
                    "save slots\n",
                    isaName(isa), img.code.size(), img.codeBytes(),
                    img.frame.frameSize, img.frame.allocaFpOff[0],
                    img.frame.savedGpr.size());
        std::printf("  first instructions:\n");
        for (size_t k = 0; k < 6 && k < img.code.size(); ++k)
            std::printf("    %04x: %s\n", img.instrOff[k],
                        disasm(img.code[k], isa).c_str());
    }

    std::printf("\n== run on ARM, migrate to x86 mid-recursion ==\n");
    OsConfig cfg = OsConfig::dualServer();
    cfg.quantum = 1000;
    ReplicatedOS os(bin, cfg);
    os.load(/*startNode=*/1);
    bool asked = false;
    os.onQuantum = [&](ReplicatedOS &self) {
        if (!asked && self.totalInstrs() > 60000) {
            self.migrateProcess(0);
            asked = true;
        }
    };
    OsRunResult res = os.run();
    std::printf("result: %s (exit %lld)\n", res.output.at(0).c_str(),
                (long long)res.exitCode);
    for (const MigrationEvent &ev : os.migrations()) {
        std::printf("\nmigration %s -> %s at call-site %u:\n",
                    isaName(static_cast<IsaId>(
                        ev.fromNode == 0 ? IsaId::Xeno64
                                         : IsaId::Aether64)),
                    ev.toNode == 0 ? "xeno64" : "aether64", ev.siteId);
        std::printf("  frames walked/rebuilt: %u\n",
                    ev.transform.frames);
        std::printf("  live values relocated: %u\n",
                    ev.transform.liveValues);
        std::printf("  stack pointers fixed up: %u\n",
                    ev.transform.pointersFixed);
        std::printf("  bytes rewritten: %llu\n",
                    (unsigned long long)ev.transform.bytesCopied);
        std::printf("  transformation wall clock (host): %.1f us\n",
                    ev.transform.hostSeconds * 1e6);
        std::printf("  response time (request -> resume): %.1f us "
                    "simulated\n",
                    (ev.resumeTime - ev.requestTime) * 1e6);
    }
    std::printf("\nhDSM moved %llu pages on demand after the "
                "migration.\n",
                (unsigned long long)os.statRegistry().counterValue(
                    "dsm.page_transfers"));

    if (statsJson) {
        std::ofstream f(statsJson);
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", statsJson);
            return 1;
        }
        os.statRegistry().dumpJson(f);
        std::printf("stats json: %s\n", statsJson);
    }
    if (traceOut) {
        std::ofstream f(traceOut);
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", traceOut);
            return 1;
        }
        obs::Tracer::global().exportChromeTrace(f);
        std::printf("trace: %s (%zu events)\n", traceOut,
                    obs::Tracer::global().size());
    }
    return 0;
}
