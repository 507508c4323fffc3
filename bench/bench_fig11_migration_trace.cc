/**
 * @file
 * Figure 11: PadMig (Java serialization) vs multi-ISA binary migration.
 *
 * NPB IS (class B, serial) starts on the x86 server and is migrated to
 * the ARM server partway through (the paper moves full_verify()). Two
 * mechanisms are compared:
 *  - PadMig-style: the whole application state is reflected over,
 *    serialized to a neutral format, shipped, and de-serialized -- the
 *    application is paused the entire time;
 *  - native (CrossBound): the stack is transformed in under a
 *    millisecond, execution resumes immediately on ARM, and hDSM moves
 *    pages on demand (the short transfer burst after migration).
 *
 * Output: total execution time for both mechanisms and 100 Hz power and
 * load traces per machine, plus the hDSM page-burst statistics.
 */

#include "common.hh"
#include "serial/padmig.hh"

using namespace xisa;
using namespace xisa::bench;

namespace {

struct TraceResult {
    double binSeconds = 0.01;
    double totalSeconds = 0;
    double pauseSeconds = 0;       ///< application stopped for this long
    std::vector<double> power[2];  ///< per node
    std::vector<double> load[2];
    uint64_t pagesMoved = 0;       ///< hDSM transfers during the run
    uint64_t bytesMoved = 0;
};

TraceResult
runScenario(bool padmigStyle, const Options *obsOut = nullptr)
{
    Module mod = buildWorkload(WorkloadId::IS, ProblemClass::B, 1);
    MultiIsaBinary bin = compileModule(std::move(mod));
    OsConfig cfg = OsConfig::dualServer();
    cfg.energyBinSeconds = 2e-4; // finer grid: ms-scale kernels
    ReplicatedOS os(bin, cfg);
    os.load(0);
    if (obsOut)
        obs::Tracer::global().clear(); // trace this scenario only
    obs::ScopedStatEpoch epoch(os.statRegistry());

    TraceResult out;
    bool fired = false;
    os.onQuantum = [&](ReplicatedOS &self) {
        // Migrate at roughly 40% of the run (the paper migrates the
        // verification phase).
        if (fired || self.totalInstrs() < 2600000)
            return;
        fired = true;
        if (padmigStyle) {
            SerializingMigrator mig(&self.net());
            SerializeResult sr = mig.migrate(
                self.dsm(), 0, 1, captureState(bin, self),
                makeXenoServer(), makeAetherServer());
            out.pauseSeconds = sr.totalSeconds();
        }
        self.migrateProcess(1);
    };
    OsRunResult res = os.run();

    double nativePause = 0;
    for (const MigrationEvent &ev : os.migrations())
        nativePause += ev.resumeTime - ev.trapTime;
    if (!padmigStyle)
        out.pauseSeconds = nativePause;

    out.totalSeconds = res.makespanSeconds + out.pauseSeconds;
    double horizon = out.totalSeconds;
    for (int n = 0; n < 2; ++n) {
        double scale = 1.0;
        out.power[n] = os.energy().powerSeries(n, horizon, scale);
        size_t bins = out.power[n].size();
        for (size_t b = 0; b < bins; ++b)
            out.load[n].push_back(os.energy().utilization(n, b) * 100);
        out.binSeconds = os.energy().binSeconds();
    }
    out.pagesMoved =
        static_cast<uint64_t>(epoch.delta("dsm.page_transfers"));
    out.bytesMoved =
        static_cast<uint64_t>(epoch.delta("dsm.bytes_transferred"));
    if (obsOut)
        writeOutputs(*obsOut, os.statRegistry());
    return out;
}

void
printTrace(const char *name, const TraceResult &tr)
{
    std::printf("\n-- %s --\n", name);
    std::printf("total execution time: %.3f s (application paused for "
                "%.4f s during migration)\n",
                tr.totalSeconds, tr.pauseSeconds);
    std::printf("hDSM after migration: %llu pages / %.1f MB moved on "
                "demand\n",
                static_cast<unsigned long long>(tr.pagesMoved),
                static_cast<double>(tr.bytesMoved) / 1e6);
    std::printf("%8s %10s %9s %10s %9s\n", "t(ms)", "x86P(W)",
                "x86L(%)", "armP(W)", "armL(%)");
    size_t bins = std::max(tr.power[0].size(), tr.power[1].size());
    size_t step = std::max<size_t>(1, bins / 24);
    for (size_t b = 0; b < bins; b += step) {
        auto at = [&](const std::vector<double> &v) {
            return b < v.size() ? v[b] : v.empty() ? 0 : v.back();
        };
        std::printf("%8.2f %10.1f %9.1f %10.1f %9.1f\n",
                    b * tr.binSeconds * 1e3, at(tr.power[0]),
                    at(tr.load[0]), at(tr.power[1]), at(tr.load[1]));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options obsOpts = parseCommonArgs(argc, argv, kOptObs);
    banner("Figure 11", "PadMig (serialization) vs multi-ISA binary "
                        "migration, NPB IS B serial");
    TraceResult padmig = runScenario(true);
    TraceResult native = runScenario(false, &obsOpts);
    printTrace("PadMig-style serialization migration", padmig);
    printTrace("CrossBound native migration", native);
    std::printf("\nSummary: serialization pauses the application %.0fx "
                "longer than stack\ntransformation (%.4f s vs %.6f s); "
                "total time %.3f s vs %.3f s.\n",
                padmig.pauseSeconds / std::max(1e-9,
                                               native.pauseSeconds),
                padmig.pauseSeconds, native.pauseSeconds,
                padmig.totalSeconds, native.totalSeconds);
    return 0;
}
