/**
 * @file
 * Figure 13: periodic workload scheduling study.
 *
 * Ten job sets of 5 arrival waves (up to 14 jobs each, spaced 60-240 s)
 * compared between the static x86(2) baseline and the dynamic balanced
 * policy on the heterogeneous pair (the paper omits dynamic unbalanced
 * here: it differs from balanced by <1%). Reported: total energy and
 * energy-delay product per set. Paper: avg -30% energy (up to -66% on
 * set-3), avg -11% EDP.
 */

#include "common.hh"
#include "sched/jobsets.hh"
#include "util/stats.hh"

using namespace xisa;
using namespace xisa::bench;

int
main(int argc, char **argv)
{
    Options opts = parseCommonArgs(argc, argv, kOptObs | kOptQuick);
    banner("Figure 13", "periodic workload: energy and EDP, static "
                        "x86(2) vs dynamic heterogeneous");
    JobProfileTable table = JobProfileTable::calibrate();
    ClusterSim staticX86(makeX86X86Pool(), table);
    ClusterSim dynamic(makeHeterogeneousPool(true, 1.0), table);

    const int numSets = quickMode() ? 3 : 10;
    std::printf("\n%-6s | %12s %12s %8s | %14s %14s %8s\n", "set",
                "E.static(kJ)", "E.dyn(kJ)", "dE", "EDP.static",
                "EDP.dyn", "dEDP");
    RunningStat dE, dEdp;
    for (int set = 0; set < numSets; ++set) {
        auto jobs = makePeriodicSet(2000 + set);
        ClusterResult s = staticX86.run(jobs, Policy::StaticBalanced);
        ClusterResult d = dynamic.run(jobs, Policy::DynamicBalanced);
        double de = (1.0 - d.totalEnergy / s.totalEnergy) * 100;
        double dedp = (1.0 - d.edp / s.edp) * 100;
        std::printf("set-%-2d | %12.1f %12.1f %7.1f%% | %14.3g %14.3g "
                    "%7.1f%%\n",
                    set, s.totalEnergy / 1e3, d.totalEnergy / 1e3, de,
                    s.edp, d.edp, dedp);
        dE.add(de);
        dEdp.add(dedp);
    }
    std::printf("\nAverages: energy reduction %.1f%% (max %.1f%%), EDP "
                "reduction %.1f%%\n",
                dE.mean(), dE.max(), dEdp.mean());
    std::printf("(Paper: avg 30%% energy reduction, up to 66%%; avg "
                "11%% EDP reduction.)\n");
    writeOutputs(opts, dynamic.statRegistry());
    return 0;
}
