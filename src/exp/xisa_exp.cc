/**
 * @file
 * The config-driven experiment runner: every experiment with a
 * checked-in `.conf` -- Figs. 6-9, Fig. 12, the rack-scale projection,
 * SLO serving, and new ones -- runs through this one driver:
 *
 *     xisa_exp examples/confs/fig12_sustained.conf
 *     xisa_exp --print-spec FILE     # canonical spec, defaults shown
 *     xisa_exp --list-workloads      # registry contents
 *
 * The quick-mode reports of the paper's confs are pinned byte-for-byte
 * by the golden guards in tests/goldens/.
 */

#include <cstdio>

#include "exp/runner.hh"

using namespace xisa::exp;

int
main(int argc, char **argv)
{
    Options opts = parseCommonArgs(
        argc, argv,
        kOptObs | kOptQuick | kOptPerfJson | kOptSpecTools,
        "  FILE                 experiment .conf to run\n");

    try {
        if (opts.listWorkloads) {
            WorkloadRegistry &reg = WorkloadRegistry::global();
            for (const std::string &name : reg.names()) {
                const WorkloadProvider &p = reg.require(name);
                std::printf("%-8s %s", name.c_str(),
                            p.threadCapable() ? "threads=1..16"
                                              : "serial");
                std::printf("  [");
                bool first = true;
                for (const std::string &k : p.parameterNames()) {
                    std::printf("%s%s", first ? "" : ", ", k.c_str());
                    first = false;
                }
                std::printf("]\n");
            }
            return 0;
        }
        if (opts.positional.size() != 1) {
            std::fprintf(stderr,
                         "usage: %s [flags] FILE.conf "
                         "(try --help)\n",
                         argv[0]);
            return 2;
        }
        ExperimentSpec spec =
            parseExperimentFile(opts.positional[0]);
        if (opts.printSpec) {
            std::fputs(serializeSpec(spec).c_str(), stdout);
            return 0;
        }
        return runExperiment(spec, opts);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
