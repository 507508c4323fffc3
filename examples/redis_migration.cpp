/**
 * @file
 * Migrating a stateful service: the Redis-like workload.
 *
 * The paper motivates native-code migration with exactly this class of
 * application ("many applications are written in lower-level languages
 * like C for efficiency reasons (e.g., Redis)"). This example runs the
 * hash-table service on the x86 server, consolidates it onto the ARM
 * server mid-stream (as a datacenter operator would during a low-load
 * period), and shows that the service's state -- the full key-value
 * table in the heap/global segment -- needs no serialization at all:
 * the table pages follow the service on demand through hDSM.
 */

#include <cstdio>

#include "compiler/compile.hh"
#include "os/os.hh"
#include "workload/workloads.hh"

using namespace xisa;

int
main()
{
    Module mod = buildWorkload(WorkloadId::REDIS, ProblemClass::B, 1);
    MultiIsaBinary bin = compileModule(std::move(mod));

    auto run = [&](bool consolidate) {
        ReplicatedOS os(bin, OsConfig::dualServer());
        os.load(0);
        bool asked = false;
        os.onQuantum = [&](ReplicatedOS &self) {
            if (consolidate && !asked &&
                self.totalInstrs() > 800000) {
                self.migrateProcess(1);
                asked = true;
            }
        };
        OsRunResult res = os.run();
        std::printf("%-24s hits=%s acc=%s sets=%s  %.4f s, node %d, "
                    "%zu migrations, %llu pages pulled\n",
                    consolidate ? "with consolidation:"
                                : "baseline (stay on x86):",
                    res.output.at(0).c_str(), res.output.at(1).c_str(),
                    res.output.at(2).c_str(), res.makespanSeconds,
                    os.threadNode(0), os.migrations().size(),
                    (unsigned long long)os.statRegistry().counterValue(
                        "dsm.page_transfers"));
        return res.output;
    };

    std::printf("redis-like service, %s:\n\n",
                "16k-slot table, GET/SET stream");
    auto baseline = run(false);
    auto migrated = run(true);
    std::printf("\nservice state identical after migration: %s\n",
                baseline == migrated ? "YES" : "NO (bug!)");
    return 0;
}
