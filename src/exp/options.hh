/**
 * @file
 * The shared command-line parser of the experiment harnesses.
 *
 * Every bench used to grow its own ad-hoc flag loop (fig06 peeled
 * --json/--sweep-json before the obs flags, the fault bench re-parsed
 * the obs flags inline, fig12 took no flags at all). parseCommonArgs()
 * replaces them: one flag grammar, selected per binary by a feature
 * mask, with one usage/exit-2 path for anything the binary did not
 * enable.
 *
 * Flags by feature:
 *   kOptObs      --stats, --stats-json FILE, --trace-out FILE
 *   kOptQuick    --quick (same as XISA_QUICK=1)
 *   kOptPerfJson --json FILE, --sweep-json FILE
 *   kOptFault    --fault-drop P, --fault-seed S, --fault-partition P,L
 *                --fault-crashes N, --fault-down SEC, --fault-crash=M@T
 *
 * Both `--flag value` and `--flag=value` spellings are accepted.
 */

#ifndef XISA_EXP_OPTIONS_HH
#define XISA_EXP_OPTIONS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/registry.hh"
#include "sched/cluster.hh"

namespace xisa::exp {

enum : unsigned {
    kOptObs = 1u << 0,
    kOptQuick = 1u << 1,
    kOptPerfJson = 1u << 2,
    kOptFault = 1u << 3,
    /** xisa_exp's own tool flags: --print-spec, --list-workloads. */
    kOptSpecTools = 1u << 4,
};

/** Parsed common options; fields outside the enabled features keep
 *  their defaults. */
struct Options {
    // kOptObs
    bool dumpStats = false;
    std::string statsJsonPath;
    std::string traceOutPath;
    // kOptPerfJson
    std::string perfJsonPath;
    std::string sweepJsonPath;
    // kOptFault
    double faultDrop = -1; ///< <0 = sweep the default drop ladder
    uint64_t faultSeed = 1;
    uint64_t faultPartitionPeriod = 0;
    uint64_t faultPartitionLen = 0;
    int faultCrashes = 2;
    double faultDownSeconds = 30.0;
    std::vector<CrashEvent> scriptedCrashes;
    // kOptSpecTools
    bool printSpec = false;
    bool listWorkloads = false;
    /** Non-flag arguments, in order (the runner's conf path). */
    std::vector<std::string> positional;
};

/**
 * Parse argv under the feature mask. Unknown flags (and known flags of
 * disabled features) print usage to stderr and exit(2); malformed
 * values exit(2) with a diagnostic. When kOptObs is enabled and
 * --trace-out was given, the global tracer is armed. When kOptQuick is
 * enabled and --quick was given, XISA_QUICK=1 is exported so the
 * sweep helpers and any child observers agree on the mode.
 * `extraUsage` lines are appended to the usage text.
 */
Options parseCommonArgs(int argc, char **argv, unsigned features,
                        const char *extraUsage = nullptr);

/** Emit whatever outputs the obs flags requested from `reg` and the
 *  global tracer; call once at the end of the harness. Prints nothing
 *  when no flag was given, so golden stdout is unaffected. Exits 1 if
 *  an output cannot be written. */
void writeOutputs(const Options &o, obs::StatRegistry &reg);

/**
 * Create `path` and fill it through `fill`. Returns false, after
 * printing "cannot write PATH" to stderr, if the file cannot be opened
 * or any of it cannot be written -- a full disk often fails only at
 * the final flush, so the close is checked too.
 */
bool writeFile(const std::string &path,
               const std::function<void(std::ostream &)> &fill);

} // namespace xisa::exp

#endif // XISA_EXP_OPTIONS_HH
