#include "exp/options.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "obs/trace.hh"

namespace xisa::exp {

namespace {

[[noreturn]] void
usageExit(const char *prog, unsigned features, const char *extraUsage,
          const std::string &offender)
{
    if (!offender.empty())
        std::fprintf(stderr, "unknown argument: %s\n", offender.c_str());
    std::fprintf(stderr, "usage: %s [options]\n", prog);
    if (features & kOptQuick)
        std::fprintf(stderr,
                     "  --quick              reduced sweep "
                     "(XISA_QUICK=1)\n");
    if (features & kOptObs)
        std::fprintf(stderr,
                     "  --stats              dump the stat registry\n"
                     "  --stats-json FILE    write the stat registry as "
                     "JSON\n"
                     "  --trace-out FILE     write a Chrome trace of "
                     "the run\n");
    if (features & kOptPerfJson)
        std::fprintf(stderr,
                     "  --json FILE          perf-smoke row JSON\n"
                     "  --sweep-json FILE    per-cell host-time JSON\n");
    if (features & kOptFault)
        std::fprintf(stderr,
                     "  --fault-drop P       single drop probability\n"
                     "  --fault-seed S       fault/crash plan seed\n"
                     "  --fault-partition P,L  every P messages, L "
                     "sends fail fast\n"
                     "  --fault-crashes N    machine crashes per run\n"
                     "  --fault-down SEC     crash downtime, seconds\n"
                     "  --fault-crash=M@T    crash machine M at T s "
                     "(repeatable)\n");
    if (features & kOptSpecTools)
        std::fprintf(stderr,
                     "  --print-spec         parse, print the "
                     "canonical spec, exit\n"
                     "  --list-workloads     list registered "
                     "workloads, exit\n");
    if (extraUsage)
        std::fprintf(stderr, "%s", extraUsage);
    std::exit(2);
}

CrashEvent
parseCrashAt(const std::string &v, const char *flag)
{
    size_t at = v.find('@');
    if (at == std::string::npos) {
        std::fprintf(stderr, "%s wants MACHINE@SECONDS, got '%s'\n",
                     flag, v.c_str());
        std::exit(2);
    }
    CrashEvent ev;
    try {
        ev.machine = std::stoi(v.substr(0, at));
        ev.time = std::stod(v.substr(at + 1));
    } catch (const std::exception &) {
        std::fprintf(stderr, "%s: malformed '%s'\n", flag, v.c_str());
        std::exit(2);
    }
    return ev;
}

} // namespace

Options
parseCommonArgs(int argc, char **argv, unsigned features,
                const char *extraUsage)
{
    Options o;
    const char *prog = argc > 0 ? argv[0] : "bench";

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) != 0) {
            o.positional.push_back(a);
            continue;
        }
        // Split --flag=value.
        std::string name = a;
        std::string inlineVal;
        bool hasInline = false;
        size_t eq = a.find('=');
        if (eq != std::string::npos) {
            name = a.substr(0, eq);
            inlineVal = a.substr(eq + 1);
            hasInline = true;
        }
        auto val = [&]() -> std::string {
            if (hasInline)
                return inlineVal;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             name.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        auto num = [&](auto parse) {
            std::string v = val();
            try {
                return parse(v);
            } catch (const std::exception &) {
                std::fprintf(stderr, "%s: malformed value '%s'\n",
                             name.c_str(), v.c_str());
                std::exit(2);
            }
        };

        if ((features & kOptQuick) && name == "--quick") {
            setenv("XISA_QUICK", "1", 1);
        } else if ((features & kOptObs) && name == "--stats") {
            o.dumpStats = true;
        } else if ((features & kOptObs) && name == "--stats-json") {
            o.statsJsonPath = val();
        } else if ((features & kOptObs) && name == "--trace-out") {
            o.traceOutPath = val();
        } else if ((features & kOptPerfJson) && name == "--json") {
            o.perfJsonPath = val();
        } else if ((features & kOptPerfJson) &&
                   name == "--sweep-json") {
            o.sweepJsonPath = val();
        } else if ((features & kOptFault) && name == "--fault-drop") {
            o.faultDrop =
                num([](const std::string &v) { return std::stod(v); });
        } else if ((features & kOptFault) && name == "--fault-seed") {
            o.faultSeed = num(
                [](const std::string &v) { return std::stoull(v); });
        } else if ((features & kOptFault) &&
                   name == "--fault-partition") {
            std::string v = val();
            size_t comma = v.find(',');
            if (comma == std::string::npos) {
                std::fprintf(stderr,
                             "--fault-partition wants PERIOD,LEN\n");
                std::exit(2);
            }
            try {
                o.faultPartitionPeriod =
                    std::stoull(v.substr(0, comma));
                o.faultPartitionLen = std::stoull(v.substr(comma + 1));
            } catch (const std::exception &) {
                std::fprintf(stderr,
                             "--fault-partition: malformed '%s'\n",
                             v.c_str());
                std::exit(2);
            }
        } else if ((features & kOptFault) &&
                   name == "--fault-crashes") {
            o.faultCrashes =
                num([](const std::string &v) { return std::stoi(v); });
        } else if ((features & kOptFault) && name == "--fault-down") {
            o.faultDownSeconds =
                num([](const std::string &v) { return std::stod(v); });
        } else if ((features & kOptFault) && name == "--fault-crash") {
            o.scriptedCrashes.push_back(
                parseCrashAt(val(), "--fault-crash"));
        } else if ((features & kOptSpecTools) &&
                   name == "--print-spec") {
            o.printSpec = true;
        } else if ((features & kOptSpecTools) &&
                   name == "--list-workloads") {
            o.listWorkloads = true;
        } else {
            usageExit(prog, features, extraUsage, a);
        }
    }

    // --fault-down applies to scripted crashes regardless of flag
    // order.
    for (CrashEvent &ev : o.scriptedCrashes)
        ev.downSeconds = o.faultDownSeconds;
    if (!o.traceOutPath.empty())
        obs::setTraceEnabled(true);
    return o;
}

void
writeOutputs(const Options &o, obs::StatRegistry &reg)
{
    if (o.dumpStats)
        reg.dump(std::cout);
    if (!o.statsJsonPath.empty()) {
        if (!writeFile(o.statsJsonPath,
                       [&](std::ostream &os) { reg.dumpJson(os); }))
            std::exit(1);
        std::printf("stats json: %s\n", o.statsJsonPath.c_str());
    }
    if (!o.traceOutPath.empty()) {
        const obs::Tracer &tracer = obs::Tracer::global();
        if (!writeFile(o.traceOutPath, [&](std::ostream &os) {
                tracer.exportChromeTrace(os);
            }))
            std::exit(1);
        std::printf("trace: %s (%zu events, %llu overwritten)\n",
                    o.traceOutPath.c_str(), tracer.size(),
                    static_cast<unsigned long long>(tracer.dropped()));
    }
}

bool
writeFile(const std::string &path,
          const std::function<void(std::ostream &)> &fill)
{
    std::ofstream f(path);
    if (f) {
        fill(f);
        f.close();
    }
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    return true;
}

} // namespace xisa::exp
