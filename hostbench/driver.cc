/**
 * @file
 * In-process driver of the host-time benchmark (see README.md here).
 *
 * Runs one generated conf through the public calls the xisa_exp runner
 * (src/exp/runner.cc) makes, in the runner's order, and reports on one
 * JSON line of stdout:
 *   - host phase times: `setup_s` (process start to the first simulated
 *     event) and `sim_s` (the simulate calls), with the simulated work
 *     those calls did (`work`: guest instructions, ClusterSim events or
 *     replayed requests);
 *   - the result rows formatted exactly as xisa_exp prints them, which
 *     the benchmark matches against xisa_exp's stdout (drift check);
 *   - the build and environment the numbers were taken under.
 *
 * The migrate workload has no conf kind: the driver builds the conf's
 * REDIS workload and pushes the process to the other ISA on a seeded
 * schedule of about one request per quantum, then also reports the
 * guest output and the container's simulated stat snapshot.
 *
 * With --spans FILE every layer call gets a span (name, layer, start,
 * end, parent, thread); spans stay in memory and are written at exit.
 * Untraced runs take only the few clock reads the phase times need.
 *
 *   hostbench_driver --workload W --conf FILE --seed N --op K
 *                    [--spans FILE]
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "compiler/compile.hh"
#include "exp/registry.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "exp/sweep.hh"
#include "machine/interp_threaded.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sched/cluster.hh"
#include "sched/jobsets.hh"
#include "sched/profile.hh"
#include "traffic/traffic.hh"
#include "util/rng.hh"
#include "util/stats.hh"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

using namespace xisa;
using namespace xisa::exp;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

/** Host seconds since the driver started. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - kStart).count();
}

// --- spans ------------------------------------------------------------

struct Span {
    const char *name = nullptr;
    const char *layer = nullptr;
    double start = 0;
    double end = 0;
    int parent = -1;
    int thread = 0;
};

/** All spans of the run; appended from sweep workers too. */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on) {}

    bool on() const { return on_; }

    int
    open(const char *name, const char *layer, int parent, int thread)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, layer, now(), 0, parent, thread});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        const double t = now();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<size_t>(id)].end = t;
    }

    /** Call once every worker has joined. */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool on_;
    std::mutex mu_;
    std::vector<Span> spans_;
};

SpanLog *gSpans = nullptr;
std::atomic<int> gNextThread{0};
thread_local int tThread = gNextThread.fetch_add(1);
thread_local int tOpen = -1; ///< innermost open span on this thread

/** span()'s default parent: the innermost span open on this thread. */
constexpr int kInnermost = -2;

/**
 * Run fn() inside a span. Sweep workers run on threads of their own,
 * so they pass the sweep's span as `parent` explicitly.
 */
template <typename Fn>
auto
span(const char *name, const char *layer, Fn &&fn, int parent = kInnermost)
    -> decltype(fn())
{
    if (!gSpans->on())
        return fn();
    const int id = gSpans->open(
        name, layer, parent == kInnermost ? tOpen : parent, tThread);
    struct Close {
        int id, saved;
        ~Close()
        {
            gSpans->close(id);
            tOpen = saved;
        }
    } close{id, tOpen};
    tOpen = id;
    return fn();
}

// --- result -----------------------------------------------------------

/** Host phase times plus the simulated facts the benchmark checks. */
struct Result {
    double setup = -1; ///< set at the first simulated event
    double sim = 0;
    double work = 0;
    const char *workUnit = "";
    std::vector<std::string> rows;
    // migrate only
    std::vector<std::string> output;
    std::map<std::string, double> stats;
    double transformHostSeconds = 0;
    bool finished = true;

    void
    markSetupDone()
    {
        if (setup < 0)
            setup = now();
    }
};

template <typename... Args>
std::string
format(const char *fmt, Args... args)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, fmt, args...);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += format("\\u%04x", c);
        } else {
            out += c;
        }
    }
    return out + "\"";
}

// --- kind = overhead: the sweep workload --------------------------------

void
runOverhead(const ExperimentSpec &spec, Result &res)
{
    WorkloadRegistry reg = makeRegistry(spec);
    const std::vector<ProblemClass> &classes = spec.activeClasses(false);
    const std::vector<int> &threads = spec.activeThreads(false);

    struct Cell {
        const WorkloadProvider *provider;
        ParameterSet params;
        NodeSpec node;
        ProblemClass cls;
        int nthreads;
        size_t ref;
    };
    struct CellResult {
        double tBase = 0;
        double tInst = 0;
        uint64_t instrs = 0;
        double hostSeconds = 0;
    };

    std::vector<WorkloadRegistry::Resolved> resolved;
    for (const std::string &ref : spec.workloads)
        resolved.push_back(reg.resolve(ref));
    std::vector<NodeSpec> nodeSpecs;
    for (const std::string &isa : spec.isas)
        nodeSpecs.push_back(spec.cluster.makeNode(isa));

    std::vector<Cell> cells;
    for (size_t ri = 0; ri < resolved.size(); ++ri)
        for (const NodeSpec &node : nodeSpecs)
            for (ProblemClass cls : classes)
                for (int t : threads)
                    cells.push_back({resolved[ri].provider,
                                     resolved[ri].params, node, cls, t,
                                     ri});

    struct Compiled {
        MultiIsaBinary base;
        MultiIsaBinary inst;
        std::shared_ptr<ExecCache> baseCache =
            std::make_shared<ExecCache>();
        std::shared_ptr<ExecCache> instCache =
            std::make_shared<ExecCache>();
    };
    std::vector<std::unique_ptr<Compiled>> compiled;
    std::vector<size_t> cellBin(cells.size());
    std::map<std::tuple<size_t, int, int>, size_t> seen;
    for (size_t k = 0; k < cells.size(); ++k) {
        const Cell &c = cells[k];
        auto key = std::make_tuple(c.ref, static_cast<int>(c.cls),
                                   c.nthreads);
        auto [it, fresh] = seen.emplace(key, compiled.size());
        if (fresh) {
            ParameterSet params = c.params;
            params.set("class", className(c.cls));
            params.set("nthreads", std::to_string(c.nthreads));
            Module mod = span("makeWorkload", "workload", [&] {
                return c.provider->makeWorkload(params);
            });
            CompileOptions plain;
            plain.boundaryMigPoints = false;
            auto cc = std::make_unique<Compiled>();
            cc->base = span("compileModule", "compiler",
                            [&] { return compileModule(mod, plain); });
            cc->inst = span("compileModule", "compiler",
                            [&] { return compileModule(mod); });
            compiled.push_back(std::move(cc));
        }
        cellBin[k] = it->second;
    }

    res.markSetupDone();
    const double t0 = now();
    std::vector<CellResult> results =
        span("runSweep", "exp.sweep", [&] {
            const int sweepSpan = tOpen;
            return runSweep(cells.size(), [&](size_t i) {
                return span(
                    "runSingleNode", "os.run",
                    [&] {
                        const Cell &c = cells[i];
                        const Compiled &bin = *compiled[cellBin[i]];
                        CellResult r;
                        OsRunResult rb = runSingleNode(
                            bin.base, c.node, bin.baseCache);
                        OsRunResult ri = runSingleNode(
                            bin.inst, c.node, bin.instCache);
                        r.tBase = rb.makespanSeconds;
                        r.tInst = ri.makespanSeconds;
                        r.instrs = rb.totalInstrs + ri.totalInstrs;
                        return r;
                    },
                    sweepSpan);
            });
        });
    res.sim += now() - t0;

    res.workUnit = "instrs";
    for (size_t k = 0; k < cells.size(); ++k) {
        const CellResult &r = results[k];
        res.work += static_cast<double>(r.instrs);
        res.rows.push_back(format("%-6s %-7d %14.6f %14.6f %8.2f%%",
                                  className(cells[k].cls),
                                  cells[k].nthreads, r.tBase, r.tInst,
                                  (r.tInst / r.tBase - 1.0) * 100.0));
    }
}

// --- kind = rack: the fleet workload ------------------------------------

void
runRack(const ExperimentSpec &spec, Result &res)
{
    JobProfileTable table = span("JobProfileTable::calibrate",
                                 "sched.calibrate",
                                 [] { return JobProfileTable::calibrate(); });
    const ClusterSpec &cl = spec.cluster;
    const int numSets = spec.activeSets(false);

    double baseEnergy = 0, baseEdp = 0;
    res.workUnit = "events";
    for (const PoolSpec &pool : cl.pools) {
        RunningStat energy, makespan, edp, migr;
        for (int set = 0; set < numSets; ++set) {
            auto jobs = span("makePeriodicSet", "sched.jobset", [&] {
                return makePeriodicSet(
                    spec.seedBase + static_cast<uint64_t>(set),
                    spec.waves,
                    spec.jobsPerWavePerMachine * spec.poolMachines);
            });
            auto sim = span("ClusterSim::ClusterSim", "sched.jobset", [&] {
                return std::make_unique<ClusterSim>(
                    cl.makePool(pool), table, cl.simConfig());
            });
            res.markSetupDone();
            const double t0 = now();
            ClusterResult r = span("ClusterSim::run", "sched.run", [&] {
                return sim->run(jobs, pool.policy);
            });
            res.sim += now() - t0;
            energy.add(r.totalEnergy);
            makespan.add(r.makespan);
            edp.add(r.edp);
            migr.add(r.migrations);
            res.work += static_cast<double>(sim->eventsProcessed());
        }
        if (pool.baseline) {
            baseEnergy = energy.mean();
            baseEdp = edp.mean();
        }
        double de = baseEnergy > 0
                        ? (1.0 - energy.mean() / baseEnergy) * 100
                        : 0;
        double dedp =
            baseEdp > 0 ? (1.0 - edp.mean() / baseEdp) * 100 : 0;
        res.rows.push_back(format(
            "%-22s %14.1f %14.1f %9.1f%% %9.1f%% %8.0f",
            pool.label.c_str(), energy.mean() / 1e3, makespan.mean(), de,
            dedp, migr.mean()));
    }
}

// --- kind = serving: the serving workload -------------------------------

void
runServing(const ExperimentSpec &spec, Result &res)
{
    const TrafficSpec &t = spec.traffic;
    const double duration = t.activeDuration(false);

    traffic::TrafficConfig tc;
    tc.seed = t.seed;
    tc.clients = t.clients;
    tc.requestHz = t.requestHz;
    tc.durationSeconds = duration;
    tc.zipfSkew = t.zipfSkew;
    tc.keySpace = t.keySpace;
    tc.getFraction = t.getFraction;
    tc.shards = t.shards;

    traffic::ServingProfile prof =
        span("ServingProfile::calibrate", "traffic.calibrate",
             [] { return traffic::ServingProfile::calibrate(); });
    std::vector<traffic::Request> reqs =
        span("generateRequests", "traffic.generate",
             [&] { return traffic::generateRequests(tc); });

    traffic::ServingConfig base;
    for (const std::string &ref : spec.singleMachineRefs)
        base.nodes.push_back(spec.cluster.makeNode(ref));
    base.placement = t.placement;
    base.sloUs = t.sloUs;
    for (const CrashSpec &cs : spec.cluster.crashPlan)
        base.crashes.push_back({cs.machine, cs.time * duration,
                                spec.cluster.crashDownSeconds});
    applyFailures(spec, duration, base);

    std::vector<std::pair<const char *, traffic::ServingConfig>> scenarios;
    scenarios.emplace_back("static", base);
    if (!t.migratePlan.empty()) {
        traffic::ServingConfig cfg = base;
        for (const ShardMigrationSpec &m : t.migratePlan)
            cfg.migrations.push_back(
                {m.shard, m.time * duration, m.node});
        scenarios.emplace_back("migrate", cfg);
    }

    res.workUnit = "requests";
    obs::StatRegistry reg;
    for (const auto &[name, cfg] : scenarios) {
        traffic::ServingSim sim(cfg, prof, reg,
                                std::string("serving.") + name);
        res.markSetupDone();
        const double t0 = now();
        traffic::ServingResult r = span(
            "ServingSim::run", "traffic.serve", [&] { return sim.run(reqs); });
        res.sim += now() - t0;
        res.work += static_cast<double>(r.requests);
        res.rows.push_back(format(
            "%-8s %10llu %10.1f %10.1f %10.1f %10.1f %10llu %6.2f%% %5llu "
            "%6llu",
            name, static_cast<unsigned long long>(r.requests), r.p50Us,
            r.p99Us, r.p999Us, r.maxUs,
            static_cast<unsigned long long>(r.sloViolations),
            r.requests ? 100.0 * static_cast<double>(r.sloViolations) /
                             static_cast<double>(r.requests)
                       : 0.0,
            static_cast<unsigned long long>(r.migrations),
            static_cast<unsigned long long>(r.failovers)));
    }
}

// --- migrate: a REDIS process pushed across ISAs ------------------------

/** Share of quanta after which the process is asked to move. */
constexpr double kMoveChance = 0.875;

void
runMigrate(const ExperimentSpec &spec, uint64_t seed, Result &res)
{
    WorkloadRegistry reg = makeRegistry(spec);
    WorkloadRegistry::Resolved resolved = reg.resolve(spec.workloadRef);
    Module mod = span("makeWorkload", "workload", [&] {
        return resolved.provider->makeWorkload(resolved.params);
    });
    MultiIsaBinary bin = span("compileModule", "compiler",
                              [&] { return compileModule(mod); });

    OsConfig cfg = OsConfig::dualServer();
    cfg.quantum = spec.quantum;
    cfg.dsmMode = DsmMode::MigratePages;
    ReplicatedOS os(bin, cfg);
    os.load(spec.startNode);
    Rng rng(seed);
    os.onQuantum = [&rng](ReplicatedOS &self) {
        if (!self.finished() && rng.uniform() < kMoveChance)
            self.migrateProcess(1 - self.threadNode(0));
    };

    res.markSetupDone();
    const double t0 = now();
    OsRunResult r = span("ReplicatedOS::run", "os.migrate",
                         [&] { return os.run(); });
    res.sim += now() - t0;

    res.workUnit = "instrs";
    res.work = static_cast<double>(r.totalInstrs);
    res.finished = r.finished;
    res.output = r.output;
    res.rows.push_back(format(
        "finished=%s exit=%lld instrs=%llu makespan=%.9f s",
        r.finished ? "yes" : "no", static_cast<long long>(r.exitCode),
        static_cast<unsigned long long>(r.totalInstrs), r.makespanSeconds));
    obs::StatRegistry &stats = os.statRegistry();
    res.stats = stats.snapshot();
    // Host time is measured, not simulated: keep it out of the
    // snapshot the benchmark compares against its reference.
    res.stats.erase("stacktransform.host_us");
    if (auto *h = dynamic_cast<obs::Histogram *>(
            stats.find("stacktransform.host_us")))
        res.transformHostSeconds = h->sum() * 1e-6;
}

// --- output -------------------------------------------------------------

void
writeSpans(const std::string &path, int op, double wall)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "hostbench_driver: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\"op\": %d, \"wall_s\": %.9f, \"threads\": %d, "
                    "\"spans\": [",
                 op, wall, sweepThreads());
    const std::vector<Span> &spans = gSpans->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n {\"id\": %zu, \"name\": \"%s\", \"layer\": "
                     "\"%s\", \"start\": %.9f, \"end\": %.9f, "
                     "\"parent\": %d, \"thread\": %d, \"op\": %d}",
                     i ? "," : "", i, s.name, s.layer, s.start, s.end,
                     s.parent, s.thread, op);
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) {
        std::fprintf(stderr, "hostbench_driver: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
}

void
printResult(const std::string &workload, int op, const Result &res)
{
    std::string out = "{\"workload\": " + jsonString(workload);
    out += format(", \"op\": %d, \"setup_s\": %.9f, \"sim_s\": %.9f, "
                  "\"work\": %.17g, \"work_unit\": \"%s\"",
                  op, res.setup, res.sim, res.work, res.workUnit);
    const char *quick = std::getenv("XISA_QUICK");
    out += format(", \"env\": {\"threads\": %d, \"build_type\": \"%s\", "
                  "\"xisa_trace\": %d, \"tracer_armed\": %s, "
                  "\"xisa_quick\": %s}",
                  sweepThreads(), HOSTBENCH_BUILD_TYPE, XISA_TRACE,
                  obs::traceEnabled() ? "true" : "false",
                  quick ? jsonString(quick).c_str() : "null");
    out += ", \"rows\": [";
    for (size_t i = 0; i < res.rows.size(); ++i)
        out += (i ? ", " : "") + jsonString(res.rows[i]);
    out += "], \"output\": [";
    for (size_t i = 0; i < res.output.size(); ++i)
        out += (i ? ", " : "") + jsonString(res.output[i]);
    out += "], \"stats\": {";
    bool first = true;
    for (const auto &[name, value] : res.stats) {
        out += (first ? "" : ", ") + jsonString(name) +
               format(": %.17g", value);
        first = false;
    }
    out += format("}, \"transform_host_s\": %.9f, \"finished\": %s}",
                  res.transformHostSeconds,
                  res.finished ? "true" : "false");
    std::puts(out.c_str());
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload sweep|fleet|serving|migrate "
                 "--conf FILE --seed N --op K [--spans FILE]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, conf, spansPath;
    uint64_t seed = 0;
    int op = 0;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage(argv[0]);
        const std::string flag = argv[i];
        const char *val = argv[++i];
        if (flag == "--workload")
            workload = val;
        else if (flag == "--conf")
            conf = val;
        else if (flag == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (flag == "--op")
            op = std::atoi(val);
        else if (flag == "--spans")
            spansPath = val;
        else
            usage(argv[0]);
    }
    if (workload.empty() || conf.empty())
        usage(argv[0]);

    SpanLog spans(!spansPath.empty());
    gSpans = &spans;
    Result res;
    try {
        ExperimentSpec spec = span("parseExperimentFile", "exp.parse",
                                   [&] { return parseExperimentFile(conf); });
        const bool kindMatches =
            workload == "sweep"     ? spec.kind == ExperimentKind::Overhead
            : workload == "fleet"   ? spec.kind == ExperimentKind::Rack
            : workload == "serving" ? spec.kind == ExperimentKind::Serving
            : workload == "migrate" ? spec.kind == ExperimentKind::Single
                                    : false;
        if (!kindMatches) {
            std::fprintf(stderr, "hostbench_driver: %s does not hold a "
                                 "%s workload\n",
                         conf.c_str(), workload.c_str());
            return 2;
        }
        if (workload == "sweep")
            runOverhead(spec, res);
        else if (workload == "fleet")
            runRack(spec, res);
        else if (workload == "serving")
            runServing(spec, res);
        else
            runMigrate(spec, seed, res);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench_driver: %s\n", e.what());
        return 1;
    }
    if (spans.on())
        writeSpans(spansPath, op, now());
    printResult(workload, op, res);
    return res.finished ? 0 : 1;
}
