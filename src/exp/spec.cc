#include "exp/spec.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "machine/node.hh"

namespace xisa::exp {

namespace {

/** Shortest decimal form that parses back to exactly `v`. */
std::string
fmtDouble(double v)
{
    char buf[64];
    for (int prec : {6, 12, 17}) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
fmtU64(uint64_t v)
{
    return std::to_string(static_cast<unsigned long long>(v));
}

std::string
joinList(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &s : items)
        out += (out.empty() ? "" : ", ") + s;
    return out;
}

[[noreturn]] void
specFail(const Config &conf, const std::string &msg)
{
    throw ConfigError(conf.name() + ": " + msg);
}

/** specFail naming the line of [section] `key` when the conf sets it. */
[[noreturn]] void
specFailAt(const Config &conf, const std::string &section,
           const std::string &key, const std::string &msg)
{
    const int line = conf.lineOf(section, key);
    if (line <= 0)
        specFail(conf, msg);
    throw ConfigError(conf.name() + ":" + std::to_string(line) + ": " +
                      msg);
}

/** "x86*8" -> ("x86", 8); bare names count 1. */
void
splitMachineRef(const std::string &ref, std::string *name, int *count,
                const std::string &context)
{
    size_t star = ref.find('*');
    if (star == std::string::npos) {
        *name = ref;
        *count = 1;
        return;
    }
    *name = ref.substr(0, star);
    while (!name->empty() && name->back() == ' ')
        name->pop_back();
    std::string n = ref.substr(star + 1);
    while (!n.empty() && n.front() == ' ')
        n.erase(n.begin());
    char *end = nullptr;
    long v = std::strtol(n.c_str(), &end, 10);
    if (!end || *end != '\0' || n.empty() || v < 1)
        throw ConfigError(context + ": bad machine count in '" + ref +
                          "' (want NAME or NAME*COUNT)");
    *count = static_cast<int>(v);
}

std::vector<ProblemClass>
parseClassList(const Config &conf, const std::string &key,
               const std::vector<ProblemClass> &def)
{
    if (!conf.has("", key))
        return def;
    std::vector<ProblemClass> out;
    for (const std::string &s : conf.getList("", key)) {
        ProblemClass cls;
        if (!parseProblemClass(s, &cls))
            specFail(conf, "key '" + key + "': bad problem class '" +
                               s + "' (want A, B, or C)");
        out.push_back(cls);
    }
    if (out.empty())
        specFail(conf, "key '" + key + "' must not be empty");
    return out;
}

std::vector<int>
parseThreadList(const Config &conf, const std::string &key,
                const std::vector<int> &def)
{
    if (!conf.has("", key))
        return def;
    std::vector<int> out;
    for (const std::string &s : conf.getList("", key)) {
        char *end = nullptr;
        long v = std::strtol(s.c_str(), &end, 10);
        if (!end || *end != '\0' || v < 1 || v > 16)
            specFail(conf, "key '" + key + "': bad thread count '" + s +
                               "' (want 1..16)");
        out.push_back(static_cast<int>(v));
    }
    if (out.empty())
        specFail(conf, "key '" + key + "' must not be empty");
    return out;
}

std::string
sectionSuffix(const std::string &section)
{
    size_t dot = section.find('.');
    return dot == std::string::npos ? section
                                    : section.substr(dot + 1);
}

/** Split a comma-separated reference list, trimming spaces. */
std::vector<std::string>
splitRefList(const std::string &raw)
{
    std::vector<std::string> refs;
    std::string cur;
    for (char ch : raw + ",") {
        if (ch == ',') {
            while (!cur.empty() && cur.front() == ' ')
                cur.erase(cur.begin());
            while (!cur.empty() && cur.back() == ' ')
                cur.pop_back();
            if (!cur.empty())
                refs.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(ch);
        }
    }
    return refs;
}

} // namespace

const char *
kindName(ExperimentKind k)
{
    switch (k) {
      case ExperimentKind::Overhead: return "overhead";
      case ExperimentKind::Sustained: return "sustained";
      case ExperimentKind::Rack: return "rack";
      case ExperimentKind::Single: return "single";
      case ExperimentKind::Serving: return "serving";
    }
    return "?";
}

Policy
parsePolicy(const std::string &s)
{
    if (s == "static-balanced")
        return Policy::StaticBalanced;
    if (s == "static-unbalanced")
        return Policy::StaticUnbalanced;
    if (s == "dynamic-balanced")
        return Policy::DynamicBalanced;
    if (s == "dynamic-unbalanced")
        return Policy::DynamicUnbalanced;
    throw ConfigError(
        "unknown policy '" + s +
        "' (want static-balanced, static-unbalanced, "
        "dynamic-balanced, or dynamic-unbalanced)");
}

// --- ClusterSpec ----------------------------------------------------

const MachineSpec *
ClusterSpec::findMachine(const std::string &name) const
{
    for (const MachineSpec &m : machines)
        if (m.name == name)
            return &m;
    return nullptr;
}

const NodeOverride *
ClusterSpec::findNode(const std::string &name) const
{
    for (const NodeOverride &n : nodes)
        if (n.name == name)
            return &n;
    return nullptr;
}

NodeSpec
ClusterSpec::makeNode(const std::string &ref) const
{
    if (ref == "xeno")
        return makeXenoServer();
    if (ref == "aether")
        return makeAetherServer();
    const NodeOverride *n = findNode(ref);
    if (!n)
        throw ConfigError("unknown node '" + ref +
                          "' (want xeno, aether, or a [node.*] name)");
    NodeSpec spec =
        n->base == "aether" ? makeAetherServer() : makeXenoServer();
    spec.name = n->name;
    if (n->cores > 0)
        spec.cores = n->cores;
    if (n->freqGHz > 0)
        spec.freqGHz = n->freqGHz;
    if (n->idleWatts > 0)
        spec.idleWatts = n->idleWatts;
    if (n->maxWatts > 0)
        spec.maxWatts = n->maxWatts;
    if (n->memPenaltyCycles > 0)
        spec.memPenaltyCycles =
            static_cast<uint32_t>(n->memPenaltyCycles);
    return spec;
}

std::vector<Machine>
ClusterSpec::makePool(const PoolSpec &pool) const
{
    std::vector<Machine> out;
    for (const std::string &ref : pool.machineRefs) {
        std::string name;
        int count = 0;
        splitMachineRef(ref, &name, &count, "pool '" + pool.name + "'");
        const MachineSpec *ms = findMachine(name);
        if (!ms)
            throw ConfigError("pool '" + pool.name +
                              "' references unknown machine '" + name +
                              "'");
        NodeSpec node = makeNode(ms->node);
        for (int i = 0; i < count; ++i)
            out.push_back({node, ms->powerScale, ms->loadWeight});
    }
    return out;
}

ClusterSim::Config
ClusterSpec::simConfig() const
{
    ClusterSim::Config c;
    c.rebalancePeriod = rebalancePeriod;
    c.migrationFixedSeconds = migrationFixedSeconds;
    c.workingSetBytesPerScale = workingSetMib * 1024.0 * 1024.0;
    c.sleepFraction = sleepFraction;
    c.checkpointPeriod = checkpointPeriod;
    c.net.latencyUs = latencyUs;
    c.net.gbitPerSec = gbitPerSec;
    if (hasFaults)
        c.net.faults = faults;
    for (const CrashSpec &cs : crashPlan) {
        CrashEvent ev;
        ev.machine = cs.machine;
        ev.time = cs.time;
        ev.downSeconds = crashDownSeconds;
        c.crashes.push_back(ev);
    }
    c.topo = topo;
    return c;
}

// --- Parsing --------------------------------------------------------

namespace {

void
parseClusterSections(Config &conf, ClusterSpec &c)
{
    for (const std::string &sec : conf.sectionsWithPrefix("node.")) {
        NodeOverride n;
        n.name = sectionSuffix(sec);
        n.base = conf.requireString(sec, "base");
        if (n.base != "xeno" && n.base != "aether")
            specFail(conf, "[" + sec + "] base must be xeno or aether, "
                           "got '" + n.base + "'");
        n.cores = static_cast<int>(conf.getInt(sec, "cores", 0));
        n.freqGHz = conf.getDouble(sec, "freq_ghz", 0);
        n.idleWatts = conf.getDouble(sec, "idle_watts", 0);
        n.maxWatts = conf.getDouble(sec, "max_watts", 0);
        n.memPenaltyCycles =
            static_cast<int>(conf.getInt(sec, "mem_penalty", 0));
        c.nodes.push_back(n);
    }
    for (const std::string &sec : conf.sectionsWithPrefix("machine.")) {
        MachineSpec m;
        m.name = sectionSuffix(sec);
        m.node = conf.requireString(sec, "node");
        m.powerScale = conf.getDouble(sec, "power_scale", 1.0);
        m.loadWeight = conf.getDouble(sec, "load_weight", 1.0);
        if (m.node != "xeno" && m.node != "aether" &&
            !c.findNode(m.node))
            specFail(conf, "[" + sec + "] references unknown node '" +
                               m.node + "'");
        c.machines.push_back(m);
    }
    for (const std::string &sec : conf.sectionsWithPrefix("pool.")) {
        PoolSpec p;
        p.name = sectionSuffix(sec);
        p.machineRefs = conf.getList(sec, "machines");
        if (p.machineRefs.empty())
            specFail(conf, "[" + sec + "] needs a machines list");
        try {
            p.policy = parsePolicy(conf.requireString(sec, "policy"));
        } catch (const ConfigError &e) {
            specFail(conf, "[" + sec + "] " + e.what());
        }
        p.baseline = conf.getBool(sec, "baseline", false);
        p.label = conf.getString(sec, "label", p.name);
        p.column = conf.getString(sec, "column", p.label);
        p.columnWidth =
            static_cast<int>(conf.getInt(sec, "column_width", 0));
        p.mkspLabel = conf.getString(sec, "mksp_label", p.name);
        p.shortLabel = conf.getString(sec, "short_label", p.name);
        c.pools.push_back(p);
    }
    // Validate the pool machine refs now so errors carry the file name.
    for (const PoolSpec &p : c.pools) {
        try {
            c.makePool(p);
        } catch (const ConfigError &e) {
            specFail(conf, e.what());
        }
    }

    c.latencyUs = conf.getDouble("net", "latency_us", c.latencyUs);
    c.gbitPerSec =
        conf.getDouble("net", "gbit_per_sec", c.gbitPerSec);

    c.rebalancePeriod =
        conf.getDouble("sim", "rebalance_period", c.rebalancePeriod);
    c.migrationFixedSeconds = conf.getDouble(
        "sim", "migration_fixed_seconds", c.migrationFixedSeconds);
    c.workingSetMib =
        conf.getDouble("sim", "working_set_mib", c.workingSetMib);
    c.sleepFraction =
        conf.getDouble("sim", "sleep_fraction", c.sleepFraction);
    c.checkpointPeriod =
        conf.getDouble("sim", "checkpoint_period", c.checkpointPeriod);

    if (conf.hasSection("faults")) {
        c.hasFaults = true;
        FaultConfig &f = c.faults;
        f.seed = static_cast<uint64_t>(conf.getInt(
            "faults", "seed", static_cast<int64_t>(f.seed)));
        f.dropProb = conf.getDouble("faults", "drop_prob", f.dropProb);
        f.dupProb = conf.getDouble("faults", "dup_prob", f.dupProb);
        f.spikeProb =
            conf.getDouble("faults", "spike_prob", f.spikeProb);
        f.spikeMaxUs =
            conf.getDouble("faults", "spike_max_us", f.spikeMaxUs);
        f.degradeFactor =
            conf.getDouble("faults", "degrade_factor", f.degradeFactor);
        f.degradePeriodMsgs = static_cast<uint64_t>(
            conf.getInt("faults", "degrade_period",
                        static_cast<int64_t>(f.degradePeriodMsgs)));
        f.degradeLenMsgs = static_cast<uint64_t>(
            conf.getInt("faults", "degrade_len",
                        static_cast<int64_t>(f.degradeLenMsgs)));
        f.partitionPeriodMsgs = static_cast<uint64_t>(
            conf.getInt("faults", "partition_period",
                        static_cast<int64_t>(f.partitionPeriodMsgs)));
        f.partitionLenMsgs = static_cast<uint64_t>(
            conf.getInt("faults", "partition_len",
                        static_cast<int64_t>(f.partitionLenMsgs)));
    }

    if (conf.hasSection("topology")) {
        TopologyConfig &t = c.topo;
        t.machinesPerRack = static_cast<int>(conf.getInt(
            "topology", "machines_per_rack", t.machinesPerRack));
        t.racksPerPod = static_cast<int>(
            conf.getInt("topology", "racks_per_pod", t.racksPerPod));
        t.torOversub =
            conf.getDouble("topology", "tor_oversub", t.torOversub);
        t.aggOversub =
            conf.getDouble("topology", "agg_oversub", t.aggOversub);
        t.rackHopUs =
            conf.getDouble("topology", "rack_hop_us", t.rackHopUs);
        t.aggHopUs =
            conf.getDouble("topology", "agg_hop_us", t.aggHopUs);
        t.localityBias = conf.getDouble("topology", "locality_bias",
                                        t.localityBias);
        if (const char *err = topologyConfigError(t))
            specFail(conf, std::string("[topology] ") + err);
    }

    if (conf.hasSection("crashes")) {
        c.crashDownSeconds = conf.getDouble("crashes", "down_seconds",
                                            c.crashDownSeconds);
        for (const std::string &ev : conf.getList("crashes", "plan")) {
            size_t at = ev.find('@');
            if (at == std::string::npos)
                specFail(conf, "[crashes] plan entries want "
                               "MACHINE@SECONDS, got '" + ev + "'");
            CrashSpec cs;
            char *end = nullptr;
            cs.machine = static_cast<int>(
                std::strtol(ev.c_str(), &end, 10));
            cs.time = std::strtod(ev.c_str() + at + 1, nullptr);
            if (!end || *end != '@' || cs.machine < 0 || cs.time < 0)
                specFail(conf, "[crashes] plan: malformed '" + ev +
                                   "'");
            c.crashPlan.push_back(cs);
        }
    }
}

void
validatePools(const Config &conf, const ExperimentSpec &s,
              bool needTwoMachines)
{
    if (s.cluster.pools.empty())
        specFail(conf, std::string(kindName(s.kind)) +
                           " experiments need at least one [pool.*]");
    int baselines = 0;
    for (const PoolSpec &p : s.cluster.pools)
        baselines += p.baseline ? 1 : 0;
    if (baselines != 1)
        specFail(conf, "exactly one pool must set baseline = true (" +
                           std::to_string(baselines) + " found)");
    if (!s.cluster.pools.front().baseline)
        specFail(conf, "the baseline pool must be declared first "
                       "(deltas are computed against it)");
    if (needTwoMachines) {
        for (const PoolSpec &p : s.cluster.pools) {
            if (s.cluster.makePool(p).size() != 2)
                specFail(conf,
                         "pool '" + p.name +
                             "': sustained experiments report "
                             "per-machine energy for exactly 2 "
                             "machines per pool");
        }
    }
}

} // namespace

ExperimentSpec
parseExperiment(Config &conf)
{
    ExperimentSpec s;
    s.source = conf.name();

    std::string kindStr = conf.requireString("", "kind");
    if (kindStr == "overhead")
        s.kind = ExperimentKind::Overhead;
    else if (kindStr == "sustained")
        s.kind = ExperimentKind::Sustained;
    else if (kindStr == "rack")
        s.kind = ExperimentKind::Rack;
    else if (kindStr == "single")
        s.kind = ExperimentKind::Single;
    else if (kindStr == "serving")
        s.kind = ExperimentKind::Serving;
    else
        specFail(conf, "unknown kind '" + kindStr +
                           "' (want overhead, sustained, rack, "
                           "single, or serving)");
    s.figure = conf.requireString("", "figure");
    s.title = conf.requireString("", "title");
    s.benchName = conf.getString("", "bench_name", s.benchName);
    s.footer = conf.getString("footer", "text", "");

    for (const std::string &sec :
         conf.sectionsWithPrefix("paramset.")) {
        ParamSetSpec ps;
        ps.name = sectionSuffix(sec);
        for (const std::string &key : conf.keysOf(sec))
            ps.params.set(key, conf.getString(sec, key, ""));
        s.paramSets.push_back(ps);
    }

    parseClusterSections(conf, s.cluster);

    switch (s.kind) {
      case ExperimentKind::Overhead: {
        s.workloads = conf.getList("", "workloads");
        if (s.workloads.empty())
            specFail(conf, "overhead experiments need a workloads "
                           "list");
        s.isas = conf.has("", "isas")
                     ? conf.getList("", "isas")
                     : std::vector<std::string>{"aether", "xeno"};
        for (const std::string &isa : s.isas) {
            try {
                s.cluster.makeNode(isa);
            } catch (const ConfigError &e) {
                specFail(conf, e.what());
            }
        }
        s.classes = parseClassList(conf, "classes",
                                   {ProblemClass::A, ProblemClass::B,
                                    ProblemClass::C});
        s.classesQuick =
            parseClassList(conf, "classes_quick", {ProblemClass::A});
        s.threads = parseThreadList(conf, "threads", {1, 2, 4, 8});
        s.threadsQuick = parseThreadList(conf, "threads_quick", {1, 4});
        break;
      }
      case ExperimentKind::Sustained: {
        s.sets = static_cast<int>(conf.requireInt("", "sets"));
        s.setsQuick =
            static_cast<int>(conf.getInt("", "sets_quick", 0));
        s.seedBase =
            static_cast<uint64_t>(conf.requireInt("", "seed_base"));
        s.jobsPerSet = static_cast<int>(
            conf.getInt("", "jobs_per_set", s.jobsPerSet));
        if (s.sets < 1 || s.jobsPerSet < 1)
            specFail(conf, "sets and jobs_per_set must be >= 1");
        validatePools(conf, s, /*needTwoMachines=*/true);
        break;
      }
      case ExperimentKind::Rack: {
        s.sets = static_cast<int>(conf.requireInt("", "sets"));
        s.setsQuick =
            static_cast<int>(conf.getInt("", "sets_quick", 0));
        s.seedBase =
            static_cast<uint64_t>(conf.requireInt("", "seed_base"));
        s.waves =
            static_cast<int>(conf.getInt("", "waves", s.waves));
        s.jobsPerWavePerMachine = static_cast<int>(
            conf.getInt("", "jobs_per_wave_per_machine",
                        s.jobsPerWavePerMachine));
        s.poolMachines = static_cast<int>(
            conf.getInt("", "pool_machines", s.poolMachines));
        if (s.sets < 1 || s.waves < 1 ||
            s.jobsPerWavePerMachine < 1 || s.poolMachines < 1)
            specFail(conf, "sets, waves, jobs_per_wave_per_machine "
                           "and pool_machines must be >= 1");
        validatePools(conf, s, /*needTwoMachines=*/false);
        break;
      }
      case ExperimentKind::Single: {
        s.workloadRef = conf.requireString("", "workload");
        s.singleMachines = conf.requireString("", "machines");
        s.startNode =
            static_cast<int>(conf.getInt("", "start_node", 0));
        s.quantum = static_cast<uint64_t>(conf.getInt(
            "os", "quantum", static_cast<int64_t>(s.quantum)));
        s.dsmMode = conf.getString("os", "dsm_mode", s.dsmMode);
        if (s.dsmMode != "migrate" && s.dsmMode != "remote")
            specFail(conf, "[os] dsm_mode must be migrate or remote, "
                           "got '" + s.dsmMode + "'");
        std::vector<std::string> refs = splitRefList(s.singleMachines);
        if (refs.empty())
            specFail(conf, "single experiments need a machines list");
        for (const std::string &ref : refs) {
            try {
                s.cluster.makeNode(ref);
            } catch (const ConfigError &e) {
                specFail(conf, e.what());
            }
        }
        if (s.startNode < 0 ||
            s.startNode >= static_cast<int>(refs.size()))
            specFail(conf, "start_node out of range");
        s.singleMachineRefs = refs;
        break;
      }
      case ExperimentKind::Serving: {
        s.singleMachines = conf.requireString("", "machines");
        // Serving fleets can be large, so the machines list accepts
        // the pool-style NAME*COUNT shorthand ("xeno*500").
        std::vector<std::string> refs;
        for (const std::string &raw : splitRefList(s.singleMachines)) {
            std::string name;
            int count = 0;
            try {
                splitMachineRef(raw, &name, &count, "machines list");
            } catch (const ConfigError &e) {
                specFail(conf, e.what());
            }
            for (int i = 0; i < count; ++i)
                refs.push_back(name);
        }
        if (refs.empty())
            specFail(conf, "serving experiments need a machines list");
        if (refs.size() > 4096)
            specFail(conf, "serving machines list expands to more "
                           "than 4096 nodes");
        for (const std::string &ref : refs) {
            try {
                s.cluster.makeNode(ref);
            } catch (const ConfigError &e) {
                specFail(conf, e.what());
            }
        }
        s.singleMachineRefs = refs;
        const int nodeCount = static_cast<int>(refs.size());

        TrafficSpec &t = s.traffic;
        t.seed = static_cast<uint64_t>(conf.getInt(
            "traffic", "seed", static_cast<int64_t>(t.seed)));
        t.clients = conf.getInt("traffic", "clients", t.clients);
        t.requestHz =
            conf.getDouble("traffic", "request_hz", t.requestHz);
        t.duration = conf.getDouble("traffic", "duration", t.duration);
        t.durationQuick = conf.getDouble("traffic", "duration_quick",
                                         t.duration / 8.0);
        t.zipfSkew = conf.getDouble("traffic", "zipf_skew", t.zipfSkew);
        t.keySpace = conf.getInt("traffic", "key_space", t.keySpace);
        t.getFraction =
            conf.getDouble("traffic", "get_fraction", t.getFraction);
        t.sloUs = conf.getDouble("traffic", "slo_us", t.sloUs);
        t.shards =
            static_cast<int>(conf.getInt("traffic", "shards", t.shards));
        // NaN-safe: every comparison is written so NaN fails it.
        auto trafficFail = [&](const char *key, const std::string &msg) {
            specFailAt(conf, "traffic", key, "[traffic] " + msg);
        };
        if (t.clients < 1)
            trafficFail("clients", "clients must be >= 1");
        for (const auto &[key, v] :
             {std::pair<const char *, double>{"request_hz", t.requestHz},
              {"duration", t.duration},
              {"duration_quick", t.durationQuick},
              {"slo_us", t.sloUs}})
            if (!(v > 0) || !std::isfinite(v))
                trafficFail(key, std::string(key) +
                                     " must be a finite number > 0");
        if (!(t.zipfSkew >= 0 && t.zipfSkew < 1))
            trafficFail("zipf_skew", "zipf_skew must be in [0, 1)");
        if (t.keySpace < 1 || t.keySpace > (int64_t{1} << 24))
            trafficFail("key_space", "key_space must be in [1, 2^24]");
        if (!(t.getFraction >= 0 && t.getFraction <= 1))
            trafficFail("get_fraction", "get_fraction must be in [0, 1]");
        if (t.shards < 1 || t.shards > 256)
            trafficFail("shards", "shards must be in [1, 256]");
        // The cap holds for the full and the quick run alike; the
        // message points at the longer duration, or else at the rate.
        const char *durKey =
            t.durationQuick > t.duration ? "duration_quick" : "duration";
        if (static_cast<double>(t.clients) * t.requestHz *
                std::max(t.duration, t.durationQuick) >
            2e7)
            trafficFail(conf.has("traffic", durKey) ? durKey
                        : conf.has("traffic", "request_hz") ? "request_hz"
                                                             : "clients",
                        std::string("clients * request_hz * ") + durKey +
                            " exceeds 20M requests");
        if (conf.has("traffic", "placement")) {
            for (const std::string &p :
                 conf.getList("traffic", "placement")) {
                try {
                    t.placement.push_back(std::stoi(p));
                } catch (const std::exception &) {
                    specFail(conf, "[traffic] bad placement entry '" +
                                       p + "'");
                }
            }
            if (static_cast<int>(t.placement.size()) != t.shards)
                specFail(conf, "[traffic] placement must list one "
                               "machine per shard");
        } else {
            for (int i = 0; i < t.shards; ++i)
                t.placement.push_back(i % nodeCount);
        }
        for (int p : t.placement)
            if (p < 0 || p >= nodeCount)
                specFail(conf, "[traffic] placement machine index "
                               "out of range");
        if (conf.has("traffic", "migrate_plan")) {
            for (const std::string &ev :
                 conf.getList("traffic", "migrate_plan")) {
                size_t at = ev.find('@');
                size_t arrow = ev.find("->");
                if (at == std::string::npos ||
                    arrow == std::string::npos || arrow < at)
                    specFail(conf,
                             "[traffic] migrate_plan entries are "
                             "SHARD@FRAC->NODE, got '" + ev + "'");
                ShardMigrationSpec m;
                try {
                    m.shard = std::stoi(ev.substr(0, at));
                    m.time = std::stod(
                        ev.substr(at + 1, arrow - at - 1));
                    m.node = std::stoi(ev.substr(arrow + 2));
                } catch (const std::exception &) {
                    specFail(conf, "[traffic] bad migrate_plan entry "
                                   "'" + ev + "'");
                }
                if (m.shard < 0 || m.shard >= t.shards)
                    specFail(conf, "[traffic] migrate_plan shard out "
                                   "of range");
                if (m.time < 0 || m.time >= 1)
                    specFail(conf, "[traffic] migrate_plan times are "
                                   "fractions of the run, in [0, 1)");
                if (m.node < 0 || m.node >= nodeCount)
                    specFail(conf, "[traffic] migrate_plan machine "
                                   "index out of range");
                t.migratePlan.push_back(m);
            }
        }
        // Serving reinterprets [crashes] plan times as fractions of
        // the active duration so quick mode keeps the same schedule.
        for (const CrashSpec &cs : s.cluster.crashPlan) {
            if (cs.machine < 0 || cs.machine >= nodeCount)
                specFail(conf, "[crashes] machine index out of range "
                               "for the serving machines list");
            if (cs.time < 0 || cs.time >= 1)
                specFail(conf, "[crashes] serving crash times are "
                               "fractions of the run, in [0, 1)");
        }
        // [failures]: correlated domain outages. Windows are
        // fractions of the active duration, like every serving
        // schedule (the conversion to seconds happens once, in
        // applyFailures).
        if (conf.hasSection("failures")) {
            if (s.cluster.topo.machinesPerRack <= 0)
                specFail(conf,
                         "[failures] needs [topology] "
                         "machines_per_rack to define the failure "
                         "domains");
            s.failureSeed = static_cast<uint64_t>(conf.getInt(
                "failures", "seed",
                static_cast<int64_t>(s.failureSeed)));
            s.shedDeciles = static_cast<int>(conf.getInt(
                "failures", "shed_deciles", s.shedDeciles));
            if (s.shedDeciles < 1 || s.shedDeciles > 10)
                specFail(conf,
                         "[failures] shed_deciles must be in [1, 10]");
            const int perRack = s.cluster.topo.machinesPerRack;
            const int racks = (nodeCount + perRack - 1) / perRack;
            const int pods =
                s.cluster.topo.racksPerPod > 0
                    ? (racks + s.cluster.topo.racksPerPod - 1) /
                          s.cluster.topo.racksPerPod
                    : 1;
            for (const std::string &ev :
                 conf.getList("failures", "plan")) {
                size_t colon = ev.find(':');
                size_t at = ev.find('@');
                size_t dots = ev.find("..");
                if (colon == std::string::npos ||
                    at == std::string::npos ||
                    dots == std::string::npos || at < colon ||
                    dots < at)
                    specFail(conf, "[failures] plan entries are "
                                   "KIND:DOMAIN@AT..HEAL, got '" +
                                       ev + "'");
                FailureSpec f;
                f.kind = ev.substr(0, colon);
                try {
                    f.domain = std::stoi(
                        ev.substr(colon + 1, at - colon - 1));
                    f.at = std::stod(
                        ev.substr(at + 1, dots - at - 1));
                    f.heal = std::stod(ev.substr(dots + 2));
                } catch (const std::exception &) {
                    specFail(conf, "[failures] bad plan entry '" +
                                       ev + "'");
                }
                if (f.kind != "tor" && f.kind != "agg" &&
                    f.kind != "pdu" && f.kind != "partition")
                    specFail(conf,
                             "[failures] kind must be tor, agg, pdu, "
                             "or partition, got '" + f.kind + "'");
                const int domains = f.kind == "agg" ? pods : racks;
                if (f.domain < 0 || f.domain >= domains)
                    specFail(conf,
                             "[failures] " + f.kind + " domain " +
                                 std::to_string(f.domain) +
                                 " out of range (topology has " +
                                 std::to_string(domains) + ")");
                if (!(f.at >= 0 && f.at < f.heal && f.heal <= 1))
                    specFail(conf,
                             "[failures] windows are fractions of "
                             "the run with 0 <= at < heal <= 1, got "
                             "'" + ev + "'");
                s.failures.push_back(f);
            }
            if (s.failures.empty())
                specFail(conf, "[failures] needs a plan list");
        }
        break;
      }
    }

    if (s.kind != ExperimentKind::Serving &&
        conf.hasSection("failures"))
        specFail(conf, "[failures] is only meaningful for "
                       "kind = serving");

    // Workload references (overhead + single) must resolve against the
    // registry carrying this spec's parameter sets.
    if (s.kind == ExperimentKind::Overhead ||
        s.kind == ExperimentKind::Single) {
        WorkloadRegistry reg = makeRegistry(s);
        std::vector<std::string> refs =
            s.kind == ExperimentKind::Overhead
                ? s.workloads
                : std::vector<std::string>{s.workloadRef};
        for (const std::string &ref : refs) {
            try {
                reg.resolve(ref);
            } catch (const ConfigError &e) {
                specFail(conf, e.what());
            }
        }
    }

    conf.requireAllUsed();
    return s;
}

ExperimentSpec
parseExperimentFile(const std::string &path)
{
    Config conf = Config::parseFile(path);
    return parseExperiment(conf);
}

WorkloadRegistry
makeRegistry(const ExperimentSpec &spec)
{
    WorkloadRegistry reg;
    for (const WorkloadDesc &d : workloadTable())
        reg.add(makeTableProvider(d));
    for (const ParamSetSpec &ps : spec.paramSets)
        reg.defineParamSet(ps.name, ps.params);
    return reg;
}

// --- Serialization --------------------------------------------------

namespace {

struct Writer {
    std::string out;

    void
    kv(const std::string &key, const std::string &value)
    {
        out += key + " = " + confQuote(value) + "\n";
    }
    void kv(const std::string &key, double v) { kv(key, fmtDouble(v)); }
    void kv(const std::string &key, int v) { kv(key, std::to_string(v)); }
    void kv(const std::string &key, uint64_t v) { kv(key, fmtU64(v)); }
    void kv(const std::string &key, bool v)
    {
        kv(key, std::string(v ? "true" : "false"));
    }
    void
    section(const std::string &name)
    {
        out += "\n[" + name + "]\n";
    }
};

std::string
classListString(const std::vector<ProblemClass> &classes)
{
    std::vector<std::string> names;
    for (ProblemClass c : classes)
        names.push_back(className(c));
    return joinList(names);
}

std::string
intListString(const std::vector<int> &values)
{
    std::vector<std::string> names;
    for (int v : values)
        names.push_back(std::to_string(v));
    return joinList(names);
}

} // namespace

std::string
serializeSpec(const ExperimentSpec &s)
{
    Writer w;
    w.out += "# canonical spec (xisa_exp --print-spec)\n";
    w.kv("kind", std::string(kindName(s.kind)));
    w.kv("figure", s.figure);
    w.kv("title", s.title);
    w.kv("bench_name", s.benchName);

    switch (s.kind) {
      case ExperimentKind::Overhead:
        w.kv("workloads", joinList(s.workloads));
        w.kv("isas", joinList(s.isas));
        w.kv("classes", classListString(s.classes));
        w.kv("classes_quick", classListString(s.classesQuick));
        w.kv("threads", intListString(s.threads));
        w.kv("threads_quick", intListString(s.threadsQuick));
        break;
      case ExperimentKind::Sustained:
        w.kv("sets", s.sets);
        w.kv("sets_quick", s.setsQuick);
        w.kv("seed_base", s.seedBase);
        w.kv("jobs_per_set", s.jobsPerSet);
        break;
      case ExperimentKind::Rack:
        w.kv("sets", s.sets);
        w.kv("sets_quick", s.setsQuick);
        w.kv("seed_base", s.seedBase);
        w.kv("waves", s.waves);
        w.kv("jobs_per_wave_per_machine", s.jobsPerWavePerMachine);
        w.kv("pool_machines", s.poolMachines);
        break;
      case ExperimentKind::Single:
        w.kv("workload", s.workloadRef);
        w.kv("machines", s.singleMachines);
        w.kv("start_node", s.startNode);
        break;
      case ExperimentKind::Serving:
        w.kv("machines", s.singleMachines);
        break;
    }

    for (const ParamSetSpec &ps : s.paramSets) {
        w.section("paramset." + ps.name);
        for (const std::string &key : ps.params.keys())
            w.kv(key, ps.params.getString(key, ""));
    }
    for (const NodeOverride &n : s.cluster.nodes) {
        w.section("node." + n.name);
        w.kv("base", n.base);
        w.kv("cores", n.cores);
        w.kv("freq_ghz", n.freqGHz);
        w.kv("idle_watts", n.idleWatts);
        w.kv("max_watts", n.maxWatts);
        w.kv("mem_penalty", n.memPenaltyCycles);
    }
    for (const MachineSpec &m : s.cluster.machines) {
        w.section("machine." + m.name);
        w.kv("node", m.node);
        w.kv("power_scale", m.powerScale);
        w.kv("load_weight", m.loadWeight);
    }
    for (const PoolSpec &p : s.cluster.pools) {
        w.section("pool." + p.name);
        w.kv("machines", joinList(p.machineRefs));
        w.kv("policy", std::string(policyName(p.policy)));
        w.kv("baseline", p.baseline);
        w.kv("label", p.label);
        w.kv("column", p.column);
        w.kv("column_width", p.columnWidth);
        w.kv("mksp_label", p.mkspLabel);
        w.kv("short_label", p.shortLabel);
    }

    if (s.kind == ExperimentKind::Serving) {
        const TrafficSpec &t = s.traffic;
        w.section("traffic");
        w.kv("seed", t.seed);
        w.kv("clients", static_cast<uint64_t>(t.clients));
        w.kv("request_hz", t.requestHz);
        w.kv("duration", t.duration);
        w.kv("duration_quick", t.durationQuick);
        w.kv("zipf_skew", t.zipfSkew);
        w.kv("key_space", static_cast<uint64_t>(t.keySpace));
        w.kv("get_fraction", t.getFraction);
        w.kv("slo_us", t.sloUs);
        w.kv("shards", t.shards);
        w.kv("placement", intListString(t.placement));
        if (!t.migratePlan.empty()) {
            std::vector<std::string> plan;
            for (const ShardMigrationSpec &m : t.migratePlan)
                plan.push_back(std::to_string(m.shard) + "@" +
                               fmtDouble(m.time) + "->" +
                               std::to_string(m.node));
            w.kv("migrate_plan", joinList(plan));
        }
    }

    w.section("net");
    w.kv("latency_us", s.cluster.latencyUs);
    w.kv("gbit_per_sec", s.cluster.gbitPerSec);

    w.section("sim");
    w.kv("rebalance_period", s.cluster.rebalancePeriod);
    w.kv("migration_fixed_seconds", s.cluster.migrationFixedSeconds);
    w.kv("working_set_mib", s.cluster.workingSetMib);
    w.kv("sleep_fraction", s.cluster.sleepFraction);
    w.kv("checkpoint_period", s.cluster.checkpointPeriod);

    if (s.cluster.hasFaults) {
        const FaultConfig &f = s.cluster.faults;
        w.section("faults");
        w.kv("seed", static_cast<uint64_t>(f.seed));
        w.kv("drop_prob", f.dropProb);
        w.kv("dup_prob", f.dupProb);
        w.kv("spike_prob", f.spikeProb);
        w.kv("spike_max_us", f.spikeMaxUs);
        w.kv("degrade_factor", f.degradeFactor);
        w.kv("degrade_period", f.degradePeriodMsgs);
        w.kv("degrade_len", f.degradeLenMsgs);
        w.kv("partition_period", f.partitionPeriodMsgs);
        w.kv("partition_len", f.partitionLenMsgs);
    }

    if (s.cluster.topo.machinesPerRack > 0) {
        const TopologyConfig &t = s.cluster.topo;
        w.section("topology");
        w.kv("machines_per_rack", t.machinesPerRack);
        w.kv("racks_per_pod", t.racksPerPod);
        w.kv("tor_oversub", t.torOversub);
        w.kv("agg_oversub", t.aggOversub);
        w.kv("rack_hop_us", t.rackHopUs);
        w.kv("agg_hop_us", t.aggHopUs);
        w.kv("locality_bias", t.localityBias);
    }

    if (!s.cluster.crashPlan.empty()) {
        w.section("crashes");
        w.kv("down_seconds", s.cluster.crashDownSeconds);
        std::vector<std::string> plan;
        for (const CrashSpec &cs : s.cluster.crashPlan)
            plan.push_back(std::to_string(cs.machine) + "@" +
                           fmtDouble(cs.time));
        w.kv("plan", joinList(plan));
    }

    if (s.kind == ExperimentKind::Serving && !s.failures.empty()) {
        w.section("failures");
        w.kv("seed", s.failureSeed);
        w.kv("shed_deciles", s.shedDeciles);
        std::vector<std::string> plan;
        for (const FailureSpec &f : s.failures)
            plan.push_back(f.kind + ":" + std::to_string(f.domain) +
                           "@" + fmtDouble(f.at) + ".." +
                           fmtDouble(f.heal));
        w.kv("plan", joinList(plan));
    }

    if (s.kind == ExperimentKind::Single) {
        w.section("os");
        w.kv("quantum", s.quantum);
        w.kv("dsm_mode", s.dsmMode);
    }

    if (!s.footer.empty()) {
        w.section("footer");
        w.kv("text", s.footer);
    }
    return w.out;
}

} // namespace xisa::exp
