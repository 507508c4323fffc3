/**
 * @file
 * The config-driven experiment platform: the conf parser (grammar,
 * macros, diagnostics, unknown-key tracking), the workload registry
 * (providers, named parameter sets, reference resolution), and the
 * experiment specs (defaults, validation, serialize round-trip).
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "exp/config.hh"
#include "exp/options.hh"
#include "exp/registry.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "exp/sweep.hh"
#include "sched/jobsets.hh"
#include "util/logging.hh"

using namespace xisa;
using namespace xisa::exp;

namespace {

// --- Config: grammar ------------------------------------------------

TEST(Config, ParsesSectionsKeysAndComments)
{
    Config c = Config::parseString("top = 1  # trailing\n"
                                   "# full-line comment\n"
                                   "[alpha]\n"
                                   "name = hello\n"
                                   "list = a, b , c\n"
                                   "[beta.sub]\n"
                                   "x = 2\n",
                                   "t");
    EXPECT_EQ(c.getInt("", "top", 0), 1);
    EXPECT_EQ(c.getString("alpha", "name", ""), "hello");
    EXPECT_EQ(c.getList("alpha", "list"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(c.hasSection("beta.sub"));
    EXPECT_EQ(c.sectionsWithPrefix("beta."),
              std::vector<std::string>{"beta.sub"});
    EXPECT_EQ(c.getInt("beta.sub", "x", 0), 2);
    EXPECT_NO_THROW(c.requireAllUsed()); // every key was consumed
}

TEST(Config, QuotingAndEscapes)
{
    Config c = Config::parseString(
        "plain = 'kept # verbatim'\n"
        "esc = \"line1\\nline2\\t\\\"q\\\" \\\\\"\n",
        "t");
    EXPECT_EQ(c.getString("", "plain", ""), "kept # verbatim");
    EXPECT_EQ(c.getString("", "esc", ""), "line1\nline2\t\"q\" \\");
}

TEST(Config, MacroExpansion)
{
    Config c = Config::parseString("root = /data\n"
                                   "sub = $(root)/runs\n"
                                   "[s]\n"
                                   "deep = $(sub)/x\n",
                                   "t");
    EXPECT_EQ(c.getString("s", "deep", ""), "/data/runs/x");
}

TEST(Config, MacroCycleFails)
{
    EXPECT_THROW(Config::parseString("a = $(b)\nb = $(a)\nc = $(a)\n",
                                     "t")
                     .getString("", "c", ""),
                 ConfigError);
}

// --- Config: malformed input ----------------------------------------

TEST(Config, MalformedInputsThrowWithLineNumbers)
{
    auto fails = [](const std::string &text, const char *what) {
        try {
            Config::parseString(text, "bad.conf");
            FAIL() << "expected ConfigError for: " << what;
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("bad.conf"),
                      std::string::npos)
                << what;
        }
    };
    fails("just a line\n", "no equals sign");
    fails("[unclosed\n", "missing bracket");
    fails("[]\nx = 1\n", "empty section name");
    fails("k e y = 1\n", "space in key");
    fails("q = 'abc\n", "unterminated quote");
    fails("e = \"a\\qb\"\n", "bad escape");
    fails("x = $(nope)\n", "undefined macro");
    fails("x = $(broken\n", "unterminated macro");
    fails("x = 1\nx = 2\n", "duplicate key");
    fails("[s]\na = 1\n[s]\nb = 2\n", "duplicate section");
}

TEST(Config, DuplicateKeyNamesFirstLine)
{
    try {
        Config::parseString("x = 1\ny = 2\nx = 3\n", "d.conf");
        FAIL();
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("d.conf:3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("first at line 1"), std::string::npos)
            << msg;
    }
}

TEST(Config, MissingFileThrows)
{
    EXPECT_THROW(Config::parseFile("/nonexistent/xisa.conf"),
                 ConfigError);
}

// --- Config: typed getters ------------------------------------------

TEST(Config, TypedGettersAndDefaults)
{
    Config c = Config::parseString("i = 0x10\nd = 2.5\nb1 = yes\n"
                                   "b2 = off\n",
                                   "t");
    EXPECT_EQ(c.getInt("", "i", 0), 16); // base-0 integers
    EXPECT_DOUBLE_EQ(c.getDouble("", "d", 0), 2.5);
    EXPECT_TRUE(c.getBool("", "b1", false));
    EXPECT_FALSE(c.getBool("", "b2", true));
    EXPECT_EQ(c.getInt("", "absent", 42), 42);
    EXPECT_EQ(c.getString("nosec", "absent", "d"), "d");
}

TEST(Config, TypedGetterRejectsMalformedValues)
{
    Config c = Config::parseString("i = 3x\nd = nan-ish\nb = maybe\n",
                                   "t");
    EXPECT_THROW(c.getInt("", "i", 0), ConfigError);
    EXPECT_THROW(c.getDouble("", "d", 0), ConfigError);
    EXPECT_THROW(c.getBool("", "b", false), ConfigError);
}

TEST(Config, DoubleGetterRejectsNonFiniteNamingTheLine)
{
    Config c = Config::parseString(
        "g = inf\n[net]\nlatency_us = nan\n[topology]\n"
        "tor_oversub = -inf\nrack_hop_us = 1e999\n",
        "t");
    auto expectFailAt = [&](const std::string &section,
                            const std::string &key,
                            const std::string &where) {
        try {
            c.getDouble(section, key, 1.0);
            ADD_FAILURE() << key << " was accepted";
        } catch (const ConfigError &e) {
            EXPECT_EQ(std::string(e.what()).rfind(where, 0), 0u)
                << e.what();
        }
    };
    expectFailAt("", "g", "t:1: key 'g' wants a finite number");
    expectFailAt("net", "latency_us", "t:3: [net] key 'latency_us'");
    expectFailAt("topology", "tor_oversub", "t:5: [topology]");
    expectFailAt("topology", "rack_hop_us", "t:6: [topology]");
}

TEST(Config, RequireThrowsOnMissing)
{
    Config c = Config::parseString("x = 1\n", "t");
    EXPECT_THROW(c.requireString("", "missing"), ConfigError);
    EXPECT_THROW(c.requireInt("sec", "missing"), ConfigError);
}

// --- Config: unknown-key diagnostics --------------------------------

TEST(Config, UnknownKeysListedWithLocation)
{
    Config c = Config::parseString("known = 1\n"
                                   "[s]\n"
                                   "typo_key = 2\n",
                                   "u.conf");
    c.getInt("", "known", 0);
    try {
        c.requireAllUsed();
        FAIL() << "expected unknown-key diagnostics";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("s.typo_key"), std::string::npos) << msg;
        EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    }
}

// --- Registry -------------------------------------------------------

TEST(Registry, GlobalSeededFromWorkloadTable)
{
    WorkloadRegistry &reg = WorkloadRegistry::global();
    EXPECT_EQ(reg.names().size(), workloadTable().size());
    EXPECT_NE(reg.find("cg"), nullptr);
    EXPECT_EQ(reg.find("nope"), nullptr);
    EXPECT_TRUE(reg.require("cg").threadCapable());
    EXPECT_FALSE(reg.require("bzip").threadCapable());
}

TEST(Registry, RequireListsKnownNames)
{
    try {
        WorkloadRegistry::global().require("spx");
        FAIL();
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("cg"), std::string::npos);
    }
}

TEST(Registry, ResolveLayersDefaultsSetsAndOverrides)
{
    WorkloadRegistry reg;
    reg.add(makeTableProvider(workloadDesc(WorkloadId::CG)));
    ParameterSet big;
    big.set("class", "C");
    big.set("nthreads", "8");
    reg.defineParamSet("big", big);

    auto r0 = reg.resolve("cg");
    EXPECT_EQ(r0.params.getString("class", ""), "A");
    EXPECT_EQ(r0.params.getInt("nthreads", 0), 1);

    auto r1 = reg.resolve("cg@big");
    EXPECT_EQ(r1.params.getString("class", ""), "C");
    EXPECT_EQ(r1.params.getInt("nthreads", 0), 8);

    ParameterSet over;
    over.set("nthreads", "2");
    auto r2 = reg.resolve("cg @ big", over);
    EXPECT_EQ(r2.params.getString("class", ""), "C");
    EXPECT_EQ(r2.params.getInt("nthreads", 0), 2);
}

TEST(Registry, ResolveRejectsUnknownSetAndParams)
{
    WorkloadRegistry reg;
    reg.add(makeTableProvider(workloadDesc(WorkloadId::CG)));
    EXPECT_THROW(reg.resolve("cg@nosuch"), ConfigError);
    ParameterSet bad;
    bad.set("klass", "A"); // typo'd parameter name
    EXPECT_THROW(reg.resolve("cg", bad), ConfigError);
}

TEST(Registry, BuildValidatesParameterValues)
{
    WorkloadRegistry reg;
    reg.add(makeTableProvider(workloadDesc(WorkloadId::CG)));
    reg.add(makeTableProvider(workloadDesc(WorkloadId::BZIP)));
    ParameterSet badClass;
    badClass.set("class", "D");
    EXPECT_THROW(reg.build("cg", badClass), ConfigError);
    ParameterSet serialThreads;
    serialThreads.set("nthreads", "4"); // bzip is serial-only
    EXPECT_THROW(reg.build("bzip", serialThreads), ConfigError);
    EXPECT_NO_THROW(reg.build("cg"));
}

TEST(Registry, DuplicateProviderRejected)
{
    WorkloadRegistry reg;
    reg.add(makeTableProvider(workloadDesc(WorkloadId::CG)));
    EXPECT_THROW(
        reg.add(makeTableProvider(workloadDesc(WorkloadId::CG))),
        ConfigError);
}

// --- Spec: defaults and validation ----------------------------------

const char *kMinimalOverhead = "kind = overhead\n"
                               "figure = F\n"
                               "title = T\n"
                               "workloads = cg\n";

TEST(Spec, OverheadDefaults)
{
    Config c = Config::parseString(kMinimalOverhead, "o.conf");
    ExperimentSpec s = parseExperiment(c);
    EXPECT_EQ(s.kind, ExperimentKind::Overhead);
    EXPECT_EQ(s.isas, (std::vector<std::string>{"aether", "xeno"}));
    EXPECT_EQ(s.classes.size(), 3u);
    EXPECT_EQ(s.classesQuick.size(), 1u);
    EXPECT_EQ(s.threads, (std::vector<int>{1, 2, 4, 8}));
    EXPECT_EQ(s.threadsQuick, (std::vector<int>{1, 4}));
    EXPECT_EQ(s.activeThreads(true), (std::vector<int>{1, 4}));
    EXPECT_EQ(s.activeThreads(false), (std::vector<int>{1, 2, 4, 8}));
    // Cluster defaults match ClusterSim::Config's.
    ClusterSim::Config cc = s.cluster.simConfig();
    EXPECT_DOUBLE_EQ(cc.rebalancePeriod, 1.0);
    EXPECT_DOUBLE_EQ(cc.workingSetBytesPerScale, 2.0 * 1024 * 1024);
    EXPECT_DOUBLE_EQ(cc.net.latencyUs, 1.2);
    EXPECT_TRUE(cc.crashes.empty());
}

TEST(Spec, UnknownKeyAnywhereFails)
{
    Config c = Config::parseString(std::string(kMinimalOverhead) +
                                       "[sim]\nrebalance_perood = 2\n",
                                   "o.conf");
    EXPECT_THROW(parseExperiment(c), ConfigError);
}

TEST(Spec, MissingRequiredKeysFail)
{
    Config noTitle =
        Config::parseString("kind = overhead\nfigure = F\n"
                            "workloads = cg\n",
                            "t");
    EXPECT_THROW(parseExperiment(noTitle), ConfigError);
    Config noSeed = Config::parseString(
        "kind = rack\nfigure = F\ntitle = T\nsets = 2\n", "t");
    EXPECT_THROW(parseExperiment(noSeed), ConfigError);
    Config badKind = Config::parseString(
        "kind = sideways\nfigure = F\ntitle = T\n", "t");
    EXPECT_THROW(parseExperiment(badKind), ConfigError);
}

TEST(Spec, CrossReferencesValidated)
{
    auto parse = [](const std::string &extra) {
        Config c = Config::parseString(
            "kind = rack\nfigure = F\ntitle = T\n"
            "sets = 1\nseed_base = 1\n" +
                extra,
            "x.conf");
        return parseExperiment(c);
    };
    // Pool referencing an unknown machine.
    EXPECT_THROW(parse("[pool.a]\nmachines = ghost\n"
                       "policy = static-balanced\nbaseline = true\n"),
                 ConfigError);
    // Machine referencing an unknown node.
    EXPECT_THROW(parse("[machine.m]\nnode = ghost\n"
                       "[pool.a]\nmachines = m\n"
                       "policy = static-balanced\nbaseline = true\n"),
                 ConfigError);
    // Unknown policy name.
    EXPECT_THROW(parse("[machine.m]\nnode = xeno\n"
                       "[pool.a]\nmachines = m\n"
                       "policy = round-robin\nbaseline = true\n"),
                 ConfigError);
    // No baseline pool.
    EXPECT_THROW(parse("[machine.m]\nnode = xeno\n"
                       "[pool.a]\nmachines = m\n"
                       "policy = static-balanced\n"),
                 ConfigError);
    // All valid: machine count expansion works.
    ExperimentSpec s =
        parse("[machine.m]\nnode = xeno\n"
              "[pool.a]\nmachines = m*3\n"
              "policy = static-balanced\nbaseline = true\n");
    EXPECT_EQ(s.cluster.makePool(s.cluster.pools[0]).size(), 3u);
}

TEST(Spec, NodeOverrideInheritsPreset)
{
    Config c = Config::parseString(std::string(kMinimalOverhead) +
                                       "isas = fast_arm\n"
                                       "[node.fast_arm]\n"
                                       "base = aether\n"
                                       "freq_ghz = 3.0\n",
                                   "n.conf");
    ExperimentSpec s = parseExperiment(c);
    NodeSpec n = s.cluster.makeNode("fast_arm");
    NodeSpec preset = makeAetherServer();
    EXPECT_EQ(n.name, "fast_arm");
    EXPECT_DOUBLE_EQ(n.freqGHz, 3.0);            // overridden
    EXPECT_EQ(n.cores, preset.cores);            // inherited
    EXPECT_DOUBLE_EQ(n.idleWatts, preset.idleWatts);
}

TEST(Spec, WorkloadRefsValidatedAgainstRegistry)
{
    Config badRef = Config::parseString("kind = overhead\nfigure = F\n"
                                        "title = T\nworkloads = spx\n",
                                        "t");
    EXPECT_THROW(parseExperiment(badRef), ConfigError);
    Config badSet = Config::parseString(
        "kind = overhead\nfigure = F\n"
        "title = T\nworkloads = cg@nosuch\n",
        "t");
    EXPECT_THROW(parseExperiment(badSet), ConfigError);
    Config good = Config::parseString(
        "kind = overhead\nfigure = F\ntitle = T\n"
        "workloads = cg@big\n"
        "[paramset.big]\nclass = B\n",
        "t");
    ExperimentSpec s = parseExperiment(good);
    auto r = makeRegistry(s).resolve("cg@big");
    EXPECT_EQ(r.params.getString("class", ""), "B");
}

TEST(Spec, CrashPlanParsed)
{
    Config c = Config::parseString(
        "kind = sustained\nfigure = F\ntitle = T\n"
        "sets = 1\nseed_base = 7\n"
        "[machine.m]\nnode = xeno\n"
        "[pool.a]\nmachines = m*2\n"
        "policy = static-balanced\nbaseline = true\n"
        "[crashes]\ndown_seconds = 12\nplan = 0@30, 1@55.5\n",
        "c.conf");
    ExperimentSpec s = parseExperiment(c);
    ClusterSim::Config cc = s.cluster.simConfig();
    ASSERT_EQ(cc.crashes.size(), 2u);
    EXPECT_EQ(cc.crashes[0].machine, 0);
    EXPECT_DOUBLE_EQ(cc.crashes[0].time, 30);
    EXPECT_DOUBLE_EQ(cc.crashes[1].time, 55.5);
    EXPECT_DOUBLE_EQ(cc.crashes[1].downSeconds, 12);
}

// --- Spec: serialize round-trip -------------------------------------

void
expectRoundTrip(const std::string &text, const char *name)
{
    Config c1 = Config::parseString(text, name);
    ExperimentSpec s1 = parseExperiment(c1);
    std::string canon = serializeSpec(s1);
    Config c2 = Config::parseString(canon, "canon");
    ExperimentSpec s2 = parseExperiment(c2);
    EXPECT_EQ(serializeSpec(s2), canon)
        << name << ": canonical form is not a fixed point";
}

TEST(Spec, SerializeRoundTripOverhead)
{
    expectRoundTrip(kMinimalOverhead, "overhead");
}

TEST(Spec, SerializeRoundTripFullCluster)
{
    expectRoundTrip(
        "kind = rack\nfigure = \"Rack (x)\"\ntitle = \"deep, dive\"\n"
        "sets = 3\nsets_quick = 1\nseed_base = 4200\nwaves = 4\n"
        "[node.armn]\nbase = aether\ncores = 16\nfreq_ghz = 3.0\n"
        "[machine.x86]\nnode = xeno\n"
        "[machine.arm]\nnode = armn\npower_scale = 0.1\n"
        "[pool.base]\nmachines = x86*8\npolicy = static-balanced\n"
        "baseline = true\nlabel = \"8x86 (baseline)\"\n"
        "[pool.mix]\nmachines = x86*4, arm*4\n"
        "policy = dynamic-unbalanced\nlabel = 4x4\n"
        "[net]\nlatency_us = 5.0\ngbit_per_sec = 10\n"
        "[sim]\nsleep_fraction = 0.25\n"
        "[faults]\nseed = 9\ndrop_prob = 0.02\n"
        "[crashes]\ndown_seconds = 20\nplan = 1@40, 3@90\n"
        "[footer]\ntext = \"multi\\nline\"\n",
        "full");
}

TEST(Spec, SerializeRoundTripSingleWithParamSets)
{
    expectRoundTrip("kind = single\nfigure = F\ntitle = T\n"
                    "workload = cg@big\nmachines = xeno, aether\n"
                    "[paramset.big]\nclass = B\nnthreads = 4\n"
                    "[os]\nquantum = 2000\ndsm_mode = remote\n",
                    "single");
}

TEST(Spec, SerializeRoundTripServing)
{
    expectRoundTrip(
        "kind = serving\nfigure = \"Serving under SLOs\"\n"
        "title = \"open-loop REDIS\"\nmachines = xeno, aether\n"
        "[traffic]\nseed = 9\nclients = 5000\nrequest_hz = 2.5\n"
        "duration = 1.5\nduration_quick = 0.2\nzipf_skew = 0.9\n"
        "key_space = 8192\nget_fraction = 0.85\nslo_us = 650\n"
        "shards = 4\nplacement = 0, 1, 1, 1\n"
        "migrate_plan = 1@0.4->0, 3@0.6->0\n"
        "[crashes]\ndown_seconds = 25\nplan = 0@0.7\n",
        "serving");
}

TEST(Spec, ServingDefaultsMaterialize)
{
    // Omitting [traffic] keys must materialize the defaults: placement
    // round-robins over the machines and quick duration is an eighth.
    Config c = Config::parseString("kind = serving\nfigure = F\n"
                                   "title = T\nmachines = xeno, "
                                   "aether\n[traffic]\nshards = 5\n",
                                   "serving-defaults");
    ExperimentSpec s = parseExperiment(c);
    ASSERT_EQ(s.traffic.placement.size(), 5u);
    EXPECT_EQ(s.traffic.placement,
              (std::vector<int>{0, 1, 0, 1, 0}));
    EXPECT_EQ(s.traffic.durationQuick, s.traffic.duration / 8.0);
    EXPECT_EQ(s.traffic.seed, 42u);
    EXPECT_TRUE(s.traffic.migratePlan.empty());
}

TEST(Spec, ServingRejectsBadTraffic)
{
    auto expectFail = [](const std::string &body) {
        Config c = Config::parseString(
            "kind = serving\nfigure = F\ntitle = T\n"
            "machines = xeno, aether\n" + body, "serving-bad");
        EXPECT_THROW(parseExperiment(c), ConfigError) << body;
    };
    expectFail("[traffic]\nzipf_skew = 1.0\n");
    expectFail("[traffic]\nget_fraction = 1.5\n");
    expectFail("[traffic]\nshards = 0\n");
    expectFail("[traffic]\nplacement = 0, 1\n"); // size != shards
    expectFail("[traffic]\nplacement = 0, 0, 0, 0, 0, 0, 0, 9\n");
    expectFail("[traffic]\nmigrate_plan = 1@1.5->0\n"); // frac >= 1
    expectFail("[traffic]\nmigrate_plan = 99@0.5->0\n");
    expectFail("[traffic]\nmigrate_plan = nonsense\n");
    expectFail("[crashes]\nplan = 0@40\n"); // serving wants fractions
    expectFail("[crashes]\nplan = 7@0.5\n");
}

TEST(Spec, ServingRejectsUnboundedTrafficNamingTheLine)
{
    // Each would otherwise reach the generator: NaN compares false in
    // every range check, and the request cap must cover the quick run.
    auto expectFailAt = [](const std::string &traffic, int line) {
        Config c = Config::parseString(
            "kind = serving\nfigure = F\ntitle = T\n"
            "machines = xeno, aether\n[traffic]\n" + traffic,
            "serving-bad");
        try {
            parseExperiment(c);
            ADD_FAILURE() << traffic << " was accepted";
        } catch (const ConfigError &e) {
            const std::string where =
                "serving-bad:" + std::to_string(line) + ": [traffic]";
            EXPECT_EQ(std::string(e.what()).rfind(where, 0), 0u)
                << e.what();
        }
    };
    expectFailAt("request_hz = nan\n", 6);
    expectFailAt("clients = 5\nduration_quick = 999999999999\n", 7);
    expectFailAt("request_hz = inf\n", 6);
    expectFailAt("duration = 1\nduration_quick = -inf\n", 7);
    expectFailAt("slo_us = nan\n", 6);
    expectFailAt("zipf_skew = nan\n", 6);
    expectFailAt("get_fraction = nan\n", 6);
    expectFailAt("clients = 1000000\nrequest_hz = 100\n", 7);
}

// --- Spec: [topology] -----------------------------------------------

TEST(Spec, TopologyParsedAndValidated)
{
    Config c = Config::parseString(
        "kind = rack\nfigure = F\ntitle = T\n"
        "sets = 1\nseed_base = 7\nwaves = 2\n"
        "[machine.m]\nnode = xeno\n"
        "[pool.a]\nmachines = m*4\n"
        "policy = dynamic-balanced\nbaseline = true\n"
        "[topology]\nmachines_per_rack = 2\nracks_per_pod = 2\n"
        "tor_oversub = 4.0\nagg_oversub = 2.0\n"
        "rack_hop_us = 5.0\nagg_hop_us = 20.0\n"
        "locality_bias = 0.5\n",
        "topo.conf");
    ExperimentSpec s = parseExperiment(c);
    ClusterSim::Config cc = s.cluster.simConfig();
    EXPECT_EQ(cc.topo.machinesPerRack, 2);
    EXPECT_EQ(cc.topo.racksPerPod, 2);
    EXPECT_DOUBLE_EQ(cc.topo.torOversub, 4.0);
    EXPECT_DOUBLE_EQ(cc.topo.aggOversub, 2.0);
    EXPECT_DOUBLE_EQ(cc.topo.rackHopUs, 5.0);
    EXPECT_DOUBLE_EQ(cc.topo.aggHopUs, 20.0);
    EXPECT_DOUBLE_EQ(cc.topo.localityBias, 0.5);

    auto expectFail = [](const std::string &topoBody) {
        Config bad = Config::parseString(
            "kind = rack\nfigure = F\ntitle = T\n"
            "sets = 1\nseed_base = 7\nwaves = 2\n"
            "[machine.m]\nnode = xeno\n"
            "[pool.a]\nmachines = m*4\n"
            "policy = dynamic-balanced\nbaseline = true\n"
            "[topology]\n" + topoBody, "topo-bad.conf");
        EXPECT_THROW(parseExperiment(bad), ConfigError) << topoBody;
    };
    expectFail("machines_per_rack = 2\ntor_oversub = 0.5\n");
    expectFail("machines_per_rack = -1\n");
    // Knobs without a rack size: a typo'd hierarchy, not flat.
    expectFail("locality_bias = 0.5\n");
}

// --- Spec: [failures] -----------------------------------------------

TEST(Spec, FailuresParsedAndValidated)
{
    Config c = Config::parseString(
        "kind = serving\nfigure = F\ntitle = T\n"
        "machines = xeno*8\n"
        "[topology]\nmachines_per_rack = 2\nracks_per_pod = 2\n"
        "[traffic]\nshards = 4\n"
        "[failures]\nseed = 99\nshed_deciles = 4\n"
        "plan = tor:1@0.25..0.5, agg:0@0.6..0.9\n",
        "failures.conf");
    ExperimentSpec s = parseExperiment(c);
    EXPECT_EQ(s.failureSeed, 99u);
    EXPECT_EQ(s.shedDeciles, 4);
    ASSERT_EQ(s.failures.size(), 2u);
    EXPECT_EQ(s.failures[0].kind, "tor");
    EXPECT_EQ(s.failures[0].domain, 1);
    EXPECT_DOUBLE_EQ(s.failures[0].at, 0.25);
    EXPECT_DOUBLE_EQ(s.failures[0].heal, 0.5);
    EXPECT_EQ(s.failures[1].kind, "agg");
    EXPECT_EQ(s.failures[1].domain, 0);
    // The NAME*COUNT shorthand expanded to eight nodes.
    EXPECT_EQ(s.singleMachineRefs.size(), 8u);
    EXPECT_EQ(s.singleMachineRefs.front(), "xeno");
}

TEST(Spec, FailuresRejectBadPlans)
{
    auto expectFail = [](const std::string &extra) {
        Config c = Config::parseString(
            "kind = serving\nfigure = F\ntitle = T\n"
            "machines = xeno*8\n"
            "[topology]\nmachines_per_rack = 2\nracks_per_pod = 2\n"
            "[traffic]\nshards = 4\n" + extra, "failures-bad.conf");
        EXPECT_THROW(parseExperiment(c), ConfigError) << extra;
    };
    expectFail("[failures]\nplan = volcano:0@0.2..0.4\n"); // bad kind
    expectFail("[failures]\nplan = tor:9@0.2..0.4\n");   // no rack 9
    expectFail("[failures]\nplan = agg:2@0.2..0.4\n");   // no pod 2
    expectFail("[failures]\nplan = tor:0@0.5..0.4\n");   // heal < at
    expectFail("[failures]\nplan = tor:0@0.2..1.5\n");   // heal > 1
    expectFail("[failures]\nplan = nonsense\n");
    expectFail("[failures]\nseed = 7\n");                // empty plan
    expectFail(
        "[failures]\nshed_deciles = 0\nplan = tor:0@0.1..0.2\n");
    expectFail(
        "[failures]\nshed_deciles = 11\nplan = tor:0@0.1..0.2\n");
}

TEST(Spec, FailuresRequireTopologyAndServingKind)
{
    // Domain indices are meaningless without a [topology].
    Config noTopo = Config::parseString(
        "kind = serving\nfigure = F\ntitle = T\n"
        "machines = xeno*8\n[traffic]\nshards = 4\n"
        "[failures]\nplan = tor:0@0.2..0.4\n",
        "failures-notopo.conf");
    EXPECT_THROW(parseExperiment(noTopo), ConfigError);
    // And only the serving kind consumes the section.
    Config rack = Config::parseString(
        "kind = rack\nfigure = F\ntitle = T\n"
        "sets = 1\nseed_base = 7\nwaves = 2\n"
        "[machine.m]\nnode = xeno\n"
        "[pool.a]\nmachines = m*4\n"
        "policy = dynamic-balanced\nbaseline = true\n"
        "[topology]\nmachines_per_rack = 2\n"
        "[failures]\nplan = tor:0@0.2..0.4\n",
        "failures-rack.conf");
    EXPECT_THROW(parseExperiment(rack), ConfigError);
}

TEST(Spec, SerializeRoundTripFailures)
{
    expectRoundTrip(
        "kind = serving\nfigure = F\ntitle = T\n"
        "machines = xeno*6, aether*2\n"
        "[topology]\nmachines_per_rack = 2\nracks_per_pod = 2\n"
        "[traffic]\nseed = 9\nshards = 4\n"
        "[failures]\nseed = 13\nshed_deciles = 2\n"
        "plan = tor:1@0.25..0.5, pdu:0@0.6..0.9\n",
        "failures-roundtrip");
}

TEST(Spec, SerializeRoundTripTopology)
{
    expectRoundTrip(
        "kind = rack\nfigure = F\ntitle = T\n"
        "sets = 2\nseed_base = 11\nwaves = 3\n"
        "[machine.m]\nnode = xeno\n"
        "[pool.a]\nmachines = m*8\n"
        "policy = dynamic-balanced\nbaseline = true\n"
        "[topology]\nmachines_per_rack = 4\nracks_per_pod = 2\n"
        "tor_oversub = 4.0\nagg_oversub = 2.0\n"
        "rack_hop_us = 5.0\nagg_hop_us = 20.0\n"
        "locality_bias = 0.5\n",
        "topo-roundtrip");
}

TEST(Spec, CheckedInConfsRoundTrip)
{
    // Every conf under examples/confs/ must parse, validate, and have
    // a canonical form that is a fixed point.
    std::vector<std::filesystem::path> confs;
    for (const auto &entry :
         std::filesystem::directory_iterator(XISA_CONF_DIR))
        if (entry.path().extension() == ".conf")
            confs.push_back(entry.path());
    std::sort(confs.begin(), confs.end());
    ASSERT_FALSE(confs.empty()) << "no .conf files in " << XISA_CONF_DIR;
    for (const std::filesystem::path &path : confs) {
        std::ifstream f(path);
        ASSERT_TRUE(f.is_open()) << "cannot read " << path;
        std::stringstream text;
        text << f.rdbuf();
        expectRoundTrip(text.str(), path.c_str());
    }
}

// --- Runner ------------------------------------------------------------

TEST(Runner, SweepRethrowsLowestIndexError)
{
    // A throwing cell must not take its worker thread (and the process)
    // down: the sweep rethrows what the sequential loop would have.
    setenv("XISA_BENCH_THREADS", "4", 1);
    try {
        runSweep(16, [](size_t i) {
            if (i == 5 || i == 11)
                fatal("cell %zu failed", i);
            return i;
        });
        ADD_FAILURE() << "no exception";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "cell 5 failed");
    }
    unsetenv("XISA_BENCH_THREADS");
}

TEST(Runner, RackStatsComeFromLastCell)
{
    // The rack set loop runs its (pool, set) cells on every worker;
    // --stats-json must still dump the registry of the last cell (last
    // pool, last set), whichever worker finished last.
    setenv("XISA_QUICK", "1", 1);
    setenv("XISA_BENCH_THREADS", "4", 1);
    ExperimentSpec spec = parseExperimentFile(
        std::string(XISA_CONF_DIR) + "/rack_scale.conf");
    Options opts;
    opts.statsJsonPath = testing::TempDir() + "rack_last_cell.json";
    testing::internal::CaptureStdout();
    int rc = runExperiment(spec, opts);
    testing::internal::GetCapturedStdout();
    unsetenv("XISA_BENCH_THREADS");
    unsetenv("XISA_QUICK");
    ASSERT_EQ(rc, 0);
    std::ifstream f(opts.statsJsonPath);
    std::stringstream got;
    got << f.rdbuf();

    const ClusterSpec &cl = spec.cluster;
    const PoolSpec &pool = cl.pools.back();
    const uint64_t set = static_cast<uint64_t>(spec.activeSets(true)) - 1;
    JobProfileTable table = JobProfileTable::calibrate();
    ClusterSim sim(cl.makePool(pool), table, cl.simConfig());
    sim.run(makePeriodicSet(spec.seedBase + set, spec.waves,
                            spec.jobsPerWavePerMachine * spec.poolMachines),
            pool.policy);
    std::ostringstream want;
    sim.statRegistry().dumpJson(want);
    EXPECT_EQ(got.str(), want.str());
}

} // namespace
