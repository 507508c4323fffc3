/**
 * @file
 * Unit tests for the traffic layer: the deterministic transcendentals,
 * the statistical shape of the generated stream (Poisson arrivals,
 * Zipf popularity, GET/SET mix, key-hash sharding), and the serving
 * simulator's core contracts -- byte-determinism across worker counts,
 * live migration relieving an overloaded shard, and result fields
 * agreeing with the registered counters -- plus the chunked stream and
 * replay against the one-at-a-time loop and the whole-stream run.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "machine/node.hh"
#include "obs/registry.hh"
#include "traffic/traffic.hh"
#include "util/rng.hh"

namespace xisa {
namespace {

using traffic::Request;
using traffic::ServingConfig;
using traffic::ServingProfile;
using traffic::ServingResult;
using traffic::ServingSim;
using traffic::TrafficConfig;

/** A small stream that runs in milliseconds. */
TrafficConfig
smallConfig()
{
    TrafficConfig cfg;
    cfg.seed = 7;
    cfg.clients = 1000;
    cfg.requestHz = 20.0; // 20k req/s aggregate
    cfg.durationSeconds = 0.5;
    cfg.zipfSkew = 0.99;
    cfg.keySpace = 4096;
    cfg.getFraction = 0.9;
    cfg.shards = 4;
    return cfg;
}

std::string
dumpRegistry(const obs::StatRegistry &reg)
{
    std::ostringstream os;
    reg.dumpJson(os);
    return os.str();
}

TEST(Traffic, DetMathMatchesLibm)
{
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
        double x = rng.uniform(1e-6, 1e6);
        EXPECT_NEAR(traffic::detLog(x), std::log(x),
                    1e-12 * std::fabs(std::log(x)) + 1e-13)
            << "log(" << x << ")";
    }
    for (int i = 0; i < 2000; ++i) {
        double x = rng.uniform(-40.0, 40.0);
        EXPECT_NEAR(traffic::detExp(x), std::exp(x),
                    1e-12 * std::exp(x))
            << "exp(" << x << ")";
    }
    for (int i = 0; i < 2000; ++i) {
        double x = rng.uniform(0.01, 100.0);
        double y = rng.uniform(-3.0, 3.0);
        EXPECT_NEAR(traffic::detPow(x, y), std::pow(x, y),
                    1e-11 * std::pow(x, y))
            << x << "^" << y;
    }
}

TEST(Traffic, PoissonStreamHasExpectedRateAndOrder)
{
    TrafficConfig cfg = smallConfig();
    std::vector<Request> reqs = traffic::generateRequests(cfg);

    // Count within 5 sigma of rate * duration.
    const double expected = cfg.totalRate() * cfg.durationSeconds;
    EXPECT_NEAR(static_cast<double>(reqs.size()), expected,
                5.0 * std::sqrt(expected));

    double prev = 0.0;
    for (const Request &r : reqs) {
        EXPECT_GE(r.arrival, prev);
        EXPECT_LT(r.arrival, cfg.durationSeconds);
        prev = r.arrival;
    }
}

TEST(Traffic, ZipfSkewConcentratesMass)
{
    // Under theta = 0.99 the hottest 1% of keys should absorb a large
    // share of the stream; under theta = 0 they should absorb ~1%.
    for (double theta : {0.0, 0.99}) {
        TrafficConfig cfg = smallConfig();
        cfg.zipfSkew = theta;
        std::vector<Request> reqs = traffic::generateRequests(cfg);
        std::map<uint32_t, uint64_t> byKey;
        for (const Request &r : reqs)
            ++byKey[r.key];
        std::vector<uint64_t> counts;
        for (const auto &[k, n] : byKey)
            counts.push_back(n);
        std::sort(counts.rbegin(), counts.rend());
        uint64_t top = 0, total = reqs.size();
        size_t topKeys = static_cast<size_t>(cfg.keySpace / 100);
        for (size_t i = 0; i < topKeys && i < counts.size(); ++i)
            top += counts[i];
        double share = static_cast<double>(top) /
                       static_cast<double>(total);
        // Uniform sampling is sparse here (~2.4 requests per key), so
        // the top 1% of keys still overshoot 1% of the mass by order
        // statistics; 10% keeps a wide margin to the skewed case.
        if (theta > 0.5)
            EXPECT_GT(share, 0.30) << "theta=" << theta;
        else
            EXPECT_LT(share, 0.10) << "theta=" << theta;
    }
}

TEST(Traffic, MixAndShardingRespectConfig)
{
    TrafficConfig cfg = smallConfig();
    std::vector<Request> reqs = traffic::generateRequests(cfg);
    ASSERT_FALSE(reqs.empty());

    uint64_t gets = 0;
    std::vector<uint64_t> perShard(cfg.shards, 0);
    for (const Request &r : reqs) {
        if (r.isGet)
            ++gets;
        ASSERT_LT(r.key, cfg.keySpace);
        ASSERT_LT(r.shard, cfg.shards);
        EXPECT_EQ(r.shard,
                  traffic::mix64(r.key) %
                      static_cast<uint64_t>(cfg.shards));
        ++perShard[r.shard];
    }
    EXPECT_NEAR(static_cast<double>(gets) /
                    static_cast<double>(reqs.size()),
                cfg.getFraction, 0.02);
    for (uint64_t n : perShard)
        EXPECT_GT(n, 0u);
}

TEST(Traffic, SameSeedSameStreamDifferentSeedDiffers)
{
    TrafficConfig cfg = smallConfig();
    std::vector<Request> a = traffic::generateRequests(cfg);
    std::vector<Request> b = traffic::generateRequests(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].isGet, b[i].isGet);
    }
    cfg.seed = 8;
    std::vector<Request> c = traffic::generateRequests(cfg);
    bool differs = c.size() != a.size();
    for (size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].arrival != c[i].arrival || a[i].key != c[i].key;
    EXPECT_TRUE(differs);
}

/** Two nodes: fast xeno (0), slow aether (1). */
ServingConfig
twoNodeConfig(int shards)
{
    ServingConfig cfg;
    cfg.nodes = {makeXenoServer(), makeAetherServer()};
    cfg.placement.assign(shards, 1);
    cfg.sloUs = 800.0;
    return cfg;
}

/**
 * The one-request-at-a-time generator loop that RequestStream
 * replaced, kept as the oracle for the chunked stream.
 */
std::vector<Request>
serialRequests(const TrafficConfig &cfg)
{
    std::vector<Request> out;
    const double rate = cfg.totalRate();
    Rng rng(cfg.seed);
    traffic::ZipfGenerator zipf(cfg.keySpace, cfg.zipfSkew);
    const uint64_t keySpace = static_cast<uint64_t>(cfg.keySpace);
    const uint64_t shards = static_cast<uint64_t>(cfg.shards);
    double t = 0.0;
    for (;;) {
        t += -traffic::detLog(1.0 - rng.uniform()) / rate;
        if (t >= cfg.durationSeconds)
            break;
        Request r;
        r.arrival = t;
        const uint64_t rank = static_cast<uint64_t>(zipf.sample(rng));
        r.key = static_cast<uint32_t>(traffic::mix64(rank) % keySpace);
        r.shard = static_cast<uint16_t>(traffic::mix64(r.key) % shards);
        r.isGet = rng.uniform() < cfg.getFraction;
        r.decile = static_cast<uint8_t>(rank * 10 / keySpace);
        out.push_back(r);
    }
    return out;
}

/** Index of the first request where the streams differ, or -1. */
long
firstDifference(const std::vector<Request> &a,
                const std::vector<Request> &b)
{
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        if (a[i].arrival != b[i].arrival || a[i].key != b[i].key ||
            a[i].shard != b[i].shard || a[i].isGet != b[i].isGet ||
            a[i].decile != b[i].decile)
            return static_cast<long>(i);
    return a.size() == b.size() ? -1 : static_cast<long>(
                                           std::min(a.size(), b.size()));
}

TEST(Traffic, ChunkedStreamMatchesSerialLoop)
{
    // ~2.3 chunks of requests, so chunk boundaries and the overdrawn
    // tail of the last chunk are both crossed.
    TrafficConfig cfg = smallConfig();
    cfg.requestHz = 300.0;
    struct Keys {
        double skew;
        int64_t space;
    };
    for (const Keys &k : {Keys{0.0, 4096}, Keys{0.99, 4096},
                          Keys{0.99, 10007}, Keys{0.0, 10007}}) {
        cfg.zipfSkew = k.skew;
        cfg.keySpace = k.space;
        const std::vector<Request> oracle = serialRequests(cfg);
        ASSERT_GT(oracle.size(), 2 * traffic::RequestStream::kChunkRequests);
        for (const char *threads : {"1", "3", "8"}) {
            setenv("XISA_BENCH_THREADS", threads, 1);
            EXPECT_EQ(firstDifference(traffic::generateRequests(cfg),
                                      oracle),
                      -1)
                << "skew " << k.skew << " key_space " << k.space
                << " threads " << threads;
        }
        unsetenv("XISA_BENCH_THREADS");
    }

    // Chunks come full until the last one, which ends the stream.
    traffic::RequestStream stream(cfg);
    size_t total = 0;
    for (;;) {
        const std::vector<Request> &chunk = stream.next();
        total += chunk.size();
        if (chunk.size() < traffic::RequestStream::kChunkRequests)
            break;
    }
    EXPECT_TRUE(stream.next().empty());
    EXPECT_EQ(total, serialRequests(cfg).size());
}

/** Every field of two results, for the chunked-replay oracle. */
void
expectSameResult(const ServingResult &a, const ServingResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.requests, b.requests) << what;
    EXPECT_EQ(a.gets, b.gets) << what;
    EXPECT_EQ(a.sets, b.sets) << what;
    EXPECT_EQ(a.sloViolations, b.sloViolations) << what;
    EXPECT_EQ(a.violationsDegraded, b.violationsDegraded) << what;
    EXPECT_EQ(a.shed, b.shed) << what;
    EXPECT_EQ(a.migrations, b.migrations) << what;
    EXPECT_EQ(a.failovers, b.failovers) << what;
    EXPECT_EQ(a.p50Us, b.p50Us) << what;
    EXPECT_EQ(a.p99Us, b.p99Us) << what;
    EXPECT_EQ(a.p999Us, b.p999Us) << what;
    EXPECT_EQ(a.maxUs, b.maxUs) << what;
    EXPECT_EQ(a.violationsByDecile, b.violationsByDecile) << what;
    EXPECT_EQ(a.servedByNode, b.servedByNode) << what;
    EXPECT_EQ(a.servedByNodeAfterCrash, b.servedByNodeAfterCrash) << what;
}

TEST(Traffic, ChunkedReplayMatchesWholeRun)
{
    // Two racks of a fast and a slow node; shards migrate (shard 0
    // there and back, so a replayed event would show), node 1 crashes
    // mid-run (rack-aware failover), and a brownout sheds the coldest
    // deciles while it is down.
    TrafficConfig cfg = smallConfig();
    cfg.requestHz = 40.0;
    const std::vector<Request> reqs = traffic::generateRequests(cfg);
    ServingConfig sc;
    sc.nodes = {makeXenoServer(), makeAetherServer(), makeXenoServer(),
                makeAetherServer()};
    sc.nodeRack = {0, 0, 1, 1};
    sc.placement = {1, 1, 3, 3};
    sc.sloUs = 800.0;
    sc.migrations = {{0, 0.1, 0}, {2, 0.15, 2}, {1, 0.3, 2}, {0, 0.32, 1}};
    sc.crashes = {{1, 0.2, 0.1}, {3, 0.35, 0.05}};
    sc.brownouts = {{0.2, 0.3, 3}};

    obs::StatRegistry wholeReg;
    ServingSim whole(sc, ServingProfile::synthetic(), wholeReg, "s");
    const ServingResult expect = whole.run(reqs);
    ASSERT_GT(expect.shed, 0u);
    ASSERT_GT(expect.failovers, 0u);
    ASSERT_GT(expect.migrations, 0u);
    ASSERT_GT(expect.violationsDegraded, 0u);
    const std::string expectDump = dumpRegistry(wholeReg);

    struct Split {
        size_t chunk;
        const char *threads;
    };
    for (const Split &sp : {Split{1, "1"}, Split{7, "2"},
                            Split{4096, "3"}, Split{reqs.size(), "8"}}) {
        setenv("XISA_BENCH_THREADS", sp.threads, 1);
        obs::StatRegistry reg;
        ServingSim sim(sc, ServingProfile::synthetic(), reg, "s");
        sim.begin();
        for (size_t at = 0; at < reqs.size(); at += sp.chunk)
            sim.feed(std::span<const Request>(reqs).subspan(
                at, std::min(sp.chunk, reqs.size() - at)));
        const std::string what = "chunk " + std::to_string(sp.chunk);
        expectSameResult(sim.finish(), expect, what);
        EXPECT_EQ(dumpRegistry(reg), expectDump) << what;
    }

    // Two scenarios fed side by side equal two separate runs.
    ServingConfig other = twoNodeConfig(4);
    other.crashes = {{1, 0.25, 30.0}};
    obs::StatRegistry sepReg;
    ServingSim sepA(sc, ServingProfile::synthetic(), sepReg, "a");
    ServingSim sepB(other, ServingProfile::synthetic(), sepReg, "b");
    const ServingResult ra = sepA.run(reqs);
    const ServingResult rb = sepB.run(reqs);
    obs::StatRegistry reg;
    ServingSim a(sc, ServingProfile::synthetic(), reg, "a");
    ServingSim b(other, ServingProfile::synthetic(), reg, "b");
    a.begin();
    b.begin();
    for (size_t at = 0; at < reqs.size(); at += 4096)
        ServingSim::feedAll({&a, &b},
                            std::span<const Request>(reqs).subspan(
                                at, std::min<size_t>(4096,
                                                     reqs.size() - at)));
    unsetenv("XISA_BENCH_THREADS");
    expectSameResult(a.finish(), ra, "side by side a");
    expectSameResult(b.finish(), rb, "side by side b");
    EXPECT_EQ(dumpRegistry(reg), dumpRegistry(sepReg));
}

TEST(Traffic, ServingBytesIdenticalAcrossWorkerCounts)
{
    TrafficConfig cfg = smallConfig();
    std::vector<Request> reqs = traffic::generateRequests(cfg);
    ServingConfig sc = twoNodeConfig(cfg.shards);
    sc.migrations = {{0, 0.2, 0}, {2, 0.3, 0}};
    sc.crashes = {{0, 0.4, 30.0}};

    std::string dumps[2];
    const char *threads[2] = {"1", "7"};
    for (int i = 0; i < 2; ++i) {
        setenv("XISA_BENCH_THREADS", threads[i], 1);
        obs::StatRegistry reg;
        ServingSim sim(sc, ServingProfile::synthetic(), reg, "serving");
        sim.run(reqs);
        dumps[i] = dumpRegistry(reg);
    }
    unsetenv("XISA_BENCH_THREADS");
    EXPECT_EQ(dumps[0], dumps[1])
        << "stats bytes depend on the worker count";
}

TEST(Traffic, CalibrateMatchesSerialLoop)
{
    // measure() runs its three simulations through the sweep driver;
    // at one worker that is a plain serial loop, and four workers must
    // give the same profile bit for bit.
    ServingProfile p[2];
    const char *threads[2] = {"1", "4"};
    for (int i = 0; i < 2; ++i) {
        setenv("XISA_BENCH_THREADS", threads[i], 1);
        p[i] = ServingProfile::measure();
    }
    unsetenv("XISA_BENCH_THREADS");
    EXPECT_EQ(p[0].getSeconds, p[1].getSeconds);
    EXPECT_EQ(p[0].setSeconds, p[1].setSeconds);
    EXPECT_EQ(p[0].migrateSeconds, p[1].migrateSeconds);
    EXPECT_EQ(p[0].failoverSeconds, p[1].failoverSeconds);
    // The migration run really migrated: the pause is measured, not
    // the synthetic default.
    EXPECT_NE(p[1].migrateSeconds,
              ServingProfile::synthetic().migrateSeconds);
}

TEST(Traffic, MigrationRelievesOverloadedShard)
{
    // The stream overloads slow-node shards (synthetic aether mean
    // service ~80 us vs ~5 kreq/s per shard => utilization ~0.4; scale
    // the rate up so it tips past 1).
    TrafficConfig cfg = smallConfig();
    cfg.requestHz = 80.0; // 80 kreq/s: ~20 kreq/s per shard
    std::vector<Request> reqs = traffic::generateRequests(cfg);

    obs::StatRegistry reg;
    ServingConfig staticCfg = twoNodeConfig(cfg.shards);
    ServingSim staticSim(staticCfg, ServingProfile::synthetic(), reg,
                         "static");
    ServingResult rs = staticSim.run(reqs);

    ServingConfig migCfg = staticCfg;
    for (int s = 0; s < cfg.shards; ++s)
        migCfg.migrations.push_back({s, 0.1, 0});
    ServingSim migSim(migCfg, ServingProfile::synthetic(), reg, "mig");
    ServingResult rm = migSim.run(reqs);

    EXPECT_EQ(rm.migrations, static_cast<uint64_t>(cfg.shards));
    EXPECT_LT(rm.p99Us, rs.p99Us);
    EXPECT_LT(rm.sloViolations, rs.sloViolations);
    // Requests land on the destination node after the moves.
    EXPECT_GT(rm.servedByNode[0], 0u);
}

TEST(Traffic, ResultAgreesWithRegisteredCounters)
{
    TrafficConfig cfg = smallConfig();
    std::vector<Request> reqs = traffic::generateRequests(cfg);
    obs::StatRegistry reg;
    ServingConfig sc = twoNodeConfig(cfg.shards);
    sc.migrations = {{1, 0.25, 0}};
    ServingSim sim(sc, ServingProfile::synthetic(), reg, "s");
    ServingResult r = sim.run(reqs);

    EXPECT_EQ(r.requests, reqs.size());
    EXPECT_EQ(r.gets + r.sets, r.requests);
    EXPECT_EQ(reg.counterValue("s.requests"), r.requests);
    EXPECT_EQ(reg.counterValue("s.gets"), r.gets);
    EXPECT_EQ(reg.counterValue("s.sets"), r.sets);
    EXPECT_EQ(reg.counterValue("s.slo_violations"), r.sloViolations);
    EXPECT_EQ(reg.counterValue("s.migrations"), r.migrations);
    EXPECT_EQ(reg.counterValue("s.failovers"), r.failovers);
    uint64_t served = 0;
    for (size_t nd = 0; nd < r.servedByNode.size(); ++nd) {
        EXPECT_EQ(reg.counterValue("s.node" + std::to_string(nd) +
                                   ".served"),
                  r.servedByNode[nd]);
        served += r.servedByNode[nd];
    }
    EXPECT_EQ(served, r.requests);

    // Cumulative deciles are monotone and end at the total.
    for (size_t d = 1; d < r.violationsByDecile.size(); ++d)
        EXPECT_GE(r.violationsByDecile[d], r.violationsByDecile[d - 1]);
    EXPECT_EQ(r.violationsByDecile.back(), r.sloViolations);
}

} // namespace
} // namespace xisa
