#include "traffic/traffic.hh"

#include <algorithm>
#include <cmath>

#include "compiler/compile.hh"
#include "exp/sweep.hh"
#include "os/os.hh"
#include "util/logging.hh"
#include "workload/workloads.hh"

namespace xisa::traffic {

namespace {

/**
 * Scale from kernel-op cost to request cost, the sched-layer
 * JobProfileTable idiom (kTimeScale): the REDIS kernel's hash ops are
 * toy-sized, so one calibrated op stands for the full parse +
 * hash-table + reply work of one production request. 1000x lands the
 * Xeno GET in the tens of microseconds, where a real in-memory store's
 * end-to-end service time lives.
 */
constexpr double kServiceScale = 1000.0;

/**
 * Disruption costs (migration pause, failover outage) scale less than
 * per-op costs: the transfer mostly pre-copies while the shard keeps
 * serving, so only the stop-and-copy tail shows up as pause.
 */
constexpr double kDisruptScale = 100.0;

constexpr double kLn2 = 0.6931471805599453;

} // namespace

double
detLog(double x)
{
    // x = m * 2^e with m in [1/sqrt2, sqrt2): atanh series in
    // z = (m-1)/(m+1), |z| <= 0.1716, truncated at z^15 (~1e-14 rel).
    int e = 0;
    double m = std::frexp(x, &e);
    if (m < 0.70710678118654752440) {
        m *= 2.0;
        e -= 1;
    }
    const double z = (m - 1.0) / (m + 1.0);
    const double z2 = z * z;
    double term = z;
    double sum = 0.0;
    for (int k = 1; k <= 15; k += 2) {
        sum += term / k;
        term *= z2;
    }
    return 2.0 * sum + static_cast<double>(e) * kLn2;
}

double
detExp(double x)
{
    // x = k*ln2 + r with |r| <= ln2/2: Taylor in r, then ldexp.
    const double k = std::floor(x / kLn2 + 0.5);
    const double r = x - k * kLn2;
    double term = 1.0;
    double sum = 1.0;
    for (int i = 1; i <= 14; ++i) {
        term *= r / i;
        sum += term;
    }
    return std::ldexp(sum, static_cast<int>(k));
}

double
detPow(double x, double y)
{
    if (y == 0.0 || x == 1.0)
        return 1.0;
    return detExp(y * detLog(x));
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// --- ZipfGenerator --------------------------------------------------

ZipfGenerator::ZipfGenerator(int64_t n, double theta)
    : n_(n > 0 ? n : 1), theta_(theta)
{
    if (theta_ <= 0.0 || n_ <= 1)
        return;
    for (int64_t i = 1; i <= n_; ++i)
        zetan_ += 1.0 / detPow(static_cast<double>(i), theta_);
    zetaHalf_ = detPow(0.5, theta_);
    const double zeta2 = 1.0 + zetaHalf_;
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - detPow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
}

int64_t
ZipfGenerator::sample(Rng &rng) const
{
    if (theta_ <= 0.0 || n_ <= 1)
        return static_cast<int64_t>(
            rng.below(static_cast<uint64_t>(n_)));
    // Gray et al.'s rejection-free inverse: one uniform per sample.
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + zetaHalf_)
        return 1;
    int64_t k = static_cast<int64_t>(
        static_cast<double>(n_) *
        detPow(eta_ * u - eta_ + 1.0, alpha_));
    if (k < 0)
        k = 0;
    return k >= n_ ? n_ - 1 : k;
}

// --- Stream generation ----------------------------------------------

std::vector<Request>
generateRequests(const TrafficConfig &cfg)
{
    std::vector<Request> out;
    const double rate = cfg.totalRate();
    if (rate <= 0.0 || cfg.durationSeconds <= 0.0 || cfg.shards < 1 ||
        cfg.keySpace < 1)
        return out;
    out.reserve(static_cast<size_t>(rate * cfg.durationSeconds * 1.1) +
                16);

    Rng rng(cfg.seed);
    ZipfGenerator zipf(cfg.keySpace, cfg.zipfSkew);
    const uint64_t keySpace = static_cast<uint64_t>(cfg.keySpace);
    const uint64_t shards = static_cast<uint64_t>(cfg.shards);
    double t = 0.0;
    for (;;) {
        // Poisson arrivals: exponential inter-arrival by inverse CDF.
        t += -detLog(1.0 - rng.uniform()) / rate;
        if (t >= cfg.durationSeconds)
            break;
        Request r;
        r.arrival = t;
        // Scramble the popularity rank so hot keys spread over the key
        // space (and thus over shards) instead of clustering at 0.
        const uint64_t rank = static_cast<uint64_t>(zipf.sample(rng));
        r.key = static_cast<uint32_t>(mix64(rank) % keySpace);
        r.shard = static_cast<uint16_t>(mix64(r.key) % shards);
        r.isGet = rng.uniform() < cfg.getFraction;
        r.decile = static_cast<uint8_t>(rank * 10 / keySpace);
        out.push_back(r);
    }
    return out;
}

// --- ServingProfile -------------------------------------------------

ServingProfile
ServingProfile::synthetic()
{
    ServingProfile p;
    const size_t xeno = static_cast<size_t>(IsaId::Xeno64);
    const size_t aether = static_cast<size_t>(IsaId::Aether64);
    p.getSeconds[xeno] = 25e-6;
    p.setSeconds[xeno] = 40e-6;
    p.getSeconds[aether] = 75e-6;
    p.setSeconds[aether] = 120e-6;
    p.migrateSeconds = 2e-3;
    p.failoverSeconds = 20e-3;
    p.coldFactor = 1.0;
    p.coldRequests = 256;
    return p;
}

ServingProfile
ServingProfile::calibrate()
{
    ServingProfile p = synthetic();
    Module mod = buildWorkload(WorkloadId::REDIS, ProblemClass::A);
    MultiIsaBinary bin = compileModule(mod);
    const double ops = 16384.0 * classScale(ProblemClass::A);

    // Two single-node runs for the per-op costs, then one real
    // cross-ISA live migration of the serving binary: the pause
    // between trapping at a migration point and resuming on the other
    // ISA is what a shard sees when moved mid-traffic. The three runs
    // are independent, so they share one sweep: secs[0..1] are the
    // presets' makespans, secs[2] the migration pause.
    const NodeSpec presets[2] = {makeXenoServer(), makeAetherServer()};
    std::vector<double> secs = exp::runSweep(3, [&](size_t i) {
        if (i < 2)
            return exp::runSingleNode(bin, presets[i]).makespanSeconds;
        ReplicatedOS os(bin, OsConfig::dualServer());
        os.load(0);
        bool fired = false;
        os.onQuantum = [&](ReplicatedOS &self) {
            if (fired || self.totalInstrs() < 100000)
                return;
            fired = true;
            self.migrateProcess(1);
        };
        os.run();
        double pause = 0.0;
        for (const MigrationEvent &ev : os.migrations())
            pause += ev.resumeTime - ev.trapTime;
        return pause;
    });

    for (size_t k = 0; k < 2; ++k) {
        const double perOp = secs[k] / ops * kServiceScale;
        const size_t i = static_cast<size_t>(presets[k].isa);
        // The kernel interleaves GETs and SETs; split the measured
        // average with a fixed ratio (SETs write slot + value).
        p.getSeconds[i] = perOp * 0.85;
        p.setSeconds[i] = perOp * 1.35;
    }
    if (secs[2] > 0.0)
        p.migrateSeconds = secs[2] * kDisruptScale;
    // Losing the node costs roughly an order of magnitude more than a
    // planned move: failure detection, directory reconstruction, and
    // journal replay on the survivor (the PR 5 recovery path).
    p.failoverSeconds = p.migrateSeconds * 10.0;
    return p;
}

// --- ServingSim -----------------------------------------------------

ServingSim::ServingSim(ServingConfig cfg, ServingProfile prof,
                       obs::StatRegistry &reg,
                       const std::string &prefix)
    : cfg_(std::move(cfg)), prof_(std::move(prof))
{
    reg.attach(prefix + ".requests", requests_);
    reg.attach(prefix + ".gets", gets_);
    reg.attach(prefix + ".sets", sets_);
    reg.attach(prefix + ".slo_violations", sloViolations_);
    reg.attach(prefix + ".migrations", migrations_);
    reg.attach(prefix + ".failovers", failovers_);
    if (!cfg_.brownouts.empty()) {
        reg.attach(prefix + ".shed", shed_);
        reg.attach(prefix + ".slo_violations_degraded",
                   violationsDegraded_);
    }
    reg.attach(prefix + ".latency_us", latencyUs_);
    nodeServed_.reserve(cfg_.nodes.size());
    for (size_t i = 0; i < cfg_.nodes.size(); ++i) {
        nodeServed_.emplace_back();
        reg.attach(prefix + ".node" + std::to_string(i) + ".served",
                   nodeServed_.back());
    }
}

ServingResult
ServingSim::run(const std::vector<Request> &reqs)
{
    const size_t n = reqs.size();
    const int shards = static_cast<int>(cfg_.placement.size());
    const int numNodes = static_cast<int>(cfg_.nodes.size());
    if (shards < 1 || numNodes < 1)
        panic("ServingSim: empty placement or node list");
    for (int nd : cfg_.placement)
        if (nd < 0 || nd >= numNodes)
            panic("ServingSim: placement references node %d", nd);
    if (!cfg_.nodeRack.empty() &&
        cfg_.nodeRack.size() != cfg_.nodes.size())
        panic("ServingSim: nodeRack has %zu entries for %zu nodes",
              cfg_.nodeRack.size(), cfg_.nodes.size());
    for (const BrownoutWindow &w : cfg_.brownouts)
        if (w.end < w.start || w.shedDeciles < 1 || w.shedDeciles > 10)
            panic("ServingSim: bad brownout window [%g, %g) "
                  "shed_deciles=%d",
                  w.start, w.end, w.shedDeciles);

    std::vector<std::vector<uint32_t>> perShard(shards);
    for (size_t i = 0; i < n; ++i)
        perShard[reqs[i].shard].push_back(static_cast<uint32_t>(i));

    // Per-shard schedule: this shard's migrations plus every crash
    // (crashes only bite if the shard sits on the node when it dies),
    // sorted by time with a deterministic tie-break.
    struct Event {
        double time = 0;
        bool isCrash = false;
        int node = 0;       ///< migration destination / crashed node
        double down = 0;    ///< crash only
    };
    std::vector<std::vector<Event>> schedule(shards);
    for (const ShardMigration &m : cfg_.migrations) {
        if (m.shard < 0 || m.shard >= shards || m.node < 0 ||
            m.node >= numNodes)
            panic("ServingSim: bad migration shard=%d node=%d",
                  m.shard, m.node);
        schedule[m.shard].push_back({m.time, false, m.node, 0});
    }
    for (const NodeCrash &c : cfg_.crashes) {
        if (c.node < 0 || c.node >= numNodes)
            panic("ServingSim: crash references node %d", c.node);
        for (int s = 0; s < shards; ++s)
            schedule[s].push_back(
                {c.time, true, c.node, c.downSeconds});
    }
    for (std::vector<Event> &evs : schedule)
        std::stable_sort(evs.begin(), evs.end(),
                         [](const Event &a, const Event &b) {
                             if (a.time != b.time)
                                 return a.time < b.time;
                             if (a.isCrash != b.isCrash)
                                 return a.isCrash; // crashes first
                             return a.node < b.node;
                         });

    auto alive = [&](int nd, double t) {
        for (const NodeCrash &c : cfg_.crashes)
            if (c.node == nd && t >= c.time &&
                t < c.time + c.downSeconds)
                return false;
        return true;
    };
    // Pure function of (arrival, decile) and the config, so shedding
    // decisions are identical on every worker layout.
    auto shedNow = [&](const Request &r) {
        for (const BrownoutWindow &w : cfg_.brownouts)
            if (r.arrival >= w.start && r.arrival < w.end &&
                static_cast<int>(r.decile) >= 10 - w.shedDeciles)
                return true;
        return false;
    };

    // Simulate the shards in parallel. Every per-request quantity is a
    // pure function of the stream and the config, and the workers
    // write into disjoint slots of the index-ordered arrays, so the
    // worker count cannot change a single byte of the result.
    std::vector<double> latSeconds(n);
    std::vector<double> finishAt(n);
    std::vector<int32_t> servedOn(n);
    struct ShardAgg {
        uint64_t migrations = 0, failovers = 0;
    };
    std::vector<ShardAgg> aggs =
        exp::runSweep(static_cast<size_t>(shards), [&](size_t s) {
            ShardAgg agg;
            int node = cfg_.placement[s];
            double clock = 0.0;
            int coldLeft = 0;
            const std::vector<Event> &evs = schedule[s];
            size_t ei = 0;

            auto apply = [&](const Event &ev) {
                if (ev.isCrash) {
                    if (ev.node != node)
                        return;
                    // Failure-domain-aware failover: the dead node's
                    // rack is usually failing with it (ToR or PDU), so
                    // prefer the lowest-index survivor OUTSIDE that
                    // rack and only fall back to a rack-mate when no
                    // other rack has capacity. An empty nodeRack map
                    // keeps the legacy rack-blind scan byte-for-byte.
                    const int deadRack = cfg_.nodeRack.empty()
                                             ? -1
                                             : cfg_.nodeRack[static_cast<
                                                   size_t>(ev.node)];
                    int survivor = -1;
                    if (deadRack >= 0) {
                        for (int cand = 0; cand < numNodes; ++cand) {
                            if (cand != ev.node &&
                                cfg_.nodeRack[static_cast<size_t>(
                                    cand)] != deadRack &&
                                alive(cand, ev.time)) {
                                survivor = cand;
                                break;
                            }
                        }
                    }
                    if (survivor < 0) {
                        for (int cand = 0; cand < numNodes; ++cand) {
                            if (cand != ev.node &&
                                alive(cand, ev.time)) {
                                survivor = cand;
                                break;
                            }
                        }
                    }
                    if (survivor >= 0) {
                        clock = std::max(clock, ev.time) +
                                prof_.failoverSeconds;
                        node = survivor;
                    } else {
                        // No survivor: wait out the outage in place.
                        clock = std::max(clock, ev.time + ev.down) +
                                prof_.failoverSeconds;
                    }
                    coldLeft = prof_.coldRequests;
                    ++agg.failovers;
                } else {
                    if (ev.node == node || !alive(ev.node, ev.time))
                        return;
                    clock = std::max(clock, ev.time) +
                            prof_.migrateSeconds;
                    node = ev.node;
                    coldLeft = prof_.coldRequests;
                    ++agg.migrations;
                }
            };
            auto serviceSeconds = [&](const Request &r) {
                const size_t isa =
                    static_cast<size_t>(cfg_.nodes[node].isa);
                double base = r.isGet ? prof_.getSeconds[isa]
                                      : prof_.setSeconds[isa];
                // Key-dependent spread (value size / probe length):
                // 0.75x .. 1.24x, fixed per (key, op).
                const uint64_t h = mix64(
                    static_cast<uint64_t>(r.key) * 2 +
                    (r.isGet ? 1 : 0));
                base *= 0.75 +
                        static_cast<double>(h & 63) / 128.0;
                if (coldLeft > 0)
                    base *= 1.0 + prof_.coldFactor *
                                      static_cast<double>(coldLeft) /
                                      prof_.coldRequests;
                return base;
            };

            for (uint32_t idx : perShard[s]) {
                const Request &r = reqs[idx];
                if (shedNow(r)) {
                    // Shed at the door: no service, no queueing, and
                    // the shard clock stays put. Events up to the
                    // arrival still fire so node state keeps moving.
                    while (ei < evs.size() &&
                           evs[ei].time <= r.arrival)
                        apply(evs[ei++]);
                    latSeconds[idx] = 0.0;
                    finishAt[idx] = r.arrival;
                    servedOn[idx] = -1;
                    continue;
                }
                for (;;) {
                    double start = std::max(r.arrival, clock);
                    while (ei < evs.size() &&
                           evs[ei].time <= start) {
                        apply(evs[ei++]);
                        start = std::max(r.arrival, clock);
                    }
                    const double done = start + serviceSeconds(r);
                    if (ei < evs.size() && evs[ei].time < done) {
                        // The event preempts the in-flight request:
                        // for a crash the work is lost; for a live
                        // migration the request is replayed on the
                        // destination after the pause. Either way its
                        // latency keeps growing until it completes.
                        apply(evs[ei++]);
                        continue;
                    }
                    clock = done;
                    if (coldLeft > 0)
                        --coldLeft;
                    latSeconds[idx] = done - r.arrival;
                    finishAt[idx] = done;
                    servedOn[idx] = node;
                    break;
                }
            }
            return agg;
        });

    // Accounting in global arrival order: histogram fills and counter
    // bumps happen in one fixed sequence regardless of worker count.
    ServingResult res;
    res.requests = n;
    res.servedByNode.assign(cfg_.nodes.size(), 0);
    res.servedByNodeAfterCrash.assign(cfg_.nodes.size(), 0);
    for (const ShardAgg &a : aggs) {
        res.migrations += a.migrations;
        res.failovers += a.failovers;
    }
    migrations_.add(res.migrations);
    failovers_.add(res.failovers);

    double firstCrash = -1.0;
    for (const NodeCrash &c : cfg_.crashes)
        if (firstCrash < 0.0 || c.time < firstCrash)
            firstCrash = c.time;

    auto inBrownout = [&](double t) {
        for (const BrownoutWindow &w : cfg_.brownouts)
            if (t >= w.start && t < w.end)
                return true;
        return false;
    };

    for (size_t i = 0; i < n; ++i) {
        ++requests_;
        if (servedOn[i] < 0) {
            // Shed at the door: counted as a request (and as shed),
            // but it never ran, so it contributes no latency sample,
            // no GET/SET split, and no SLO violation.
            ++shed_;
            ++res.shed;
            res.violationsByDecile[i * 10 / (n ? n : 1)] =
                res.sloViolations;
            continue;
        }
        const double us = latSeconds[i] * 1e6;
        latencyUs_.add(us);
        if (reqs[i].isGet) {
            ++gets_;
            ++res.gets;
        } else {
            ++sets_;
            ++res.sets;
        }
        if (us > cfg_.sloUs) {
            ++sloViolations_;
            ++res.sloViolations;
            if (inBrownout(reqs[i].arrival)) {
                ++violationsDegraded_;
                ++res.violationsDegraded;
            }
        }
        const int nd = servedOn[i];
        ++nodeServed_[static_cast<size_t>(nd)];
        ++res.servedByNode[static_cast<size_t>(nd)];
        if (firstCrash >= 0.0 && finishAt[i] > firstCrash)
            ++res.servedByNodeAfterCrash[static_cast<size_t>(nd)];
        res.violationsByDecile[i * 10 / (n ? n : 1)] =
            res.sloViolations;
    }
    for (size_t d = 1; d < res.violationsByDecile.size(); ++d)
        res.violationsByDecile[d] = std::max(
            res.violationsByDecile[d], res.violationsByDecile[d - 1]);

    res.p50Us = latencyUs_.percentile(0.5);
    res.p99Us = latencyUs_.percentile(0.99);
    res.p999Us = latencyUs_.percentile(0.999);
    res.maxUs = latencyUs_.max();
    return res;
}

} // namespace xisa::traffic
