#include "traffic/traffic.hh"

#include <algorithm>
#include <bit>
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

/** Set bits among the first `end` bits of `bits`. */
uint64_t
countLeadingBits(const std::vector<uint64_t> &bits, uint64_t end)
{
    uint64_t n = 0;
    for (uint64_t w = 0; w < end / 64; ++w)
        n += static_cast<uint64_t>(std::popcount(bits[w]));
    if (end % 64)
        n += static_cast<uint64_t>(std::popcount(
            bits[end / 64] & ((uint64_t{1} << (end % 64)) - 1)));
    return n;
}

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
    if (uniformRanks())
        return static_cast<int64_t>(
            rng.below(static_cast<uint64_t>(n_)));
    return rank(rng.uniform());
}

int64_t
ZipfGenerator::rank(double u) const
{
    // Gray et al.'s rejection-free inverse: one uniform per sample.
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

namespace {

/** Requests per slice of a chunk's parallel transform. */
constexpr size_t kSliceRequests = 4096;

/** False when the config describes no stream: NaN-safe, and an
 *  infinite rate or duration would never end. */
bool
hasStream(const TrafficConfig &cfg)
{
    const double rate = cfg.totalRate();
    return rate > 0.0 && std::isfinite(rate) &&
           cfg.durationSeconds > 0.0 &&
           std::isfinite(cfg.durationSeconds) && cfg.shards >= 1 &&
           cfg.keySpace >= 1;
}

} // namespace

RequestStream::RequestStream(const TrafficConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed), zipf_(cfg.keySpace, cfg.zipfSkew),
      done_(!hasStream(cfg))
{}

const std::vector<Request> &
RequestStream::next()
{
    chunk_.clear();
    if (done_)
        return chunk_;
    const size_t k = kChunkRequests;
    const bool uniformRanks = zipf_.uniformRanks();
    const uint64_t keySpace = static_cast<uint64_t>(cfg_.keySpace);
    const uint64_t shards = static_cast<uint64_t>(cfg_.shards);
    const double rate = cfg_.totalRate();
    chunk_.resize(k);
    gap_.resize(k);
    rank_.resize(k);
    getDraw_.resize(k);
    if (!uniformRanks)
        keyDraw_.resize(k);

    // 1. The raw draws, serially and in the one-at-a-time loop's
    // order. Slots past the end of the stream draw too; nothing reads
    // the generator afterwards, so the overdraw changes nothing.
    for (size_t j = 0; j < k; ++j) {
        gap_[j] = rng_.uniform();
        if (uniformRanks)
            rank_[j] = rng_.below(keySpace);
        else
            keyDraw_[j] = rng_.uniform();
        getDraw_[j] = rng_.uniform();
    }

    // 2. Everything that is a pure function of one slot's draws, in
    // parallel over fixed slices.
    exp::runSweep((k + kSliceRequests - 1) / kSliceRequests,
                  [&](size_t slice) {
        const size_t end = std::min(k, (slice + 1) * kSliceRequests);
        for (size_t j = slice * kSliceRequests; j < end; ++j) {
            // Poisson arrivals: exponential gap by inverse CDF.
            gap_[j] = -detLog(1.0 - gap_[j]) / rate;
            if (!uniformRanks)
                rank_[j] = static_cast<uint64_t>(zipf_.rank(keyDraw_[j]));
            // Scramble the popularity rank so hot keys spread over the
            // key space (and thus over shards) instead of clustering
            // at 0.
            Request &r = chunk_[j];
            r.key = static_cast<uint32_t>(mix64(rank_[j]) % keySpace);
            r.shard = static_cast<uint16_t>(mix64(r.key) % shards);
            r.isGet = getDraw_[j] < cfg_.getFraction;
            r.decile = static_cast<uint8_t>(rank_[j] * 10 / keySpace);
        }
        return 0;
    });

    // 3. Arrival times, serially: the running sum rounds in order.
    size_t n = 0;
    for (; n < k; ++n) {
        clock_ += gap_[n];
        if (clock_ >= cfg_.durationSeconds) {
            done_ = true;
            break;
        }
        chunk_[n].arrival = clock_;
    }
    chunk_.resize(n);
    return chunk_;
}

std::vector<Request>
generateRequests(const TrafficConfig &cfg)
{
    std::vector<Request> out;
    if (hasStream(cfg))
        out.reserve(static_cast<size_t>(cfg.totalRate() *
                                        cfg.durationSeconds * 1.1) +
                    16);
    RequestStream stream(cfg);
    for (;;) {
        const std::vector<Request> &chunk = stream.next();
        if (chunk.empty())
            return out;
        out.insert(out.end(), chunk.begin(), chunk.end());
    }
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
    // ServingProfile::measure(), bit for bit. When the cost model
    // changes, the calibration ctest fails and prints the replacement
    // block; paste it here.
    ServingProfile p = synthetic();
    const size_t aether = static_cast<size_t>(IsaId::Aether64);
    const size_t xeno = static_cast<size_t>(IsaId::Xeno64);
    p.getSeconds[aether] = 0x1.5037830041b6p-13;
    p.getSeconds[xeno] = 0x1.fa5aa50bfafebp-15;
    p.setSeconds[aether] = 0x1.0afee807bbb63p-12;
    p.setSeconds[xeno] = 0x1.921ace5c5660ep-14;
    p.migrateSeconds = 0x1.2e903deef2ceep-7;
    p.failoverSeconds = 0x1.7a344d6aaf82ap-4;
    return p;
}

ServingProfile
ServingProfile::measure()
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
    begin();
    const std::span<const Request> all(reqs);
    for (size_t at = 0; at < all.size();
         at += RequestStream::kChunkRequests)
        feed(all.subspan(at, std::min(RequestStream::kChunkRequests,
                                      all.size() - at)));
    return finish();
}

void
ServingSim::begin()
{
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

    // Per-shard schedule: this shard's migrations plus every crash,
    // sorted by time with a deterministic tie-break.
    shards_.assign(static_cast<size_t>(shards), Shard{});
    for (int s = 0; s < shards; ++s)
        shards_[static_cast<size_t>(s)].node =
            cfg_.placement[static_cast<size_t>(s)];
    for (const ShardMigration &m : cfg_.migrations) {
        if (m.shard < 0 || m.shard >= shards || m.node < 0 ||
            m.node >= numNodes)
            panic("ServingSim: bad migration shard=%d node=%d",
                  m.shard, m.node);
        shards_[static_cast<size_t>(m.shard)].events.push_back(
            {m.time, false, m.node, 0});
    }
    for (const NodeCrash &c : cfg_.crashes) {
        if (c.node < 0 || c.node >= numNodes)
            panic("ServingSim: crash references node %d", c.node);
        for (Shard &sh : shards_)
            sh.events.push_back({c.time, true, c.node, c.downSeconds});
    }
    for (Shard &sh : shards_)
        std::stable_sort(sh.events.begin(), sh.events.end(),
                         [](const Event &a, const Event &b) {
                             if (a.time != b.time)
                                 return a.time < b.time;
                             if (a.isCrash != b.isCrash)
                                 return a.isCrash; // crashes first
                             return a.node < b.node;
                         });

    firstCrash_ = -1.0;
    for (const NodeCrash &c : cfg_.crashes)
        if (firstCrash_ < 0.0 || c.time < firstCrash_)
            firstCrash_ = c.time;

    res_ = ServingResult{};
    res_.servedByNode.assign(cfg_.nodes.size(), 0);
    res_.servedByNodeAfterCrash.assign(cfg_.nodes.size(), 0);
    violated_.clear();
}

void
ServingSim::feed(std::span<const Request> chunk)
{
    feedAll({this}, chunk);
}

void
ServingSim::feedAll(const std::vector<ServingSim *> &sims,
                    std::span<const Request> chunk)
{
    if (sims.empty() || chunk.empty())
        return;
    const size_t shards = sims.front()->shards_.size();
    for (const ServingSim *sim : sims)
        if (sim->shards_.size() != shards)
            panic("ServingSim: feedAll over sims of %zu and %zu "
                  "shards (or a sim that has not begun)",
                  shards, sim->shards_.size());

    // Split the chunk by shard once; every sim replays the same split.
    std::vector<std::vector<uint32_t>> perShard(shards);
    for (size_t i = 0; i < chunk.size(); ++i) {
        if (chunk[i].shard >= shards)
            panic("ServingSim: request for shard %d of %zu",
                  static_cast<int>(chunk[i].shard), shards);
        perShard[chunk[i].shard].push_back(static_cast<uint32_t>(i));
    }
    for (ServingSim *sim : sims)
        sim->outcomes_.resize(chunk.size());

    // Every per-request quantity is a pure function of the stream,
    // the config and the shard's carried state, and each (sim, shard)
    // cell writes disjoint outcome slots, so the worker count cannot
    // change a single byte of the result.
    exp::runSweep(sims.size() * shards, [&](size_t cell) {
        ServingSim &sim = *sims[cell / shards];
        const size_t s = cell % shards;
        sim.replayShard(sim.shards_[s], chunk, perShard[s]);
        return 0;
    });
    // Each sim's accounting touches only its own stats.
    exp::runSweep(sims.size(), [&](size_t k) {
        sims[k]->account(chunk);
        return 0;
    });
}

bool
ServingSim::alive(int nd, double t) const
{
    for (const NodeCrash &c : cfg_.crashes)
        if (c.node == nd && t >= c.time && t < c.time + c.downSeconds)
            return false;
    return true;
}

bool
ServingSim::shedNow(const Request &r) const
{
    // Pure function of (arrival, decile) and the config, so shedding
    // decisions are identical on every worker layout.
    for (const BrownoutWindow &w : cfg_.brownouts)
        if (r.arrival >= w.start && r.arrival < w.end &&
            static_cast<int>(r.decile) >= 10 - w.shedDeciles)
            return true;
    return false;
}

bool
ServingSim::inBrownout(double t) const
{
    for (const BrownoutWindow &w : cfg_.brownouts)
        if (t >= w.start && t < w.end)
            return true;
    return false;
}

void
ServingSim::apply(Shard &sh, const Event &ev) const
{
    const int numNodes = static_cast<int>(cfg_.nodes.size());
    if (ev.isCrash) {
        if (ev.node != sh.node)
            return;
        // Failure-domain-aware failover: the dead node's rack is
        // usually failing with it (ToR or PDU), so prefer the
        // lowest-index survivor OUTSIDE that rack and only fall back
        // to a rack-mate when no other rack has capacity. An empty
        // nodeRack map keeps the legacy rack-blind scan byte-for-byte.
        const int deadRack =
            cfg_.nodeRack.empty()
                ? -1
                : cfg_.nodeRack[static_cast<size_t>(ev.node)];
        int survivor = -1;
        if (deadRack >= 0) {
            for (int cand = 0; cand < numNodes; ++cand) {
                if (cand != ev.node &&
                    cfg_.nodeRack[static_cast<size_t>(cand)] !=
                        deadRack &&
                    alive(cand, ev.time)) {
                    survivor = cand;
                    break;
                }
            }
        }
        if (survivor < 0) {
            for (int cand = 0; cand < numNodes; ++cand) {
                if (cand != ev.node && alive(cand, ev.time)) {
                    survivor = cand;
                    break;
                }
            }
        }
        if (survivor >= 0) {
            sh.clock = std::max(sh.clock, ev.time) + prof_.failoverSeconds;
            sh.node = survivor;
        } else {
            // No survivor: wait out the outage in place.
            sh.clock = std::max(sh.clock, ev.time + ev.down) +
                       prof_.failoverSeconds;
        }
        sh.coldLeft = prof_.coldRequests;
        ++sh.failovers;
    } else {
        if (ev.node == sh.node || !alive(ev.node, ev.time))
            return;
        sh.clock = std::max(sh.clock, ev.time) + prof_.migrateSeconds;
        sh.node = ev.node;
        sh.coldLeft = prof_.coldRequests;
        ++sh.migrations;
    }
}

double
ServingSim::serviceSeconds(const Shard &sh, const Request &r) const
{
    const size_t isa = static_cast<size_t>(cfg_.nodes[sh.node].isa);
    double base = r.isGet ? prof_.getSeconds[isa] : prof_.setSeconds[isa];
    // Key-dependent spread (value size / probe length): 0.75x ..
    // 1.24x, fixed per (key, op).
    const uint64_t h =
        mix64(static_cast<uint64_t>(r.key) * 2 + (r.isGet ? 1 : 0));
    base *= 0.75 + static_cast<double>(h & 63) / 128.0;
    if (sh.coldLeft > 0)
        base *= 1.0 + prof_.coldFactor *
                          static_cast<double>(sh.coldLeft) /
                          prof_.coldRequests;
    return base;
}

void
ServingSim::replayShard(Shard &sh, std::span<const Request> chunk,
                        const std::vector<uint32_t> &idx)
{
    const std::vector<Event> &evs = sh.events;
    size_t &ei = sh.nextEvent;
    for (uint32_t i : idx) {
        const Request &r = chunk[i];
        Outcome &out = outcomes_[i];
        if (shedNow(r)) {
            // Shed at the door: no service, no queueing, and the shard
            // clock stays put. Events up to the arrival still fire so
            // node state keeps moving.
            while (ei < evs.size() && evs[ei].time <= r.arrival)
                apply(sh, evs[ei++]);
            out = Outcome{};
            continue;
        }
        for (;;) {
            double start = std::max(r.arrival, sh.clock);
            while (ei < evs.size() && evs[ei].time <= start) {
                apply(sh, evs[ei++]);
                start = std::max(r.arrival, sh.clock);
            }
            const double done = start + serviceSeconds(sh, r);
            if (ei < evs.size() && evs[ei].time < done) {
                // The event preempts the in-flight request: for a
                // crash the work is lost; for a live migration the
                // request is replayed on the destination after the
                // pause. Either way its latency keeps growing until it
                // completes.
                apply(sh, evs[ei++]);
                continue;
            }
            sh.clock = done;
            if (sh.coldLeft > 0)
                --sh.coldLeft;
            out.latSeconds = done - r.arrival;
            out.servedOn = sh.node;
            out.afterCrash = firstCrash_ >= 0.0 && done > firstCrash_;
            break;
        }
    }
}

void
ServingSim::account(std::span<const Request> chunk)
{
    // Global arrival order: histogram fills and counter bumps happen
    // in one fixed sequence regardless of worker count and chunking.
    for (size_t j = 0; j < chunk.size(); ++j) {
        const uint64_t i = res_.requests++;
        ++requests_;
        if (i % 64 == 0)
            violated_.push_back(0);
        const Outcome &o = outcomes_[j];
        if (o.servedOn < 0) {
            // Shed at the door: counted as a request (and as shed),
            // but it never ran, so it contributes no latency sample,
            // no GET/SET split, and no SLO violation.
            ++shed_;
            ++res_.shed;
            continue;
        }
        const double us = o.latSeconds * 1e6;
        latencyUs_.add(us);
        if (chunk[j].isGet) {
            ++gets_;
            ++res_.gets;
        } else {
            ++sets_;
            ++res_.sets;
        }
        if (us > cfg_.sloUs) {
            ++sloViolations_;
            ++res_.sloViolations;
            violated_.back() |= uint64_t{1} << (i % 64);
            if (inBrownout(chunk[j].arrival)) {
                ++violationsDegraded_;
                ++res_.violationsDegraded;
            }
        }
        const size_t nd = static_cast<size_t>(o.servedOn);
        ++nodeServed_[nd];
        ++res_.servedByNode[nd];
        if (o.afterCrash)
            ++res_.servedByNodeAfterCrash[nd];
    }
}

ServingResult
ServingSim::finish()
{
    ServingResult res = std::move(res_);
    res_ = ServingResult{};
    for (const Shard &sh : shards_) {
        res.migrations += sh.migrations;
        res.failovers += sh.failovers;
    }
    shards_.clear();
    migrations_.add(res.migrations);
    failovers_.add(res.failovers);

    // Cumulative violations after each tenth of the stream: request i
    // falls in tenth i*10/n, so tenth d ends before request
    // ceil((d+1)*n/10). A tenth no request falls in (n < 10) keeps 0
    // until the monotone pass below.
    const uint64_t n = res.requests;
    uint64_t prevEnd = 0;
    for (uint64_t d = 0; d < res.violationsByDecile.size(); ++d) {
        const uint64_t end = ((d + 1) * n + 9) / 10;
        if (end == prevEnd)
            continue;
        res.violationsByDecile[d] = countLeadingBits(violated_, end);
        prevEnd = end;
    }
    violated_.clear();
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
