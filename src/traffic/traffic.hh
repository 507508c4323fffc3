/**
 * @file
 * Open-loop traffic generation and serving simulation for the REDIS
 * scenario (ROADMAP item 2): the paper's heterogeneous-ISA story told
 * in SLO terms instead of makespan.
 *
 * The generator produces one seeded request stream -- Poisson
 * inter-arrivals, Zipf key popularity, a configurable GET/SET mix --
 * and shards it across REDIS kernel instances by key hash. ServingSim
 * then replays the stream against a node placement: each shard is a
 * single-server FIFO queue whose per-request service cost comes from a
 * ServingProfile calibrated by executing the real REDIS workload
 * through the interpreter on each ISA, and whose live-migration pause
 * is measured from a real cross-ISA ReplicatedOS migration of that
 * binary. Shards can be live-migrated between nodes mid-traffic and
 * nodes can crash (shards fail over to the lowest-index survivor), so
 * tail latency under "migrate under load" can be compared against a
 * static placement.
 *
 * Determinism is the contract: same seed means byte-identical stats
 * output regardless of XISA_BENCH_THREADS. The few transcendentals
 * involved (exp/log/pow for the samplers) are implemented here from
 * IEEE-exact primitives instead of libm, so the bytes also hold across
 * platforms and libm versions.
 *
 * The stream is generated and replayed in fixed-size chunks, so a run
 * holds one chunk of requests at a time, not the whole stream.
 * RequestStream builds each chunk in three steps: it draws the raw Rng
 * values serially in the one-at-a-time order (arrival uniform, key
 * draw, GET/SET uniform), maps them to inter-arrival gaps, keys,
 * shards and deciles in parallel -- each a pure function of its own
 * draws -- and sums the gaps into arrival times serially. The stream is
 * therefore the sequential one bit for bit at any worker count.
 * ServingSim replays chunk by chunk: shards simulate in parallel and
 * carry their node, clock, cold count and event cursor from one chunk
 * to the next, and the accounting pass -- histogram fills, SLO
 * counters -- runs in global request order. The one quantity that
 * needs the final request count, the per-tenth violation curve, is
 * read at the end from one bit per request.
 */

#ifndef XISA_TRAFFIC_TRAFFIC_HH
#define XISA_TRAFFIC_TRAFFIC_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "machine/node.hh"
#include "obs/registry.hh"
#include "util/rng.hh"

namespace xisa::traffic {

/** Natural log from IEEE-exact primitives (frexp + atanh series);
 *  bit-reproducible across platforms, ~1e-14 relative error. x > 0. */
double detLog(double x);
/** exp(x), same contract as detLog. */
double detExp(double x);
/** x^y for x > 0, via detExp(y * detLog(x)). */
double detPow(double x, double y);

/** SplitMix64 finalizer: the keyed hash for sharding and per-key
 *  service-cost spread. */
uint64_t mix64(uint64_t x);

/** Knobs of the open-loop generator ([traffic] in a serving conf). */
struct TrafficConfig {
    uint64_t seed = 42;
    /** Simulated client population; the aggregate arrival process is
     *  Poisson at clients * requestHz (open loop: arrivals never wait
     *  for completions). */
    int64_t clients = 200000;
    double requestHz = 0.5; ///< per-client request rate, Hz
    double durationSeconds = 2.0;
    double zipfSkew = 0.99; ///< YCSB theta; 0 = uniform keys
    int64_t keySpace = 65536;
    double getFraction = 0.9; ///< rest are SETs
    int shards = 8;           ///< REDIS kernel instances

    double totalRate() const
    {
        return static_cast<double>(clients) * requestHz;
    }
};

/** One generated request. */
struct Request {
    double arrival = 0;  ///< sim-clock seconds
    uint32_t key = 0;    ///< scrambled key in [0, keySpace)
    uint16_t shard = 0;  ///< mix64(key) % shards
    bool isGet = true;
    /** Popularity decile of the key's Zipf rank: 0 = hottest tenth of
     *  the key space, 9 = coldest. Brownout shedding drops the
     *  coldest deciles first. */
    uint8_t decile = 0;
};

/**
 * YCSB-style Zipf(theta) sampler over ranks [0, n): rank 0 is the
 * hottest. theta in [0, 1); theta = 0 degenerates to uniform.
 */
class ZipfGenerator
{
  public:
    ZipfGenerator(int64_t n, double theta);
    int64_t sample(Rng &rng) const;

    /** True when ranks are uniform: sample() then draws rng.below(n)
     *  instead of one uniform double. */
    bool uniformRanks() const { return theta_ <= 0.0 || n_ <= 1; }
    /** The rank sample() returns for uniform draw `u` (skewed case). */
    int64_t rank(double u) const;

  private:
    int64_t n_ = 1;
    double theta_ = 0;
    double alpha_ = 0, zetan_ = 0, eta_ = 0, zetaHalf_ = 0;
};

/**
 * The request stream of a TrafficConfig, yielded in arrival-ordered
 * chunks of at most kChunkRequests (see the file comment for why the
 * chunks are bit-identical to one sequential loop).
 */
class RequestStream
{
  public:
    /** Requests per chunk: large enough that the per-chunk sweeps'
     *  thread start-up stays in the noise, small enough that a chunk
     *  and its scratch arrays stay a few MB. */
    static constexpr size_t kChunkRequests = size_t{1} << 16;

    explicit RequestStream(const TrafficConfig &cfg);

    /** The next chunk; empty once the stream has ended. The reference
     *  stays valid until the next call. */
    const std::vector<Request> &next();

  private:
    TrafficConfig cfg_;
    Rng rng_;
    ZipfGenerator zipf_;
    double clock_ = 0.0; ///< arrival time of the last request yielded
    bool done_ = false;
    std::vector<Request> chunk_;
    /** Per slot of the chunk: the arrival uniform, then the gap. */
    std::vector<double> gap_;
    /** Per slot: the Zipf uniform (skewed keys only). */
    std::vector<double> keyDraw_;
    /** Per slot: the popularity rank. */
    std::vector<uint64_t> rank_;
    /** Per slot: the GET/SET uniform. */
    std::vector<double> getDraw_;
};

/** Generate the full request stream, sorted by arrival time. */
std::vector<Request> generateRequests(const TrafficConfig &cfg);

/**
 * Per-ISA service costs of one REDIS request plus the disruption costs
 * of moving or losing a shard. measure() derives them by running the
 * real workload through the full stack, calibrate() returns the
 * checked-in result of measure(), and synthetic() returns fixed
 * numbers with the same shape for unit tests.
 */
struct ServingProfile {
    /** Seconds to serve one GET/SET, indexed by IsaId. */
    std::array<double, kNumIsas> getSeconds{};
    std::array<double, kNumIsas> setSeconds{};
    /** Pause a shard sees while live-migrating between ISAs. */
    double migrateSeconds = 0;
    /** Outage from losing a shard's node: failure detection, directory
     *  reconstruction and journal replay on the survivor (PR 5). */
    double failoverSeconds = 0;
    /** Peak extra service cost right after a move (cold pages/caches
     *  paged in on demand by the hDSM), decaying linearly to zero over
     *  coldRequests requests. */
    double coldFactor = 1.0;
    int coldRequests = 256;

    /**
     * The calibrated profile: the checked-in result of measure(), bit
     * for bit (the calibration ctest re-runs measure() and prints a
     * replacement if they differ). Costs nothing at run time.
     */
    static ServingProfile calibrate();
    /**
     * Execute REDIS class A through the interpreter on each ISA for
     * the per-op costs, and measure migrateSeconds from a real
     * cross-ISA ReplicatedOS live migration of that binary.
     * Deterministic (pure simulation); three interpreter runs through
     * exp::runSweep. The recompute oracle behind calibrate().
     */
    static ServingProfile measure();
    /** Fixed plausible values (Xeno ~25 us GET, Aether ~3x); for unit
     *  tests that should not depend on the cost model. */
    static ServingProfile synthetic();
};

/** Scripted live migration of one shard. */
struct ShardMigration {
    int shard = 0;
    double time = 0; ///< sim-clock seconds
    int node = 0;    ///< destination
};

/** Scripted node crash. */
struct NodeCrash {
    int node = 0;
    double time = 0;
    double downSeconds = 30.0;
};

/**
 * One brownout window: degraded-mode serving while a failure domain
 * is out. Inside [start, end) every shard sheds requests for the
 * coldest `shedDeciles` tenths of the key popularity distribution
 * (lowest-decile keys first: a dropped cold GET costs one client a
 * miss; a queue full of cold keys costs every hot key its SLO).
 * Shed requests complete instantly with no service, are counted in
 * ServingResult::shed, and never count as SLO violations; violations
 * of requests that do run inside a window are additionally tagged in
 * violationsDegraded so degraded-mode SLO attainment is accounted
 * separately from steady-state.
 */
struct BrownoutWindow {
    double start = 0;
    double end = 0;
    /** Coldest popularity deciles to shed, 1..10. */
    int shedDeciles = 1;
};

/** A serving scenario: nodes, placement, and the event schedule. */
struct ServingConfig {
    std::vector<NodeSpec> nodes;
    /** shard -> node index; size must equal the stream's shard count. */
    std::vector<int> placement;
    /** node -> rack index (failure-domain map). Empty = rack-blind
     *  legacy failover, byte-identical to before the map existed;
     *  otherwise size must equal nodes.size() and crash failover
     *  prefers a survivor OUTSIDE the dead node's rack (the rest of
     *  the domain is usually failing with it). */
    std::vector<int> nodeRack;
    std::vector<ShardMigration> migrations; ///< applied in time order
    std::vector<NodeCrash> crashes;
    /** Degraded-mode windows (typically spanning a domain outage). */
    std::vector<BrownoutWindow> brownouts;
    double sloUs = 1000.0;
};

/** Aggregate outcome of one scenario replay. */
struct ServingResult {
    uint64_t requests = 0, gets = 0, sets = 0;
    uint64_t sloViolations = 0;
    /** Violations among requests that arrived inside a brownout
     *  window (degraded-mode attainment, accounted separately;
     *  included in sloViolations too). */
    uint64_t violationsDegraded = 0;
    /** Requests shed by brownout windows (never SLO violations). */
    uint64_t shed = 0;
    uint64_t migrations = 0, failovers = 0;
    double p50Us = 0, p99Us = 0, p999Us = 0, maxUs = 0;
    /** Cumulative SLO violations after each tenth of the stream (in
     *  arrival order); monotone by construction, pinned by tests. */
    std::array<uint64_t, 10> violationsByDecile{};
    /** Requests served per node, total and after the first crash. */
    std::vector<uint64_t> servedByNode;
    std::vector<uint64_t> servedByNodeAfterCrash;
};

/**
 * Replays a request stream against a ServingConfig, either whole
 * (run) or chunk by chunk as it is generated (begin, feed..., finish).
 * Shards simulate in parallel (runSweep); accounting and histogram
 * fills run in global request order, so stats bytes are independent
 * of the worker count and of the chunking. Stats register on `reg`
 * under `prefix` (e.g. "serving.static") and accumulate across
 * replays.
 */
class ServingSim
{
  public:
    ServingSim(ServingConfig cfg, ServingProfile prof,
               obs::StatRegistry &reg, const std::string &prefix);

    /** begin(), feed `reqs` in chunks of RequestStream::kChunkRequests,
     *  finish(). */
    ServingResult run(const std::vector<Request> &reqs);

    /** Start a replay; panics on an inconsistent config. */
    void begin();
    /** Replay the next requests of the stream, in arrival order. */
    void feed(std::span<const Request> chunk);
    /**
     * Replay one chunk through several begun sims of the same shard
     * count (the scenarios of one stream): every (sim, shard) cell in
     * one runSweep, then each sim's accounting side by side.
     */
    static void feedAll(const std::vector<ServingSim *> &sims,
                        std::span<const Request> chunk);
    /** End the replay and return its result. */
    ServingResult finish();

    const ServingConfig &config() const { return cfg_; }

  private:
    /** One entry of a shard's schedule: a migration of this shard or
     *  any node crash (it only bites if the shard sits on the node). */
    struct Event {
        double time = 0;
        bool isCrash = false;
        int node = 0;    ///< migration destination / crashed node
        double down = 0; ///< crash only
    };
    /** A shard's replay state, carried from chunk to chunk. */
    struct Shard {
        std::vector<Event> events; ///< sorted by time
        size_t nextEvent = 0;
        int node = 0;
        double clock = 0.0;
        int coldLeft = 0;
        uint64_t migrations = 0, failovers = 0;
    };
    /** What the shard replay decided for one request of the chunk. */
    struct Outcome {
        double latSeconds = 0;
        int32_t servedOn = -1; ///< node; -1 = shed at the door
        bool afterCrash = false; ///< finished after the first crash
    };

    bool alive(int node, double t) const;
    bool shedNow(const Request &r) const;
    bool inBrownout(double t) const;
    void apply(Shard &sh, const Event &ev) const;
    double serviceSeconds(const Shard &sh, const Request &r) const;
    /** Replay chunk[idx...] (one shard's requests) into outcomes_. */
    void replayShard(Shard &sh, std::span<const Request> chunk,
                     const std::vector<uint32_t> &idx);
    /** Fold the chunk's outcomes into the stats, in arrival order. */
    void account(std::span<const Request> chunk);

    ServingConfig cfg_;
    ServingProfile prof_;
    obs::Counter requests_, gets_, sets_;
    obs::Counter sloViolations_, migrations_, failovers_;
    /** Attached only when brownout windows are configured, so a
     *  window-free scenario's stats output stays byte-identical. */
    obs::Counter shed_, violationsDegraded_;
    obs::Histogram latencyUs_;
    std::vector<obs::Counter> nodeServed_;

    // --- state of the replay in progress
    std::vector<Shard> shards_;
    std::vector<Outcome> outcomes_; ///< one per request of the chunk
    /** One bit per request replayed so far: did it violate the SLO.
     *  finish() reads the per-tenth curve from it, since a request's
     *  tenth depends on the final request count. */
    std::vector<uint64_t> violated_;
    double firstCrash_ = -1.0;
    ServingResult res_;
};

} // namespace xisa::traffic

#endif // XISA_TRAFFIC_TRAFFIC_HH
