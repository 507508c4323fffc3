/**
 * @file
 * Machine-model tests: caches, node specs, power model, flags, memory.
 */

#include <gtest/gtest.h>

#include "machine/cache.hh"
#include "machine/interp.hh"
#include "machine/mem.hh"
#include "machine/node.hh"
#include "util/logging.hh"

namespace xisa {
namespace {

TEST(Cache, ColdMissThenHit)
{
    Cache c({1024, 2, 64, 10});
    obs::StatRegistry reg;
    c.registerStats(reg, "l1");
    EXPECT_EQ(c.access(0x1000), 10u);
    EXPECT_EQ(c.access(0x1000), 0u);
    EXPECT_EQ(c.access(0x1004), 0u); // same line
    EXPECT_EQ(c.access(0x1040), 10u); // next line
    EXPECT_EQ(reg.counterValue("l1.accesses"), 4u);
    EXPECT_EQ(reg.counterValue("l1.misses"), 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2-way, 8 sets of 64B lines: addresses 64*8 apart map to set 0.
    Cache c({1024, 2, 64, 10});
    uint64_t a = 0, b = 8 * 64, d = 16 * 64;
    c.access(a);
    c.access(b);
    c.access(a);      // a most recent
    c.access(d);      // evicts b
    EXPECT_EQ(c.access(a), 0u);
    EXPECT_EQ(c.access(b), 10u) << "b must have been evicted";
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c({1024, 2, 64, 10});
    c.access(0x2000);
    c.flush();
    EXPECT_EQ(c.access(0x2000), 10u);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache({1000, 3, 48, 1}), FatalError);
    EXPECT_THROW(Cache({1024, 0, 64, 1}), FatalError);
}

TEST(Cache, AccessThroughChainsPenalties)
{
    Cache l1({1024, 2, 64, 8});
    Cache l2({4096, 4, 64, 20});
    // Cold: L1 miss + L2 miss + memory.
    EXPECT_EQ(accessThrough(l1, l2, 0x3000, 100), 128u);
    // Warm: L1 hit.
    EXPECT_EQ(accessThrough(l1, l2, 0x3000, 100), 0u);
    l1.flush();
    // L1 miss, L2 hit.
    EXPECT_EQ(accessThrough(l1, l2, 0x3000, 100), 8u);
}

TEST(NodeSpec, PresetsMatchTheTestbedShape)
{
    NodeSpec x86 = makeXenoServer();
    NodeSpec arm = makeAetherServer();
    EXPECT_EQ(x86.isa, IsaId::Xeno64);
    EXPECT_EQ(arm.isa, IsaId::Aether64);
    EXPECT_EQ(x86.cores, 6);  // Xeon E5-1650 v2
    EXPECT_EQ(arm.cores, 8);  // X-Gene 1
    EXPECT_GT(x86.freqGHz, arm.freqGHz);
    // Per-op, per-second throughput: x86 about 3x faster.
    double x86Alu = x86.freqGHz / x86.cost(MOp::Add);
    double armAlu = arm.freqGHz / arm.cost(MOp::Add);
    EXPECT_GT(x86Alu / armAlu, 2.0);
    EXPECT_LT(x86Alu / armAlu, 4.5);
    EXPECT_GT(x86.maxWatts, arm.maxWatts);
}

TEST(NodeSpec, PowerModelInterpolatesAndScales)
{
    NodeSpec s = makeXenoServer();
    EXPECT_DOUBLE_EQ(s.power(0.0), s.idleWatts);
    EXPECT_DOUBLE_EQ(s.power(1.0), s.maxWatts);
    EXPECT_DOUBLE_EQ(s.power(0.5),
                     s.idleWatts + 0.5 * (s.maxWatts - s.idleWatts));
    EXPECT_DOUBLE_EQ(s.power(2.0), s.maxWatts);   // clamped
    EXPECT_DOUBLE_EQ(s.power(-1.0), s.idleWatts); // clamped
    EXPECT_NEAR(s.power(1.0, 0.1), s.maxWatts * 0.1, 1e-12);
}

TEST(Flags, EvalCondMatchesArithmetic)
{
    struct Case {
        int64_t a, b;
    } cases[] = {{0, 0}, {1, 2}, {2, 1}, {-1, 1}, {1, -1},
                 {-5, -7}, {INT64_MIN, INT64_MAX}};
    for (const auto &[a, b] : cases) {
        Flags f;
        f.eq = a == b;
        f.lt = a < b;
        f.ult = static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
        EXPECT_EQ(evalCond(Cond::EQ, f), a == b);
        EXPECT_EQ(evalCond(Cond::NE, f), a != b);
        EXPECT_EQ(evalCond(Cond::LT, f), a < b);
        EXPECT_EQ(evalCond(Cond::LE, f), a <= b);
        EXPECT_EQ(evalCond(Cond::GT, f), a > b);
        EXPECT_EQ(evalCond(Cond::GE, f), a >= b);
        EXPECT_EQ(evalCond(Cond::ULT, f),
                  static_cast<uint64_t>(a) < static_cast<uint64_t>(b));
        EXPECT_EQ(evalCond(Cond::UGE, f),
                  static_cast<uint64_t>(a) >= static_cast<uint64_t>(b));
        EXPECT_TRUE(evalCond(Cond::Always, f));
    }
}

TEST(SimMemory, PagesMaterializeZeroFilledAndDrop)
{
    SimMemory mem;
    EXPECT_FALSE(mem.hasPage(5));
    uint64_t v = 0;
    mem.read(5 * vm::kPageSize + 100, &v, 8);
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(mem.hasPage(5));
    v = 123;
    mem.write(5 * vm::kPageSize + 100, &v, 8);
    uint64_t got = 0;
    mem.read(5 * vm::kPageSize + 100, &got, 8);
    EXPECT_EQ(got, 123u);
    mem.dropPage(5);
    EXPECT_FALSE(mem.hasPage(5));
}

TEST(SimMemory, CrossPageCopyIsSeamless)
{
    SimMemory mem;
    std::vector<uint8_t> data(100);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i);
    uint64_t addr = vm::kPageSize - 50;
    mem.write(addr, data.data(), data.size());
    std::vector<uint8_t> back(100);
    mem.read(addr, back.data(), back.size());
    EXPECT_EQ(data, back);
    EXPECT_EQ(mem.residentPages(), 2u);
}

} // namespace
} // namespace xisa
