/**
 * @file
 * Calibration oracle: the checked-in profiles that calibrate() returns
 * must equal a live measure() bit for bit, at one sweep worker and at
 * four. A mismatch means the cost model changed; the failure prints
 * the replacement block to paste next to calibrate(), the way goldens
 * are regenerated.
 *
 * ctest also runs this binary with XISA_AUDIT=1 (calibration_audit):
 * no experiment executes the calibration runs any more, so this is
 * where the invariant auditor watches them.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "sched/profile.hh"
#include "traffic/traffic.hh"
#include "util/logging.hh"

namespace xisa {
namespace {

constexpr IsaId kIsas[] = {IsaId::Aether64, IsaId::Xeno64};
constexpr const char *kWorkerCounts[] = {"1", "4"};

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** The kMeasured block of src/sched/profile.cc for `t`. */
std::string
jobTableBlock(const JobProfileTable &t)
{
    std::string out = "constexpr MeasuredRow kMeasured[] = {\n";
    for (WorkloadId wl : allWorkloads()) {
        std::string id = workloadName(wl);
        for (char &c : id) // "cg" -> CG, the enumerator
            c = static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        out += strfmt("    {WorkloadId::%s, %a, %a},\n", id.c_str(),
                      t.baseSeconds(wl, IsaId::Aether64),
                      t.baseSeconds(wl, IsaId::Xeno64));
    }
    return out + "};\n";
}

/** The literal assignments of ServingProfile::calibrate() for `p`. */
std::string
servingBlock(const traffic::ServingProfile &p)
{
    const size_t aether = static_cast<size_t>(IsaId::Aether64);
    const size_t xeno = static_cast<size_t>(IsaId::Xeno64);
    return strfmt("    p.getSeconds[aether] = %a;\n"
                  "    p.getSeconds[xeno] = %a;\n"
                  "    p.setSeconds[aether] = %a;\n"
                  "    p.setSeconds[xeno] = %a;\n"
                  "    p.migrateSeconds = %a;\n"
                  "    p.failoverSeconds = %a;\n",
                  p.getSeconds[aether], p.getSeconds[xeno],
                  p.setSeconds[aether], p.setSeconds[xeno],
                  p.migrateSeconds, p.failoverSeconds);
}

TEST(Calibration, JobProfileTableIsMeasuredBitForBit)
{
    const JobProfileTable table = JobProfileTable::calibrate();
    for (const char *threads : kWorkerCounts) {
        setenv("XISA_BENCH_THREADS", threads, 1);
        const JobProfileTable live = JobProfileTable::measure();
        unsetenv("XISA_BENCH_THREADS");
        bool same = true;
        for (WorkloadId wl : allWorkloads())
            for (IsaId isa : kIsas)
                same = same && sameBits(live.baseSeconds(wl, isa),
                                        table.baseSeconds(wl, isa));
        EXPECT_TRUE(same)
            << "XISA_BENCH_THREADS=" << threads
            << ": the cost model changed; replace kMeasured in "
               "src/sched/profile.cc with\n"
            << jobTableBlock(live);
    }
}

TEST(Calibration, ServingProfileIsMeasuredBitForBit)
{
    const traffic::ServingProfile table =
        traffic::ServingProfile::calibrate();
    for (const char *threads : kWorkerCounts) {
        setenv("XISA_BENCH_THREADS", threads, 1);
        const traffic::ServingProfile live =
            traffic::ServingProfile::measure();
        unsetenv("XISA_BENCH_THREADS");
        bool same = live.coldRequests == table.coldRequests &&
                    sameBits(live.coldFactor, table.coldFactor) &&
                    sameBits(live.migrateSeconds, table.migrateSeconds) &&
                    sameBits(live.failoverSeconds, table.failoverSeconds);
        for (IsaId isa : kIsas) {
            const size_t i = static_cast<size_t>(isa);
            same = same &&
                   sameBits(live.getSeconds[i], table.getSeconds[i]) &&
                   sameBits(live.setSeconds[i], table.setSeconds[i]);
        }
        EXPECT_TRUE(same)
            << "XISA_BENCH_THREADS=" << threads
            << ": the cost model changed; replace the literals in "
               "ServingProfile::calibrate() (src/traffic/traffic.cc) "
               "with\n"
            << servingBlock(live);
    }
}

} // namespace
} // namespace xisa
