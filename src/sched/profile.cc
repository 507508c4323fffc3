#include "sched/profile.hh"

#include "compiler/compile.hh"
#include "exp/sweep.hh"
#include "machine/node.hh"

namespace xisa {

namespace {

/** One workload's serial class-A seconds on each ISA. */
struct MeasuredRow {
    WorkloadId wl;
    double aether64;
    double xeno64;
};

// JobProfileTable::measure(), bit for bit. When the cost model
// changes, the calibration ctest fails and prints the replacement
// block; paste it here.
constexpr MeasuredRow kMeasured[] = {
    {WorkloadId::CG, 0x1.09dbb6749bb36p-9, 0x1.89dabc1ec9a11p-11},
    {WorkloadId::IS, 0x1.0b2c8780cba5dp-8, 0x1.8a6206bc8dd2fp-10},
    {WorkloadId::FT, 0x1.bd34db709b3a6p-8, 0x1.46b0613630e22p-9},
    {WorkloadId::EP, 0x1.a6480c169d08ep-9, 0x1.2b98f9d054db6p-10},
    {WorkloadId::MG, 0x1.0d6f5f0879206p-7, 0x1.85a6651b6177dp-9},
    {WorkloadId::SP, 0x1.752cf6917a9fap-10, 0x1.0fba70d5e38a8p-11},
    {WorkloadId::BT, 0x1.405cd1e814a6ep-9, 0x1.cf3a3b9da395ap-11},
    {WorkloadId::BZIP, 0x1.70f6e156aaeafp-6, 0x1.fb6fd4ca3c2b2p-8},
    {WorkloadId::VERUS, 0x1.c97b08b4da67dp-10, 0x1.4d132e301419ep-11},
    {WorkloadId::REDIS, 0x1.950adb41f738p-9, 0x1.3100fd9e68344p-10},
};
static_assert(std::size(kMeasured) == static_cast<size_t>(kNumWorkloads));

} // namespace

JobProfileTable
JobProfileTable::calibrate()
{
    JobProfileTable table;
    for (const MeasuredRow &row : kMeasured) {
        auto &secs = table.base_[static_cast<size_t>(row.wl)];
        secs[static_cast<int>(IsaId::Aether64)] = row.aether64;
        secs[static_cast<int>(IsaId::Xeno64)] = row.xeno64;
    }
    return table;
}

JobProfileTable
JobProfileTable::measure()
{
    // Compiling all ten modules takes milliseconds; executing them is
    // the cost, so only the (workload x node) runs go through the
    // sweep driver. Each cell only reads its shared binary.
    const std::vector<WorkloadId> wls = allWorkloads();
    std::vector<MultiIsaBinary> bins;
    bins.reserve(wls.size());
    for (WorkloadId wl : wls)
        bins.push_back(
            compileModule(buildWorkload(wl, ProblemClass::A, 1)));
    constexpr size_t kNodes = kNumIsas;
    const NodeSpec nodes[kNodes] = {makeXenoServer(), makeAetherServer()};
    std::vector<double> secs =
        exp::runSweep(wls.size() * kNodes, [&](size_t i) {
            return exp::runSingleNode(bins[i / kNodes], nodes[i % kNodes])
                .makespanSeconds;
        });

    JobProfileTable table;
    for (size_t w = 0; w < wls.size(); ++w)
        for (size_t n = 0; n < kNodes; ++n)
            table.base_[static_cast<size_t>(wls[w])]
                       [static_cast<int>(nodes[n].isa)] =
                secs[w * kNodes + n];
    return table;
}

JobProfileTable
JobProfileTable::synthetic()
{
    JobProfileTable table;
    double ms = 1e-3;
    int i = 0;
    for (WorkloadId wl : allWorkloads()) {
        double x86 = (1.0 + 0.35 * i) * ms;
        double arm = x86 * (2.6 + 0.08 * (i % 5));
        auto &secs = table.base_[static_cast<size_t>(wl)];
        secs[static_cast<int>(IsaId::Xeno64)] = x86;
        secs[static_cast<int>(IsaId::Aether64)] = arm;
        ++i;
    }
    return table;
}

double
JobProfileTable::parallelEfficiency(int threads)
{
    return 1.0 / (1.0 + 0.07 * (threads - 1));
}

double
JobProfileTable::baseSeconds(WorkloadId wl, IsaId isa) const
{
    return base_[static_cast<size_t>(wl)][static_cast<int>(isa)];
}

double
JobProfileTable::seconds(WorkloadId wl, ProblemClass cls, int threads,
                         IsaId isa) const
{
    double serial = baseSeconds(wl, isa) * classScale(cls) * kTimeScale;
    if (threads <= 1)
        return serial;
    return serial / (threads * parallelEfficiency(threads));
}

} // namespace xisa
