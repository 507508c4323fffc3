#include "sched/profile.hh"

#include "compiler/compile.hh"
#include "exp/sweep.hh"
#include "machine/node.hh"
#include "util/logging.hh"

namespace xisa {

JobProfileTable
JobProfileTable::calibrate()
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
            table.base_[wls[w]][static_cast<int>(nodes[n].isa)] =
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
        std::array<double, kNumIsas> secs{};
        secs[static_cast<int>(IsaId::Xeno64)] = x86;
        secs[static_cast<int>(IsaId::Aether64)] = arm;
        table.base_[wl] = secs;
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
    auto it = base_.find(wl);
    if (it == base_.end())
        fatal("JobProfileTable: workload '%s' not calibrated",
              workloadName(wl));
    return it->second[static_cast<int>(isa)];
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
