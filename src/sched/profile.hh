/**
 * @file
 * Per-job execution-time profiles for the cluster simulator.
 *
 * The paper's scheduling study needs to know how long each (workload,
 * class, thread-count) job runs on each server type. We calibrate by
 * actually executing every workload (class A, serial) on both simulated
 * servers through the full stack, then scale analytically: problem
 * classes multiply the work by classScale() (the kernels scale
 * linearly), and threads divide it with a parallel-efficiency factor
 * matching fork/join overheads. The executions' result is checked in
 * (calibrate()); measure() re-runs them for the calibration ctest.
 */

#ifndef XISA_SCHED_PROFILE_HH
#define XISA_SCHED_PROFILE_HH

#include <array>

#include "isa/isa.hh"
#include "workload/workloads.hh"

namespace xisa {

/** Calibrated execution-time table. */
class JobProfileTable
{
  public:
    /**
     * The calibrated table: the checked-in result of measure(), bit
     * for bit. The cost model is fixed at build time, so every
     * measurement gives the same bits; the calibration ctest re-runs
     * measure() and prints a replacement table if they ever differ.
     * Costs nothing at run time.
     */
    static JobProfileTable calibrate();

    /**
     * Run each workload once per ISA (class A, serial) through the
     * compiler + OS + interpreter stack and derive the table. About
     * 0.5 s of host time run serially, split across the
     * XISA_BENCH_THREADS sweep workers (exp::runSweep); the table is
     * identical for every worker count. The recompute oracle behind
     * calibrate().
     */
    static JobProfileTable measure();

    /**
     * A fixed table with plausible magnitudes (x86 class-A base times
     * of a few ms, ARM ~3x slower). For tests and quick demos of the
     * cluster simulator that should not depend on the cost model;
     * experiment harnesses use calibrate().
     */
    static JobProfileTable synthetic();

    /**
     * Wall seconds of one job on one server type.
     *
     * Includes kTimeScale: the mini-kernels run in milliseconds, while
     * the paper's jobs run "from milliseconds to hundreds of seconds";
     * the scale restores datacenter-sized durations (class A ~ seconds,
     * class C ~ tens of seconds) without changing any ratio.
     */
    double seconds(WorkloadId wl, ProblemClass cls, int threads,
                   IsaId isa) const;

    /** Duration scale from simulator kernels to datacenter jobs. */
    static constexpr double kTimeScale = 1000.0;

    /** Serial class-A seconds measured for a workload on an ISA. */
    double baseSeconds(WorkloadId wl, IsaId isa) const;

    /** Parallel efficiency model: speedup(t) = t / (1 + alpha (t-1)). */
    static double parallelEfficiency(int threads);

  private:
    /** Serial class-A seconds, [WorkloadId][IsaId]. */
    std::array<std::array<double, kNumIsas>, kNumWorkloads> base_{};
};

} // namespace xisa

#endif // XISA_SCHED_PROFILE_HH
