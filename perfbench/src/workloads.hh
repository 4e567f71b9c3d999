/**
 * @file
 * The four benchmark workloads.  Each entry point runs one mode of
 * one workload in this (fresh) process and prints one JSON line as
 * the last line of stdout; run.py turns those lines into the
 * benchmark's result.
 *
 *  - setup: build what the workload needs up to its first result
 *    (first shot sampled, first fit started, first request answered)
 *    and print {"setup_s": seconds since `t0`, the spawn time run.py
 *    took on the same monotonic clock}.
 *  - run: the timed, untraced run plus its correctness checks.
 *  - trace: the single-thread replay through the public stage
 *    functions, untraced and traced, with the per-layer split.
 */

#ifndef TRAQ_PERFBENCH_WORKLOADS_HH
#define TRAQ_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

namespace perfbench {

struct Options
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Spawn time of this process (monoNow clock), setup mode. */
    double t0 = 0.0;
    /** Chrome trace-event output path, trace mode. */
    std::string traceOut;
    /** Directory holding traq_serve and traq_dispatch. */
    std::string binDir;
};

/** memory-pauli, cnot-erasure, alpha-fit. */
int runMonteCarloWorkload(const Options &opts);
/** serve-estimates. */
int runServeWorkload(const Options &opts);

/** Self-test of the helpers in util.hh and the request generator. */
int runSelfTest();

} // namespace perfbench

#endif // TRAQ_PERFBENCH_WORKLOADS_HH
