#ifndef NOMAP_BENCH_HARNESS_H
#define NOMAP_BENCH_HARNESS_H

/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Every bench binary regenerates one artifact of the paper's
 * evaluation and prints it as an aligned text table, with the paper's
 * reported numbers alongside where applicable. Averages follow the
 * paper: AvgS over the Table III subset, AvgT over the whole suite.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "suites/suite.h"
#include "support/statistics.h"

namespace nomap {
namespace bench {

/** True once initBench() has seen --quick (CTest smoke runs). */
inline bool &
quickMode()
{
    static bool quick = false;
    return quick;
}

/**
 * Parse bench argv. `--quick` switches the binary into smoke mode:
 * suites are clipped (clipForQuick) and a completion marker is
 * printed at clean exit, which the CTest smoke tests match with
 * PASS_REGULAR_EXPRESSION — a crash or early abort never reaches the
 * atexit handler, so it fails the smoke test.
 */
inline void
initBench(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quickMode() = true;
    }
    if (quickMode()) {
        std::atexit(
            [] { std::printf("[bench-smoke-complete]\n"); });
    }
}

/**
 * Untimed warmup passes to run before timed repetitions. Absorbs
 * one-time host costs (allocator growth, page-in, code paging) so the
 * timed samples are steady-state and the median is stable; --quick
 * keeps a single pass so the smoke tests stay fast.
 */
inline int
warmupPasses()
{
    return quickMode() ? 1 : 2;
}

/** Under --quick, keep only the first @p keep entries of a suite. */
template <typename T>
std::vector<T>
clipForQuick(const std::vector<T> &suite, size_t keep = 2)
{
    if (!quickMode() || suite.size() <= keep)
        return suite;
    return std::vector<T>(suite.begin(),
                          suite.begin() + static_cast<long>(keep));
}

/** Result of running one benchmark under one architecture. */
struct RunResult {
    std::string id;
    bool inAvgS = false;
    ExecutionStats stats;
};

/**
 * Run a whole suite under one architecture. @p trace_capacity > 0
 * enables the engine trace ring (bench/wallclock --traced uses it to
 * gauge tracing overhead); events are discarded, only the cost of
 * emitting them is measured. @p jit_tier selects the region
 * template-compilation tier for optimized IR, as a default Engine
 * does; false runs the IrExecutor reference (bit-identical stats,
 * host speed only).
 */
inline std::vector<RunResult>
runSuite(const std::vector<BenchmarkSpec> &suite, Architecture arch,
         Tier max_tier = Tier::Ftl, uint32_t trace_capacity = 0,
         bool jit_tier = true)
{
    std::vector<RunResult> results;
    for (const BenchmarkSpec &spec : suite) {
        EngineConfig config;
        config.arch = arch;
        config.maxTier = max_tier;
        config.traceCapacity = trace_capacity;
        config.jitTier = jit_tier;
        Engine engine(config);
        EngineResult r = engine.run(spec.source);
        results.push_back({spec.id, spec.inAvgS, r.stats});
    }
    return results;
}

/** Extract one metric from every run. */
template <typename Fn>
std::vector<double>
metric(const std::vector<RunResult> &runs, Fn fn, bool avgs_only)
{
    std::vector<double> out;
    for (const RunResult &r : runs) {
        if (avgs_only && !r.inAvgS)
            continue;
        out.push_back(fn(r));
    }
    return out;
}

/** AvgS/AvgT pair of a per-benchmark metric. */
template <typename Fn>
std::pair<double, double>
averages(const std::vector<RunResult> &runs, Fn fn)
{
    return {mean(metric(runs, fn, true)),
            mean(metric(runs, fn, false))};
}

/** The six architectures in paper order. */
inline const std::vector<Architecture> &
allArchitectures()
{
    static const std::vector<Architecture> archs = {
        Architecture::Base,   Architecture::NoMapS,
        Architecture::NoMapB, Architecture::NoMap,
        Architecture::NoMapBC, Architecture::NoMapRTM,
    };
    return archs;
}

} // namespace bench
} // namespace nomap

#endif // NOMAP_BENCH_HARNESS_H
