#ifndef NOMAP_PERFBENCH_PERFBENCH_H
#define NOMAP_PERFBENCH_PERFBENCH_H

/**
 * @file
 * The repo benchmark: shared types for the workloads (suites,
 * serve-repeat, serve-distinct), the metric report, the span tracer
 * and the helpers the self-tests check.
 *
 * Everything here sits outside the library: layers are timed around
 * calls into their public functions, never from inside src/.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/config.h"
#include "engine/stats.h"

namespace nomap {
class Engine;
}

namespace nomap::perfbench {

// ---- Clock, RNG, statistics -------------------------------------------

using Clock = std::chrono::steady_clock;

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** splitmix64: every workload input is a pure function of the seed. */
struct Rng {
    uint64_t state;
    explicit Rng(uint64_t seed) : state(seed) {}
    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return n ? next() % n : 0; }
    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
};

/**
 * Percentile @p p (0..100) of @p xs by linear interpolation between
 * closest ranks (numpy's default). 0 for an empty input.
 */
double percentile(std::vector<double> xs, double p);

double median(const std::vector<double> &xs);

double mean(const std::vector<double> &xs);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

// ---- Output checking ---------------------------------------------------

/**
 * What a run must reproduce exactly: the result string and the wire
 * stats digest (the fields NoMapServer ships, cycles as raw bits).
 */
struct Digest {
    std::string result;
    uint64_t instructions = 0;
    uint64_t checks = 0;
    uint64_t cyclesBits = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t deopts = 0;

    static Digest of(const std::string &result,
                     const ExecutionStats &stats);
    bool operator==(const Digest &) const = default;
};

/** The reference configuration outputs are checked against. */
EngineConfig referenceConfig(Architecture arch);

// ---- Report ------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** One run's verdict and metrics; printed as the final JSON line. */
struct Report {
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines for stderr (sample counts, breakdowns). */
    std::vector<std::string> notes;

    void add(const std::string &name, double value,
             const std::string &unit);
    /** Record a correctness failure (also printed to stderr). */
    void fail(const std::string &why);
    void note(const std::string &line) { notes.push_back(line); }
    std::string json() const;
};

// ---- Span tracer -------------------------------------------------------

/**
 * In-memory span log: one record per timed call, written out only
 * when the run ends. A span's self time is its duration minus the
 * durations of its children. Children marked `replay` re-time, right
 * after their parent returns, work the parent did internally (e.g.
 * parseProgram inside Engine::run): their interval lies after the
 * parent's, but their duration is still the part of the parent they
 * account for.
 */
class Tracer
{
  public:
    struct Span {
        uint32_t name = 0;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int32_t parent = -1;
        uint64_t request = 0;
        bool replay = false;
    };

    /** Record a finished span; returns its index. */
    int32_t add(const std::string &name, int64_t start_ns,
                int64_t end_ns, int32_t parent, uint64_t request,
                bool replay = false);

    /** Self time per span name, summed over every span, in seconds. */
    std::vector<std::pair<std::string, double>> selfSeconds() const;

    /** Chrome trace_event JSON (loads in Perfetto). */
    bool writeChromeJson(const std::string &path) const;

  private:
    uint32_t intern(const std::string &name);
    std::vector<std::string> names;
    std::vector<Span> spans;
};

// ---- Workload inputs ---------------------------------------------------

/** One program the benchmark sends or runs. */
struct Script {
    std::string id;
    std::string source;
};

/** serve-repeat pool: ~32 short programs, heavy-tailed sizes. */
std::vector<Script> repeatPrograms(uint64_t seed);

/**
 * serve-distinct script number @p n: unique identifiers and constants,
 * never repeating within one seed. A pure function of (seed, n), so a
 * run can regenerate a script when it sends it instead of keeping it.
 */
Script distinctProgram(uint64_t seed, size_t n);

/** serve-distinct scripts 0 .. @p count - 1. */
std::vector<Script> distinctPrograms(uint64_t seed, size_t count);

// ---- Passes (shared by suites and the serving workloads) ---------------

/** Arch slot in per-arch arrays: the benchmark compares these two. */
constexpr Architecture kArchs[2] = {Architecture::Base,
                                    Architecture::NoMap};
inline size_t
archSlot(Architecture arch)
{
    return arch == Architecture::Base ? 0 : 1;
}

/** Host times and call counts of the layers one traced run touched. */
struct LayerTotals {
    double lexSeconds = 0, parseSeconds = 0, bytecodeSeconds = 0;
    double compileSeconds = 0, chainSeconds = 0;
    uint64_t tokens = 0, bytecodeOps = 0;
    uint64_t compiles = 0, irOps = 0, checksRemoved = 0, txPlaced = 0;
    uint64_t chainRecords = 0;
    double constructSeconds = 0;
    uint64_t constructs = 0;
    double resetSeconds = 0;
    uint64_t resets = 0;
    double instantiateSeconds = 0;
    uint64_t instantiates = 0;
    /** Engine::run calls the replay decomposed. */
    uint64_t runs = 0;
};

/**
 * Replay, as spans under @p parent, the module calls Engine::run made
 * internally for @p source on @p engine (which has just run it): the
 * front end (lex, parse, bytecode compile) unless @p cache_hit, one
 * compileFunction per DFG/FTL tier each function reached, and a jit
 * chain build per FTL function. Returns the replayed seconds, i.e.
 * the part of the run that was not execution.
 */
double replayRun(Engine &engine, const std::string &source,
                 bool cache_hit, Tracer &tracer, int32_t parent,
                 uint64_t request, LayerTotals &totals);

/** One entry of a pass: a program under one arch, and what it must give. */
struct PassItem {
    const Script *script = nullptr;
    Architecture arch = Architecture::Base;
    Digest expected;
};

/** Exact guest-side counters, summed over a pass, per arch. */
struct GuestTotals {
    uint64_t instructions = 0;
    double cycles = 0;
    uint64_t txInstructions = 0;
    uint64_t l1Hits = 0, l1Misses = 0, l2Hits = 0, l2Misses = 0;
    uint64_t htmBegins = 0, htmCommits = 0, htmAborts = 0;
    /** Runs that compiled at least one function to FTL. */
    uint64_t ftlRuns = 0;
};

/** Outcome of one pass. */
struct PassResult {
    /** Wall seconds per arch slot: Engine construction plus run. */
    double seconds[2] = {0, 0};
    /** Wall seconds of each item, in item order. */
    std::vector<double> itemSeconds;
    uint64_t mismatches = 0;
    GuestTotals guest[2];
    /** Traced passes: Engine::run time minus the replayed calls. */
    double execSelfSeconds[2] = {0, 0};
};

/**
 * Run every item once, each in a fresh Engine built from @p config
 * with the item's arch, and check its digest (only the result string
 * unless @p check_stats: a config that caps the tier changes the
 * stats but never the result). With a tracer, also record spans and
 * replay each run's front end and compiles.
 */
PassResult runPass(const std::vector<PassItem> &items,
                   const EngineConfig &config, Report &report,
                   bool check_stats = true, Tracer *tracer = nullptr,
                   LayerTotals *layers = nullptr);

// ---- Per-layer report --------------------------------------------------

/** Everything the per-layer metrics are computed from. */
struct LayerReport {
    LayerTotals layers;
    /** The traced pass (memsim/HTM counts, execution self time). */
    PassResult pass;
    /** interp, ftl and jit tier passes: seconds and guest instrs. */
    double tierPassSeconds[3] = {0, 0, 0};
    uint64_t tierInstructions[3] = {0, 0, 0};

    // Serving path; left zero by the suites workload.
    double cacheHitRatio = 0;
    double ftlRequestShare = 0;
    std::vector<double> queueUs, execUs;
    double queueHighWater = 0, enginesReusedRatio = 0;
    double retries = 0, shed = 0;
    double netOverheadUsP50 = 0, netEncodeUs = 0;
    double netBytesPerRequest = 0, deferredFrames = 0, sendLagMs = 0;
    /** Open-loop p99 (too noisy on shared hosts to gate on). */
    double latencyP99Ms = 0;

    /** Busy self seconds per layer group (layer.*_share metrics). */
    double frontCompileSeconds = 0, execSeconds = 0;
    double lifecycleSeconds = 0, netSeconds = 0;

    /** (traced - untraced) / untraced, on the workload's main number. */
    double traceOverheadFrac = 0;
};

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Directory for the span dump (inside the checkout). */
    std::string outDir;
    /** Committed suites expectations. */
    std::string expectedPath;
};

/**
 * Finish a traced run: one pass of @p items per execution tier, every
 * per-layer metric (this runs the per-access microbenchmarks), and the
 * span dump.
 */
void reportLayers(const std::vector<PassItem> &items, LayerReport &lr,
                  const Tracer &tracer, const Options &opts,
                  Report &report);

// ---- Workloads ---------------------------------------------------------

void runSuites(const Options &opts, Report &report);
void runServe(const Options &opts, bool distinct, Report &report);

/** Regenerate the suites expectations file from the reference mode. */
int writeSuitesExpected(const std::string &path);

/**
 * Check one suites pass against @p expected_path; returns the number
 * of mismatching (program, arch) entries. Used by the self-tests.
 */
uint64_t checkSuitesOnce(const std::string &expected_path);

int runSelfTests(const Options &opts);

} // namespace nomap::perfbench

#endif // NOMAP_PERFBENCH_PERFBENCH_H
