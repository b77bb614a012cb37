/**
 * @file
 * Per-layer numbers: the per-access microbenchmarks (memsim and HTM
 * calls are too fine to time one by one, so their share is measured ns
 * per call times the exact call counts a run reports) and the printer
 * of every per-layer metric.
 */

#include <algorithm>

#include "htm/transaction.h"
#include "memsim/hierarchy.h"
#include "perfbench.h"
#include "support/logging.h"

namespace nomap::perfbench {

namespace {

constexpr Addr kHeapBase = 0x10000000;

/** Median of @p reps timings of @p body, in ns per call of @p calls. */
template <typename Body>
double
nsPerCall(size_t calls, int reps, Body &&body)
{
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        int64_t t0 = nowNs();
        body();
        samples.push_back(static_cast<double>(nowNs() - t0) /
                          static_cast<double>(calls));
    }
    return median(samples);
}

/**
 * ns per MemHierarchy::access on an address stream whose L1 hit ratio
 * is about @p l1_hit_ratio; *achieved gets the ratio the stream hit.
 */
double
memsimNsPerAccess(double l1_hit_ratio, double *achieved)
{
    // Guest code walks objects and arrays word by word, so a stream of
    // runs of eight consecutive words: runs inside a hot set well
    // within L1 (32 KiB), or on cold lines spread over 64 MiB. The
    // share of cold runs sets the L1 hit ratio (a cold run misses on
    // its first word only).
    constexpr size_t kStream = 1 << 18;
    constexpr uint64_t kHotLines = 128;
    constexpr uint64_t kColdLines = (64u << 20) / 64;
    double cold_share = std::min(1.0, (1.0 - l1_hit_ratio) * 8);
    Rng rng(0x6d656d73696dull);
    std::vector<Addr> addrs(kStream);
    for (size_t i = 0; i < kStream; i += 8) {
        uint64_t line = rng.unit() < cold_share
                            ? kHotLines + rng.below(kColdLines)
                            : rng.below(kHotLines);
        for (size_t w = 0; w < 8; ++w)
            addrs[i + w] = kHeapBase + line * 64 + 8 * w;
    }
    MemHierarchy mem;
    uint64_t sink = 0;
    auto sweep = [&]() {
        for (size_t i = 0; i < addrs.size(); ++i)
            sink += mem.access(addrs[i], (i & 3) == 3);
    };
    sweep(); // warm the hot set
    mem.resetStats();
    double ns = nsPerCall(addrs.size(), 5, sweep);
    if (achieved)
        *achieved = 1.0 - mem.l1().stats().missRate();
    if (sink == 1)
        std::fprintf(stderr, " "); // keeps the loop observable
    return ns;
}

struct HtmCosts {
    /** ns per TransactionManager::recordRead/recordWrite (mean). */
    double nsPerRecord = 0;
    /** ns per begin() + end() pair of an empty transaction. */
    double nsPerTx = 0;
};

HtmCosts
htmCosts(Architecture arch)
{
    // Records: one long transaction over 16 lines, so (as in guest
    // loops) nearly every record hits a line already tracked. Begin
    // plus end: empty transactions.
    constexpr size_t kRecords = 1 << 16;
    constexpr size_t kTx = 1 << 12;
    TransactionManager htm(htmModeOf(arch), CapacityModelKind::WaysAssoc);
    Rng rng(0x68746dull);
    std::vector<Addr> addrs(kRecords);
    for (Addr &a : addrs)
        a = kHeapBase + 64 * rng.below(16) + 8 * rng.below(8);
    uint64_t ok = 0;
    auto records = [&]() {
        htm.begin();
        for (size_t i = 0; i < kRecords; i += 2) {
            ok += htm.recordRead(addrs[i]);
            ok += htm.recordWrite(addrs[i + 1]);
        }
        htm.end();
    };
    auto empty = [&]() {
        for (size_t t = 0; t < kTx; ++t) {
            htm.begin();
            htm.end();
        }
    };
    records();
    HtmCosts costs;
    costs.nsPerRecord = nsPerCall(kRecords, 5, records);
    costs.nsPerTx = nsPerCall(kTx, 5, empty);
    if (ok == 1)
        std::fprintf(stderr, " ");
    return costs;
}

/** Print every per-layer metric. */
void
addLayerMetrics(const LayerReport &in, Report &report)
{
    const LayerTotals &l = in.layers;
    double runs = static_cast<double>(std::max<uint64_t>(l.runs, 1));
    auto per = [](double x, uint64_t n) {
        return n ? x / static_cast<double>(n) : 0.0;
    };

    report.add("js.parse_ms", l.parseSeconds * 1e3 / runs, "ms");
    report.add("js.lex_mtok_per_s",
               l.lexSeconds > 0
                   ? static_cast<double>(l.tokens) / l.lexSeconds / 1e6
                   : 0,
               "Mtok/s");
    report.add("bytecode.compile_ms", l.bytecodeSeconds * 1e3 / runs,
               "ms");
    report.add("bytecode.ops", static_cast<double>(l.bytecodeOps) / runs,
               "count");

    report.add("engine.cache_hit_ratio", in.cacheHitRatio, "ratio");
    report.add("engine.cache_instantiate_us",
               per(l.instantiateSeconds * 1e6, l.instantiates), "us");
    report.add("engine.reset_us", per(l.resetSeconds * 1e6, l.resets),
               "us");
    report.add("engine.construct_ms",
               per(l.constructSeconds * 1e3, l.constructs), "ms");
    report.add("engine.ftl_request_share", in.ftlRequestShare, "ratio");

    report.add("ftl.compile_ms", l.compileSeconds * 1e3 / runs, "ms");
    report.add("ftl.compiles", static_cast<double>(l.compiles) / runs,
               "count");
    report.add("ir.ops_after_passes", static_cast<double>(l.irOps) / runs,
               "count");
    report.add("passes.checks_removed",
               static_cast<double>(l.checksRemoved) / runs, "count");
    report.add("nomap.tx_placed", static_cast<double>(l.txPlaced) / runs,
               "count");
    report.add("jit.chain_build_us", l.chainSeconds * 1e6 / runs, "us");
    report.add("jit.chain_records",
               static_cast<double>(l.chainRecords) / runs, "count");

    // Execution tiers, from the traced pass and the per-tier passes.
    const PassResult &p = in.pass;
    report.add("exec.self_s.base", p.execSelfSeconds[0], "s");
    report.add("exec.self_s.nomap", p.execSelfSeconds[1], "s");
    static const char *const kTierNames[3] = {"interp", "ftl", "jit"};
    report.add("interp.pass_s", in.tierPassSeconds[0], "s");
    report.add("ftl.exec_pass_s", in.tierPassSeconds[1], "s");
    report.add("jit.exec_pass_s", in.tierPassSeconds[2], "s");
    for (int t = 0; t < 3; ++t) {
        report.add(std::string("exec.ns_per_guest_instr.") + kTierNames[t],
                   in.tierInstructions[t]
                       ? in.tierPassSeconds[t] * 1e9 /
                             static_cast<double>(in.tierInstructions[t])
                       : 0,
                   "ns");
    }
    const GuestTotals &gb = p.guest[0];
    const GuestTotals &gn = p.guest[1];
    report.add("guest.instructions",
               static_cast<double>(gb.instructions + gn.instructions),
               "count");
    report.add("guest.cycles", gb.cycles + gn.cycles, "cycles");

    // memsim: exact access counts of the traced pass times measured
    // ns per MemHierarchy::access at the same L1 hit ratio.
    uint64_t acc_b = gb.l1Hits + gb.l1Misses;
    uint64_t acc_n = gn.l1Hits + gn.l1Misses;
    uint64_t l1_acc = acc_b + acc_n;
    uint64_t l1_miss = gb.l1Misses + gn.l1Misses;
    uint64_t l2_acc = gb.l2Hits + gb.l2Misses + gn.l2Hits + gn.l2Misses;
    uint64_t l2_miss = gb.l2Misses + gn.l2Misses;
    double l1_hit = l1_acc ? 1.0 - per(static_cast<double>(l1_miss), l1_acc)
                           : 0.9;
    double achieved = 0;
    double ns_access = memsimNsPerAccess(l1_hit, &achieved);
    double exec_b = p.execSelfSeconds[0];
    double exec_n = p.execSelfSeconds[1];
    double mem_b = ns_access * static_cast<double>(acc_b) * 1e-9;
    double mem_n = ns_access * static_cast<double>(acc_n) * 1e-9;
    report.add("memsim.l1_accesses", static_cast<double>(l1_acc), "count");
    report.add("memsim.l1_miss_ratio",
               per(static_cast<double>(l1_miss), l1_acc), "ratio");
    report.add("memsim.l2_miss_ratio",
               per(static_cast<double>(l2_miss), l2_acc), "ratio");
    report.add("memsim.ns_per_access", ns_access, "ns");
    report.add("memsim.est_share",
               exec_b + exec_n > 0 ? (mem_b + mem_n) / (exec_b + exec_n) : 0,
               "ratio");
    report.note(strprintf("memsim stream: target L1 hit %.4f, achieved "
                          "%.4f",
                          l1_hit, achieved));

    // htm: NoMap places transactions, Base none. Records are estimated
    // as the NoMap accesses made inside transactions (by the share of
    // guest instructions executed transactionally); begins are exact.
    HtmCosts htm = htmCosts(Architecture::NoMap);
    double tx_share =
        gn.instructions ? static_cast<double>(gn.txInstructions) /
                              static_cast<double>(gn.instructions)
                        : 0;
    double records = static_cast<double>(acc_n) * tx_share;
    double htm_s = (htm.nsPerRecord * records +
                    htm.nsPerTx * static_cast<double>(gn.htmBegins)) *
                   1e-9;
    report.add("htm.begins", static_cast<double>(gn.htmBegins), "count");
    report.add("htm.commits", static_cast<double>(gn.htmCommits), "count");
    report.add("htm.aborts", static_cast<double>(gn.htmAborts), "count");
    report.add("htm.commit_ratio",
               per(static_cast<double>(gn.htmCommits), gn.htmBegins),
               "ratio");
    report.add("htm.ns_per_record", htm.nsPerRecord, "ns");
    report.add("htm.ns_per_tx", htm.nsPerTx, "ns");
    report.add("htm.est_share", exec_n > 0 ? htm_s / exec_n : 0, "ratio");
    report.add("exec.unexplained_s.base", exec_b - mem_b, "s");
    report.add("exec.unexplained_s.nomap", exec_n - mem_n - htm_s, "s");

    // Serving path (zero on the suites workload, which has none).
    report.add("service.queue_us.p50", percentile(in.queueUs, 50), "us");
    report.add("service.queue_us.p99", percentile(in.queueUs, 99), "us");
    report.add("service.exec_us.p50", percentile(in.execUs, 50), "us");
    report.add("service.exec_us.p99", percentile(in.execUs, 99), "us");
    report.add("service.queue_high_water", in.queueHighWater, "count");
    report.add("service.engines_reused_ratio", in.enginesReusedRatio,
               "ratio");
    report.add("service.retries", in.retries, "count");
    report.add("service.shed", in.shed, "count");
    report.add("net.overhead_us.p50", in.netOverheadUsP50, "us");
    report.add("net.encode_us", in.netEncodeUs, "us");
    report.add("net.bytes_per_request", in.netBytesPerRequest, "bytes");
    report.add("net.deferred_frames", in.deferredFrames, "count");
    report.add("client.send_lag_ms", in.sendLagMs, "ms");
    report.add("client.latency_p99_ms", in.latencyP99Ms, "ms");

    // Busy self-time shares of the request path (serving) or of a
    // pass (suites), by layer group. Queue wait is not busy time; it
    // is service.queue_us.
    double groups[4] = {in.frontCompileSeconds, in.execSeconds,
                        in.lifecycleSeconds, in.netSeconds};
    static const char *const kGroups[4] = {
        "layer.front_compile_share", "layer.exec_share",
        "layer.lifecycle_share", "layer.net_share"};
    double total = 0;
    for (double g : groups)
        total += std::max(g, 0.0);
    for (int i = 0; i < 4; ++i) {
        report.add(kGroups[i], total > 0 ? std::max(groups[i], 0.0) / total
                                         : 0,
                   "ratio");
    }
    report.add("trace.overhead_frac", in.traceOverheadFrac, "ratio");
}

} // namespace

void
reportLayers(const std::vector<PassItem> &items, LayerReport &lr,
             const Tracer &tracer, const Options &opts, Report &report)
{
    // One pass per execution tier (ROADMAP's per-tier pass). The
    // interpreter-only pass changes the stats, never the results.
    EngineConfig tiers[3];
    tiers[0].maxTier = Tier::Interpreter;
    tiers[1].jitTier = false;
    tiers[2].jitTier = true;
    for (int t = 0; t < 3; ++t) {
        PassResult p = runPass(items, tiers[t], report, t != 0);
        lr.tierPassSeconds[t] = p.seconds[0] + p.seconds[1];
        lr.tierInstructions[t] =
            p.guest[0].instructions + p.guest[1].instructions;
    }
    addLayerMetrics(lr, report);

    std::string path = opts.outDir + "/spans-" + opts.workload + ".json";
    if (tracer.writeChromeJson(path))
        report.note("spans: " + path);
    for (const auto &[name, secs] : tracer.selfSeconds())
        report.note(strprintf("self %-26s %10.4f s", name.c_str(), secs));
}

} // namespace nomap::perfbench
