#include <gtest/gtest.h>

#include "engine/engine.h"
#include "testing/stats_equal.h"

namespace nomap {
namespace {

/**
 * FTL-executor behaviours that only show under adversarial
 * conditions: flattened transaction nesting, tiled commits with
 * promoted accumulators, RTM read-set pressure, and the transaction
 * watchdog.
 *
 * Optimized IR has two executors: the region template tier (the
 * default) and the IrExecutor reference loop (jitTier = false), which
 * the default path never enters. runArch runs every program on both
 * and expects them to agree on the result and every counter, so each
 * test's expectations hold for both.
 */

EngineResult
runArch(Architecture arch, const std::string &src,
        EngineConfig base = EngineConfig())
{
    base.arch = arch;
    EngineResult runs[2];
    for (int jit = 0; jit < 2; ++jit) {
        base.jitTier = jit != 0;
        Engine engine(base);
        runs[jit] = engine.run(src);
    }
    const EngineResult &ref = runs[0];
    EXPECT_EQ(runs[1].resultString, ref.resultString);
    EXPECT_EQ(runs[1].printed, ref.printed);
    testutil::expectSameStats(runs[1].stats, ref.stats);
    return ref;
}

TEST(FtlExecutor, FlattenedNestedTransactionsCommit)
{
    // Both caller and callee are hot enough to carry their own
    // transactions; the callee's TxBegin nests inside the caller's
    // and must flatten (single outermost commit scope).
    const char *src = R"JS(
function inner(a) {
    var s = 0;
    for (var i = 0; i < a.length; i++) s = (s + a[i]) & 65535;
    return s;
}
function outer(a, reps) {
    var t = 0;
    for (var r = 0; r < reps; r++) {
        t = (t + inner(a)) & 65535;
    }
    return t;
}
var a = [];
for (var i = 0; i < 64; i++) a[i] = i;
// Train inner alone first so it is FTL before outer wraps it.
var w = 0;
for (var r = 0; r < 150; r++) w = inner(a);
for (var r2 = 0; r2 < 150; r2++) w = (w + outer(a, 3)) & 65535;
result = w;
)JS";
    EngineResult base = runArch(Architecture::Base, src);
    EngineResult nomap = runArch(Architecture::NoMap, src);
    EXPECT_EQ(base.resultString, nomap.resultString);
    EXPECT_GT(nomap.stats.txCommits, 0u);
    EXPECT_EQ(nomap.stats.txAborts, 0u);
}

TEST(FtlExecutor, NestedAbortUnwindsToOutermostOwner)
{
    // The callee's converted check fails while the caller owns the
    // transaction: the abort must unwind the whole nest and re-enter
    // the *caller's* Baseline code, and the result must be exact.
    const char *src = R"JS(
var probe = {x: 1, y: 2};
function inner(p, n) {
    var s = 0;
    for (var i = 0; i < n; i++) s += p.x;
    return s;
}
function outer(p, reps) {
    var t = 0;
    for (var r = 0; r < reps; r++) t += inner(p, 20);
    return t;
}
var w = 0;
for (var r = 0; r < 160; r++) w = inner(probe, 20);
for (var r2 = 0; r2 < 160; r2++) w = outer(probe, 2);
var other = {y: 5, x: 7};
result = outer(other, 2) + w;
)JS";
    EngineResult base = runArch(Architecture::Base, src);
    EngineResult nomap = runArch(Architecture::NoMap, src);
    EXPECT_EQ(base.resultString, nomap.resultString);
    EXPECT_GT(nomap.stats.txAborts, 0u);
}

TEST(FtlExecutor, TiledLoopWithPromotedAccumulator)
{
    // Big streaming loop (tiled) that also carries a promoted global
    // accumulator: the flush-before-tile-commit path must keep the
    // value exact even when an abort lands mid-stream.
    const char *src = R"JS(
var total = 0;
function fill(dst, n) {
    for (var i = 0; i < n; i++) {
        dst[i] = i & 255;
        total = (total + (i & 7)) % 100000;
    }
    return dst[n - 1];
}
var dst = [];
for (var i = 0; i < 60000; i++) dst[i] = 0;
var out = 0;
for (var r = 0; r < 70; r++) { total = 0; out = fill(dst, 60000); }
result = out + total;
)JS";
    EngineResult base = runArch(Architecture::Base, src);
    EngineResult nomap = runArch(Architecture::NoMap, src);
    EXPECT_EQ(base.resultString, nomap.resultString);
    // Tiling implies several commits per call.
    EXPECT_GT(nomap.stats.txCommits, 100u);
}

TEST(FtlExecutor, RtmReadSetCanAbort)
{
    // Reads of a >256KB working set inside an RTM transaction must
    // overflow the read-set tracker (L2 geometry) and abort; the
    // engine then recompiles/detransactionalizes, and the program
    // still computes the right answer.
    const char *src = R"JS(
function sum(a) {
    var s = 0;
    for (var i = 0; i < a.length; i++) s = (s + a[i]) & 65535;
    return s;
}
var a = [];
for (var i = 0; i < 50000; i++) a[i] = i & 15;
var out = 0;
for (var r = 0; r < 70; r++) out = sum(a);
result = out;
)JS";
    EngineResult base = runArch(Architecture::Base, src);
    EngineResult rtm = runArch(Architecture::NoMapRTM, src);
    EXPECT_EQ(base.resultString, rtm.resultString);
    // Either capacity aborts occurred (read set) or the planner never
    // managed a fitting transaction — both are RTM-starvation modes.
    EXPECT_TRUE(rtm.stats.txAbortsCapacity > 0 ||
                rtm.stats.txCommits < 70u);
}

TEST(FtlExecutor, WatchdogKillsRunawayTransaction)
{
    // With an artificially tiny watchdog, even a well-behaved
    // transactional loop gets killed and must fall back to Baseline
    // with a correct result.
    EngineConfig config;
    config.txWatchdogInstructions = 200;
    const char *src = R"JS(
function grind(a) {
    var s = 0;
    for (var i = 0; i < a.length; i++) s = (s + a[i] * 3) & 65535;
    return s;
}
var a = [];
for (var i = 0; i < 200; i++) a[i] = i;
var out = 0;
for (var r = 0; r < 150; r++) out = grind(a);
result = out;
)JS";
    EngineResult base = runArch(Architecture::Base, src);
    EngineResult nomap = runArch(Architecture::NoMap, src, config);
    EXPECT_EQ(base.resultString, nomap.resultString);
    EXPECT_GT(nomap.stats.txAborts, 0u);
}

TEST(FtlExecutor, DfgTierAlsoDeoptsCorrectly)
{
    // Cap at DFG: its (unconverted) checks must OSR-exit exactly like
    // FTL's.
    EngineConfig config;
    config.maxTier = Tier::Dfg;
    const char *src = R"JS(
function addUp(a, b) { return a + b; }
var out = 0;
for (var r = 0; r < 60; r++) out = addUp(out & 1023, r);
out = addUp(2000000000, 2000000000);
result = out;
)JS";
    EngineResult r = runArch(Architecture::Base, src, config);
    EXPECT_EQ(r.resultString, "4000000000");
    EXPECT_GT(r.stats.deopts, 0u);
}

TEST(FtlExecutor, GenericPathsInsideTransactionsRollBack)
{
    // Method calls (push) inside a transactional loop write through
    // runtime helpers; an abort later in the same transaction must
    // undo them too.
    const char *src = R"JS(
var log = [];
function process(a, bad) {
    var s = 0;
    for (var i = 0; i < a.length; i++) {
        s += a[i];
        if (bad && i == 5) s += a[i] + undefined;  // NaN poison
    }
    return s;
}
var a = [];
for (var i = 0; i < 60; i++) a[i] = 1;
var out = 0;
for (var r = 0; r < 150; r++) out = process(a, false);
var poisoned = process(a, true);
result = "" + out + "|" + isNaN(poisoned);
)JS";
    EngineResult base = runArch(Architecture::Base, src);
    EngineResult nomap = runArch(Architecture::NoMap, src);
    EXPECT_EQ(base.resultString, nomap.resultString);
    EXPECT_EQ(base.resultString, "60|true");
}

TEST(FtlExecutor, InstructionBucketsSumExactly)
{
    const char *src = R"JS(
function f(a) {
    var s = 0;
    for (var i = 0; i < a.length; i++) s = (s + a[i]) & 4095;
    return s;
}
var a = [];
for (var i = 0; i < 100; i++) a[i] = i;
var out = 0;
for (var r = 0; r < 140; r++) out = f(a);
result = out;
)JS";
    EngineResult r = runArch(Architecture::NoMap, src);
    uint64_t sum = 0;
    for (size_t i = 0;
         i < static_cast<size_t>(InstrBucket::NumBuckets); ++i) {
        sum += r.stats.instr[i];
    }
    EXPECT_EQ(sum, r.stats.totalInstructions());
    EXPECT_GT(r.stats.cyclesTm, 0.0);
    EXPECT_GT(r.stats.cyclesNonTm, 0.0);
}

} // namespace
} // namespace nomap
