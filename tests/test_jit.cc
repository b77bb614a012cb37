/**
 * @file
 * Differential test for the region template-compilation tier
 * (EngineConfig::jitTier): an Engine run with the compiled tier
 * enabled must be bit-identical — result value, print output, every
 * ExecutionStats counter, and the full trace-event stream including
 * virtual-cycle timestamps — to the FTL reference path, and must
 * compute the same guest-visible results as a pure-interpreter run.
 * The chain of continuation templates is a pure host-speed
 * optimization; nothing guest-visible may move.
 *
 * The equivalence must hold under armed deterministic fault plans
 * (the compiled path fires every injection site the FTL path fires,
 * in the same occurrence order), with tracing enabled, and across
 * adaptive replanning mid-abort-storm — where tier revisions must
 * respect the activeRuns/pendingRecompile deferral so the region
 * chain is never rebuilt under a live activation. DFG-tier IR runs on
 * its own chain when the tier is on, so the suites are also compared
 * with the engine capped at DFG.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "inject/fault_plan.h"
#include "jit/jit_chain.h"
#include "suites/suite.h"
#include "testing/program_generator.h"
#include "testing/stats_equal.h"
#include "trace/trace.h"

namespace nomap {
namespace {

struct Outcome {
    std::string result;
    std::string printed;
    ExecutionStats stats;
    std::vector<TraceEvent> events;
};

Outcome
runOutcome(const std::string &source, Architecture arch, bool jit,
           uint32_t trace_capacity, const FaultPlan *plan,
           Tier max_tier = Tier::Ftl)
{
    EngineConfig config;
    config.arch = arch;
    config.maxTier = max_tier;
    config.jitTier = jit;
    config.traceCapacity = trace_capacity;
    Engine engine(config);
    if (plan)
        engine.armFaultPlan(plan);
    EngineResult r = engine.run(source);
    Outcome out;
    out.result = r.resultString;
    out.printed = r.printed;
    out.stats = r.stats;
    if (engine.trace())
        out.events = engine.trace()->events();
    return out;
}

void
expectSameOutcome(const Outcome &jit, const Outcome &ftl)
{
    EXPECT_EQ(jit.result, ftl.result);
    EXPECT_EQ(jit.printed, ftl.printed);
    testutil::expectSameStats(jit.stats, ftl.stats);
    // Element-wise trace equality, virtual-cycle timestamps included:
    // the compiled tier must not shift when any event is emitted.
    ASSERT_EQ(jit.events.size(), ftl.events.size());
    for (size_t i = 0; i < jit.events.size(); ++i) {
        EXPECT_TRUE(jit.events[i] == ftl.events[i])
            << "trace event " << i << " differs";
    }
}

void
compareSuite(const std::vector<BenchmarkSpec> &suite, Architecture arch,
             uint32_t trace_capacity = 0,
             const FaultPlan *plan = nullptr,
             Tier max_tier = Tier::Ftl)
{
    for (const BenchmarkSpec &spec : suite) {
        SCOPED_TRACE(spec.id + " on " + architectureName(arch));
        expectSameOutcome(runOutcome(spec.source, arch, true,
                                     trace_capacity, plan, max_tier),
                          runOutcome(spec.source, arch, false,
                                     trace_capacity, plan, max_tier));
    }
}

/** First @p keep entries (keeps the fault/trace sweeps affordable). */
std::vector<BenchmarkSpec>
prefix(const std::vector<BenchmarkSpec> &suite, size_t keep)
{
    if (suite.size() <= keep)
        return suite;
    return std::vector<BenchmarkSpec>(
        suite.begin(), suite.begin() + static_cast<long>(keep));
}

class Jit : public ::testing::TestWithParam<Architecture>
{
};

TEST_P(Jit, SunSpiderMatchesFtlPath)
{
    compareSuite(sunspiderSuite(), GetParam());
}

TEST_P(Jit, KrakenMatchesFtlPath)
{
    compareSuite(krakenSuite(), GetParam());
}

// Capped at DFG, every hot function runs DFG-tier IR for the whole
// program, so the DFG chain carries all of the optimized execution.
TEST_P(Jit, DfgCappedSuitesMatchIrExecutor)
{
    compareSuite(sunspiderSuite(), GetParam(), 0, nullptr, Tier::Dfg);
    compareSuite(krakenSuite(), GetParam(), 0, nullptr, Tier::Dfg);
}

// The three-way contract over generated programs: compiled tier vs
// FTL bit-identical (stats and all), and both agree with a
// pure-interpreter run on everything guest-visible (the interpreter
// tiers differently, so its stats legitimately differ).
TEST_P(Jit, FuzzProgramsMatchFtlAndInterpreter)
{
    const uint64_t first = testutil::fuzzSeedFromEnv(1);
    const uint64_t iters =
        std::max<uint64_t>(1, testutil::fuzzItersFromEnv(40));
    for (uint64_t seed = first; seed < first + iters; ++seed) {
        testutil::ProgramGenerator gen(seed);
        const std::string src = gen.generate();
        SCOPED_TRACE("seed " + std::to_string(seed) + " on " +
                     architectureName(GetParam()) + "\nreproduce: " +
                     testutil::reproHint(seed) + " ./tests/test_jit");
        Outcome jit = runOutcome(src, GetParam(), true, 0, nullptr);
        Outcome ftl = runOutcome(src, GetParam(), false, 0, nullptr);
        expectSameOutcome(jit, ftl);

        EngineConfig interp_config;
        interp_config.arch = GetParam();
        interp_config.maxTier = Tier::Interpreter;
        Engine interp(interp_config);
        EngineResult ir = interp.run(src);
        EXPECT_EQ(jit.result, ir.resultString);
        EXPECT_EQ(jit.printed, ir.printed);
    }
}

TEST_P(Jit, FaultPlansMatchFtlPath)
{
    const char *plans[] = {"htm.abort@2", "check.bounds@5",
                           "check.any@3", "engine.watchdog@400"};
    for (const char *text : plans) {
        SCOPED_TRACE(text);
        FaultPlan plan = FaultPlan::parse(text);
        compareSuite(prefix(sunspiderSuite(), 2), GetParam(), 0,
                     &plan);
        compareSuite(prefix(krakenSuite(), 2), GetParam(), 0, &plan);
    }
}

TEST_P(Jit, TracingMatchesFtlPath)
{
    // Trace ring large enough that no event is evicted, so the
    // streams compare element-for-element with timestamps.
    const uint32_t capacity = 1u << 16;
    compareSuite(prefix(sunspiderSuite(), 2), GetParam(), capacity);
    compareSuite(prefix(krakenSuite(), 2), GetParam(), capacity);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, Jit,
    ::testing::Values(Architecture::Base, Architecture::NoMapS,
                      Architecture::NoMapB, Architecture::NoMap,
                      Architecture::NoMapBC, Architecture::NoMapRTM),
    [](const ::testing::TestParamInfo<Architecture> &info) {
        return std::string(architectureName(info.param));
    });

// Adaptive replanning mid-abort-storm: revisions land at FTL-call
// boundaries and rebuild the region chain via recompileFtl, which
// must respect the activeRuns/pendingRecompile deferral — swapping
// the chain (whose literal pool points at the recompiled IR's charge
// plan) under a live recursive activation would be a use-after-free
// the ASan config catches. The compiled tier must come out of the
// storm bit-identical to the FTL path, replans and refunds included.
TEST(JitRevisionBoundary, AdaptiveReplanMidStormMatchesFtl)
{
    const std::string src = R"JS(
var N = 16384;
var A = [];
for (var i = 0; i < N; i++) A[i] = i % 17;
function storm(a, n, depth) {
    var s = 0;
    for (var j = 0; j < n; j++) {
        a[j] = (a[j] + j) % 1021;
        s = (s + a[j]) % 65536;
    }
    if (depth > 0) s = (s + storm(a, n, depth - 1)) % 65536;
    return s;
}
var out = 0;
for (var r = 0; r < 10; r++) out = (out + storm(A, N, 2)) % 65536;
result = out;
)JS";

    FaultPlan squeeze = FaultPlan::parse("htm.ways@1");
    for (bool adaptive : {false, true}) {
        SCOPED_TRACE(adaptive ? "adaptive replanning"
                              : "static escalation");
        Outcome out[2];
        for (int jit = 0; jit < 2; ++jit) {
            EngineConfig config;
            config.arch = Architecture::NoMap;
            config.adaptive = adaptive;
            config.jitTier = jit != 0;
            // Tier up fast so most storm calls run FTL transactions.
            config.baselineThreshold = 2;
            config.dfgThreshold = 4;
            config.ftlThreshold = 8;
            Engine engine(config);
            engine.armFaultPlan(&squeeze);
            EngineResult r = engine.run(src);
            out[jit].result = r.resultString;
            out[jit].printed = r.printed;
            out[jit].stats = r.stats;

            // Vacuity guards: the storm really did force mid-run
            // replanning (with the recursion live), and no deferred
            // recompile is left owing at the end.
            EXPECT_GE(r.stats.txAborts, 2u);
            EXPECT_GE(r.stats.ftlRecompiles, 1u);
            const FunctionState *state =
                engine.functionState("storm");
            ASSERT_NE(state, nullptr);
            EXPECT_FALSE(state->pendingRecompile);
        }
        expectSameOutcome(out[1], out[0]);
    }
}

// The tiled-commit exit: TxTile commits the owned transaction every
// imm iterations and begins the next tile at the same SMP, where an
// injected begin-abort resumes Baseline from the new tile's snapshot.
// htm.abort@k counts outermost begins, and each transactional call of
// fill() begins once and then re-begins at every tile, so the sweep's
// aborts land on TxTile re-begins; the suites above never reach that
// exit under their fault plans.
TEST(JitTiledCommit, AbortedTileRebeginsMatchIrExecutor)
{
    const std::string src = R"JS(
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

    for (const char *text : {"htm.abort@2", "htm.abort@7",
                             "htm.abort@40"}) {
        SCOPED_TRACE(text);
        FaultPlan plan = FaultPlan::parse(text);
        Outcome jit = runOutcome(src, Architecture::NoMap, true,
                                 1u << 16, &plan);
        Outcome ref = runOutcome(src, Architecture::NoMap, false,
                                 1u << 16, &plan);
        expectSameOutcome(jit, ref);
        // Vacuity guards: the loop really tiled (more commits than
        // the 70 calls could make untiled) and the plan fired.
        EXPECT_GT(ref.stats.txCommits, 100u);
        EXPECT_GE(ref.stats.txAborts, 1u);
    }
}

// The differential above is only meaningful if the binder actually
// specializes and fuses: a hot non-transactional (Base) program must
// produce a chain that is index-aligned with the flat stream and
// contains fused superinstruction templates.
TEST(JitStructure, HotProgramBuildsFusedChain)
{
    EngineConfig config;
    config.arch = Architecture::Base;
    config.jitTier = true;
    Engine engine(config);
    engine.run(sunspiderSuite()[0].source);
    const CompiledProgram *prog = engine.program();
    ASSERT_NE(prog, nullptr);

    bool any_chain = false;
    bool any_fused = false;
    for (const auto &fnp : prog->functions) {
        const FunctionState *state =
            engine.functionState(fnp->name);
        if (!state || !state->jit)
            continue;
        any_chain = true;
        const IrFunction *ir = engine.ftlIr(fnp->name);
        ASSERT_NE(ir, nullptr);
        ASSERT_EQ(state->jit->records.size(), ir->flat.size());
        for (size_t i = 0; i < state->jit->records.size(); ++i) {
            const JitInstr &r = state->jit->records[i];
            // Literal pool is a faithful copy of the flat record.
            EXPECT_EQ(r.op, ir->flat[i].op);
            EXPECT_EQ(r.ownScaled, ir->flat[i].ownScaled);
            EXPECT_EQ(r.chargeFrom, ir->flat[i].chargeFrom);
            switch (r.spec) {
              case JitSpec::CmpBranchLt:
              case JitSpec::CmpBranchLe:
              case JitSpec::CmpBranchGt:
              case JitSpec::CmpBranchGe:
              case JitSpec::CmpBranchEq:
              case JitSpec::CmpBranchNe:
              case JitSpec::AddIntChkOvf:
              case JitSpec::SubIntChkOvf:
              case JitSpec::MulIntChkOvf:
                any_fused = true;
                EXPECT_FALSE(state->jit->aware)
                    << fnp->name << " record " << i;
                break;
              default:
                break;
            }
        }
    }
    EXPECT_TRUE(any_chain);
    EXPECT_TRUE(any_fused);
}

// DFG-tier IR runs on its own chain, and the engine counts every chain
// it builds; with the tier off nothing is built and nothing counted.
TEST(JitStructure, DfgFunctionsRunOnChainsAndBuildsAreCounted)
{
    for (bool jit : {true, false}) {
        SCOPED_TRACE(jit ? "jitTier on" : "jitTier off");
        EngineConfig config;
        config.arch = Architecture::Base;
        config.maxTier = Tier::Dfg;
        config.jitTier = jit;
        Engine engine(config);
        engine.run(sunspiderSuite()[0].source);
        const CompiledProgram *prog = engine.program();
        ASSERT_NE(prog, nullptr);

        uint64_t dfg_chains = 0;
        for (const auto &fnp : prog->functions) {
            const FunctionState *state =
                engine.functionState(fnp->name);
            if (!state)
                continue;
            EXPECT_EQ(state->jit, nullptr) << fnp->name;
            if (!state->dfgJit)
                continue;
            ++dfg_chains;
            ASSERT_NE(state->dfg, nullptr) << fnp->name;
            EXPECT_EQ(state->dfgJit->records.size(),
                      state->dfg->ir.flat.size())
                << fnp->name;
        }
        EXPECT_EQ(engine.jitChainsBuilt(), dfg_chains);
        if (jit)
            EXPECT_GT(dfg_chains, 0u);
        else
            EXPECT_EQ(dfg_chains, 0u);

        engine.reset();
        EXPECT_EQ(engine.jitChainsBuilt(), 0u);
    }
}

// Transactional regions must run the tx-aware template variant and
// must not fuse (a fused body would skip the per-op tx-owner watchdog
// poll between its two components).
TEST(JitStructure, TransactionalChainsAreAwareAndUnfused)
{
    EngineConfig config;
    config.arch = Architecture::NoMap;
    config.jitTier = true;
    Engine engine(config);
    engine.run(sunspiderSuite()[0].source);
    const CompiledProgram *prog = engine.program();
    ASSERT_NE(prog, nullptr);

    bool any_aware = false;
    bool any_specialized_cmp = false;
    for (const auto &fnp : prog->functions) {
        const FunctionState *state =
            engine.functionState(fnp->name);
        if (!state || !state->jit)
            continue;
        bool has_tx = false;
        for (const JitInstr &r : state->jit->records)
            has_tx = has_tx || isTxBoundaryOp(r.op);
        EXPECT_EQ(state->jit->aware, has_tx) << fnp->name;
        if (!state->jit->aware)
            continue;
        any_aware = true;
        for (size_t i = 0; i < state->jit->records.size(); ++i) {
            const JitInstr &r = state->jit->records[i];
            EXPECT_LE(static_cast<size_t>(r.spec),
                      static_cast<size_t>(JitSpec::TxTile))
                << fnp->name << " record " << i << " fused";
            // Shape specialization still applies without fusion: a
            // compare in an aware chain keeps its baked-subop
            // standalone template.
            switch (r.spec) {
              case JitSpec::CmpLt:
              case JitSpec::CmpLe:
              case JitSpec::CmpGt:
              case JitSpec::CmpGe:
              case JitSpec::CmpEq:
              case JitSpec::CmpNe:
                any_specialized_cmp = true;
                break;
              default:
                break;
            }
        }
    }
    EXPECT_TRUE(any_aware);
    EXPECT_TRUE(any_specialized_cmp);
}

// Jump/Branch targets must keep their standalone template even when
// the preceding record fused: control can enter at them directly, so
// fusion must never swallow a target into its predecessor.
TEST(JitStructure, JumpTargetsKeepStandaloneTemplates)
{
    EngineConfig config;
    config.arch = Architecture::Base;
    config.jitTier = true;
    Engine engine(config);
    engine.run(sunspiderSuite()[0].source);
    const CompiledProgram *prog = engine.program();
    ASSERT_NE(prog, nullptr);

    bool any_checked = false;
    for (const auto &fnp : prog->functions) {
        const FunctionState *state =
            engine.functionState(fnp->name);
        if (!state || !state->jit)
            continue;
        const std::vector<JitInstr> &recs = state->jit->records;
        std::vector<bool> target(recs.size(), false);
        for (const JitInstr &r : recs) {
            if (r.op == IrOp::Jump) {
                target[r.imm] = true;
            } else if (r.op == IrOp::Branch) {
                target[r.imm] = true;
                target[r.imm2] = true;
            }
        }
        for (size_t i = 0; i + 1 < recs.size(); ++i) {
            if (!target[i + 1])
                continue;
            any_checked = true;
            EXPECT_LE(static_cast<size_t>(recs[i].spec),
                      static_cast<size_t>(JitSpec::TxTile))
                << fnp->name << " record " << i
                << " fused across a jump target";
        }
    }
    EXPECT_TRUE(any_checked);
}

} // namespace
} // namespace nomap
