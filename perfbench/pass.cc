/**
 * @file
 * Passes: every program of a list run once, each in a fresh Engine,
 * checked against its expected digest. The suites workload is made of
 * passes; the serving workloads run one over their own programs so
 * their engine-only cost sits beside the serving numbers.
 *
 * A traced pass also replays, right after each Engine::run, the
 * module calls the run made internally (see replayRun), so each layer
 * gets a host time without instrumenting src/.
 */

#include <exception>
#include <memory>

#include "engine/engine.h"
#include "ftl/compile.h"
#include "jit/jit_chain.h"
#include "js/lexer.h"
#include "js/parser.h"
#include "perfbench.h"
#include "support/logging.h"

namespace nomap::perfbench {

double
replayRun(Engine &engine, const std::string &source, bool cache_hit,
          Tracer &tracer, int32_t parent, uint64_t request,
          LayerTotals &totals)
{
    double replayed = 0;
    ++totals.runs;
    if (!cache_hit) {
        int64_t t0 = nowNs();
        std::vector<Token> tokens = Lexer(source).lexAll();
        int64_t t1 = nowNs();
        Program ast = parseProgram(source);
        int64_t t2 = nowNs();
        // The heap the run compiled against: interning and global
        // slots resolve to the same ids again.
        CompiledProgram compiled = compile(ast, engine.heap());
        int64_t t3 = nowNs();
        int32_t parse =
            tracer.add("js.parse", t1, t2, parent, request, true);
        tracer.add("js.lex", t0, t1, parse, request, true);
        tracer.add("bytecode.compile", t2, t3, parent, request, true);
        totals.lexSeconds += static_cast<double>(t1 - t0) * 1e-9;
        totals.parseSeconds += static_cast<double>(t2 - t1) * 1e-9;
        totals.bytecodeSeconds += static_cast<double>(t3 - t2) * 1e-9;
        totals.tokens += tokens.size();
        for (const auto &fn : compiled.functions)
            totals.bytecodeOps += fn->code.size();
        replayed += static_cast<double>(t3 - t1) * 1e-9;
    }

    const CompiledProgram *program = engine.program();
    Architecture arch = engine.config().arch;
    bool chain_on_path = engine.config().jitTier;
    for (const auto &fn : program->functions) {
        const FunctionState *state = engine.functionState(fn->name);
        if (!state || state->tier < Tier::Dfg)
            continue;
        std::vector<Tier> tiers = {Tier::Dfg};
        if (state->tier == Tier::Ftl)
            tiers.push_back(Tier::Ftl);
        for (Tier tier : tiers) {
            uint32_t scope = tier == Tier::Ftl ? state->txScopeLevel : 0;
            int64_t t0 = nowNs();
            CompiledIr ir =
                compileFunction(*fn, engine.heap(), tier, arch, scope);
            int64_t t1 = nowNs();
            tracer.add("ftl.compile", t0, t1, parent, request, true);
            totals.compileSeconds += static_cast<double>(t1 - t0) * 1e-9;
            ++totals.compiles;
            replayed += static_cast<double>(t1 - t0) * 1e-9;
            if (tier != Tier::Ftl)
                continue;
            for (const IrBlock &block : ir.ir.blocks)
                totals.irOps += block.instrs.size();
            totals.checksRemoved += totalChecksRemoved(ir.passStats);
            totals.txPlaced += ir.planResult.transactionsPlaced;

            // The chain is built on the run's path only when the jit
            // tier is on; otherwise it is timed as a stand-alone call.
            int64_t c0 = nowNs();
            std::unique_ptr<JitChain> chain = buildJitChain(ir.ir);
            int64_t c1 = nowNs();
            tracer.add("jit.chain_build", c0, c1,
                       chain_on_path ? parent : -1, request, true);
            totals.chainSeconds += static_cast<double>(c1 - c0) * 1e-9;
            totals.chainRecords += chain->records.size();
            if (chain_on_path)
                replayed += static_cast<double>(c1 - c0) * 1e-9;
        }
    }
    return replayed;
}

PassResult
runPass(const std::vector<PassItem> &items, const EngineConfig &config,
        Report &report, bool check_stats, Tracer *tracer,
        LayerTotals *layers)
{
    PassResult pass;
    pass.itemSeconds.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
        const PassItem &item = items[i];
        EngineConfig cfg = config;
        cfg.arch = item.arch;
        size_t slot = archSlot(item.arch);

        int64_t t0 = nowNs();
        int64_t t1 = t0;
        int64_t t2 = t0;
        std::unique_ptr<Engine> engine;
        EngineResult result;
        std::string error;
        try {
            engine = std::make_unique<Engine>(cfg);
            t1 = nowNs();
            result = engine->run(item.script->source);
            t2 = nowNs();
        } catch (const std::exception &e) {
            t2 = nowNs();
            error = e.what();
        }
        double seconds = static_cast<double>(t2 - t0) * 1e-9;
        pass.seconds[slot] += seconds;
        pass.itemSeconds.push_back(seconds);
        ++report.attempted;

        Digest got = Digest::of(result.resultString, result.stats);
        bool same = check_stats ? got == item.expected
                                : got.result == item.expected.result;
        if (!error.empty() || !same) {
            ++pass.mismatches;
            ++report.failed;
            report.fail(strprintf(
                "%s under %s: %s", item.script->id.c_str(),
                architectureName(item.arch),
                error.empty() ? ("got result '" + got.result +
                                 "', expected '" + item.expected.result +
                                 "' (or a stats-digest mismatch)")
                                    .c_str()
                              : error.c_str()));
            continue;
        }

        GuestTotals &g = pass.guest[slot];
        const ExecutionStats &s = result.stats;
        g.instructions += s.totalInstructions();
        g.cycles += s.totalCycles();
        g.txInstructions += s.instrIn(InstrBucket::TmUnopt) +
                            s.instrIn(InstrBucket::TmOpt);
        g.ftlRuns += s.ftlCompiles > 0;
        const CacheStats &l1 = engine->memHierarchy().l1().stats();
        const CacheStats &l2 = engine->memHierarchy().l2().stats();
        g.l1Hits += l1.hits;
        g.l1Misses += l1.misses;
        g.l2Hits += l2.hits;
        g.l2Misses += l2.misses;
        const HtmStats &h = engine->htm().stats();
        g.htmBegins += h.begins;
        g.htmCommits += h.commits;
        g.htmAborts += h.aborts;

        if (tracer) {
            tracer->add("engine.construct", t0, t1, -1, i);
            int32_t run = tracer->add("engine.run", t1, t2, -1, i);
            double replayed = replayRun(*engine, item.script->source,
                                        result.programCacheHit, *tracer,
                                        run, i, *layers);
            pass.execSelfSeconds[slot] +=
                static_cast<double>(t2 - t1) * 1e-9 - replayed;
            layers->constructSeconds += static_cast<double>(t1 - t0) * 1e-9;
            ++layers->constructs;
        }
    }
    return pass;
}

} // namespace nomap::perfbench
