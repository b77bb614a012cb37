#ifndef NOMAP_FTL_IR_EXECUTOR_H
#define NOMAP_FTL_IR_EXECUTOR_H

/**
 * @file
 * Executor for DFG/FTL IR.
 *
 * This stands in for the machine code LLVM would emit: it runs the
 * optimized IR while the cost model counts the x86-64-equivalent
 * dynamic instructions each IR op would have compiled to. Everything
 * observable — check executions by category, deoptimizations through
 * stack maps, transactions with true rollback and Baseline re-entry,
 * cache and HTM footprint traffic — happens for real.
 *
 * This is the reference loop (EngineConfig::jitTier = false) for the
 * region template tier (src/jit/). Both loops take every op body and
 * every exit from ftl/ir_semantics.h, so they cannot drift apart in
 * semantics; tests/test_jit.cc pins what only the template tier adds
 * (binding, fusion, segment entry, refunds, rebinding) bit-identical
 * against this loop.
 */

#include "engine/config.h"
#include "interp/bytecode_executor.h"
#include "ir/ir.h"

namespace nomap {

/** Executes one IR function invocation (including nested tiers). */
class IrExecutor
{
  public:
    IrExecutor(ExecEnv &env, BytecodeExecutor &baseline,
               const EngineConfig &config);

    /**
     * Run @p ir. @p fn is the bytecode (deopt target / profiles).
     * May recursively dispatch calls through env.dispatcher.
     */
    Value run(IrFunction &ir, BytecodeFunction &fn, const Value *args,
              uint32_t nargs);

  private:
    /**
     * The dispatch loop over the function's flat predecoded run
     * stream, compiled once per feature mask (irsem::kFeat*).
     */
    template <unsigned kFeat>
    Value runImpl(IrFunction &ir, BytecodeFunction &fn,
                  const Value *args, uint32_t nargs);

    ExecEnv &env;
    BytecodeExecutor &baseline;
    const EngineConfig &config;
};

} // namespace nomap

#endif // NOMAP_FTL_IR_EXECUTOR_H
