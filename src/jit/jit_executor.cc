#include "jit/jit_executor.h"

#include "ftl/ir_semantics.h"

/**
 * Template dispatch — the continuation-chain evolution of the FTL
 * executor's direct threading. Every template body ends in
 * JIT_NEXT(): advance ip, run the per-op accounting/watchdog
 * preamble, then jump straight through the next record's bound label
 * (`goto *ip->fn`). The indirect branch is *replicated into every
 * template* instead of funneling through one shared dispatch site,
 * and the target comes out of the record itself — no dispatch-table
 * load, no opcode decode. The bodies and exits are the helpers of
 * ftl/ir_semantics.h, shared with the FTL executor; what this file
 * adds is the binding, the per-subop and fused templates, and the
 * specialization on whether the chain can own a transaction.
 *
 * Control-flow templates (Jump/Branch/fused compare+branch) and
 * transaction boundaries re-enter at jit_seg_entry, which opens a new
 * batched charge segment exactly like the FTL executor's
 * vm_seg_entry.
 */
#define JIT_CASE(name) lbl_##name:

/**
 * Continue at the next record. The per-op preamble only polls the
 * tx-owner watchdog in tx-aware chains: a non-aware frame can never
 * own a transaction, which is what makes its continuation chain
 * branch-free between templates.
 */
#define JIT_NEXT()                                                      \
    do {                                                                \
        ++ip;                                                           \
        if (irsem::perOp<kAware>(fr, ip, out))                          \
            return out;                                                 \
        goto *ip->fn;                                                   \
    } while (0)

/** The op just executed ends its charge segment (tx boundary). */
#define JIT_NEXT_NEWSEG()                                               \
    do {                                                                \
        ++ip;                                                           \
        goto jit_seg_entry;                                             \
    } while (0)

/** A template whose whole body is one helper that cannot exit. */
#define JIT_OP(name, helper)                                            \
    JIT_CASE(name)                                                      \
    irsem::helper(fr, ip);                                              \
    JIT_NEXT();

/** A check template: a failed check leaves the frame. */
#define JIT_CHECK(name)                                                 \
    JIT_CASE(name)                                                      \
    if (irsem::check<IrOp::name>(fr, ip, out))                          \
        return out;                                                     \
    JIT_NEXT();

/** A transaction-boundary template (bound in tx-aware chains only). */
#define JIT_TX(name, helper)                                            \
    JIT_CASE(name)                                                      \
    if constexpr (!kAware)                                              \
        panic("jit: tx template in non-aware chain");                   \
    else if (irsem::helper(fr, ip, out))                                \
        return out;                                                     \
    JIT_NEXT_NEWSEG();

/**
 * Fused compare+branch: the compare result still lands in R[cmp.dst]
 * (the register is part of the baseline mirror a later deopt may
 * hand over), then the Branch record executes in the same template.
 * The Branch body's toBoolean() of the freshly stored boolean is the
 * boolean itself, so the branch takes the compare's result directly.
 * The Branch record's per-op charge still happens (the charge-call
 * sequence — and its cancellation polls — must match executing the
 * two records separately); there is no watchdog poll, since fused
 * templates are bound only in non-aware chains.
 */
#define JIT_CMP_BRANCH(name, pred)                                      \
    JIT_CASE(name)                                                      \
    {                                                                   \
        bool taken = irsem::compare<BinaryOp::pred>(fr, ip);            \
        ++ip;                                                           \
        irsem::chargeOp(fr, ip);                                        \
        ip = base + (taken ? ip->imm : ip->imm2);                       \
        goto jit_seg_entry;                                             \
    }

/** Fused int-arith + CheckOverflow on the arith's destination. */
#define JIT_ARITH_CHK_OVF(name, op)                                     \
    JIT_CASE(name)                                                      \
    irsem::intArith<IrOp::op>(fr, ip);                                  \
    ++ip;                                                               \
    irsem::chargeOp(fr, ip);                                            \
    if (irsem::check<IrOp::CheckOverflow>(fr, ip, out))                 \
        return out;                                                     \
    JIT_NEXT();

namespace nomap {

JitExecutor::JitExecutor(ExecEnv &env_, BytecodeExecutor &baseline_,
                         const EngineConfig &config_)
    : env(env_), baseline(baseline_), config(config_)
{
}

template <unsigned kFeat, bool kAware>
const JitExecutor::LabelTable &
JitExecutor::labels()
{
    // Label addresses are plain code addresses of this translation
    // unit, identical across executor instances, so one process-wide
    // capture per variant suffices (thread-safe magic static).
    static const LabelTable table = [] {
        LabelTable t{};
        runImpl<kFeat, kAware>(nullptr, nullptr, nullptr, nullptr,
                               nullptr, 0, t.data());
        return t;
    }();
    return table;
}

void
JitExecutor::bind(JitChain &chain, unsigned feat)
{
    const LabelTable *table = nullptr;
    switch ((chain.aware ? 8u : 0u) | feat) {
#define NOMAP_JIT_BIND_CASE(f, a)                                       \
      case (((a) ? 8u : 0u) | (f)):                                     \
        table = &labels<(f), (a)>();                                    \
        break;
        NOMAP_JIT_BIND_CASE(0u, false)
        NOMAP_JIT_BIND_CASE(1u, false)
        NOMAP_JIT_BIND_CASE(2u, false)
        NOMAP_JIT_BIND_CASE(3u, false)
        NOMAP_JIT_BIND_CASE(4u, false)
        NOMAP_JIT_BIND_CASE(5u, false)
        NOMAP_JIT_BIND_CASE(6u, false)
        NOMAP_JIT_BIND_CASE(7u, false)
        NOMAP_JIT_BIND_CASE(0u, true)
        NOMAP_JIT_BIND_CASE(1u, true)
        NOMAP_JIT_BIND_CASE(2u, true)
        NOMAP_JIT_BIND_CASE(3u, true)
        NOMAP_JIT_BIND_CASE(4u, true)
        NOMAP_JIT_BIND_CASE(5u, true)
        NOMAP_JIT_BIND_CASE(6u, true)
        NOMAP_JIT_BIND_CASE(7u, true)
#undef NOMAP_JIT_BIND_CASE
      default:
        panic("jit: bad feature mask");
    }
    for (JitInstr &r : chain.records)
        r.fn = (*table)[static_cast<size_t>(r.spec)];
    chain.boundFeat = feat;
}

Value
JitExecutor::run(JitChain &chain, IrFunction &ir, BytecodeFunction &fn,
                 const Value *args, uint32_t nargs)
{
    // Same once-per-run feature selection as IrExecutor::run —
    // rebinding only ever happens when armFaultPlan / accounting mode
    // changed between runs, never under a live frame.
    unsigned feat = irsem::featureMask(env);
    if (chain.boundFeat != feat)
        bind(chain, feat);

    switch ((chain.aware ? 8u : 0u) | feat) {
#define NOMAP_JIT_RUN_CASE(f, a)                                        \
      case (((a) ? 8u : 0u) | (f)):                                     \
        return runImpl<(f), (a)>(this, &chain, &ir, &fn, args, nargs,   \
                                 nullptr);
        NOMAP_JIT_RUN_CASE(0u, false)
        NOMAP_JIT_RUN_CASE(1u, false)
        NOMAP_JIT_RUN_CASE(2u, false)
        NOMAP_JIT_RUN_CASE(3u, false)
        NOMAP_JIT_RUN_CASE(4u, false)
        NOMAP_JIT_RUN_CASE(5u, false)
        NOMAP_JIT_RUN_CASE(6u, false)
        NOMAP_JIT_RUN_CASE(7u, false)
        NOMAP_JIT_RUN_CASE(0u, true)
        NOMAP_JIT_RUN_CASE(1u, true)
        NOMAP_JIT_RUN_CASE(2u, true)
        NOMAP_JIT_RUN_CASE(3u, true)
        NOMAP_JIT_RUN_CASE(4u, true)
        NOMAP_JIT_RUN_CASE(5u, true)
        NOMAP_JIT_RUN_CASE(6u, true)
        NOMAP_JIT_RUN_CASE(7u, true)
#undef NOMAP_JIT_RUN_CASE
    }
    panic("jit: bad feature mask");
}

template <unsigned kFeat, bool kAware>
Value
JitExecutor::runImpl(JitExecutor *self, JitChain *chain,
                     IrFunction *irp, BytecodeFunction *fnp,
                     const Value *args, uint32_t nargs,
                     const void **capture)
{
    // Label capture: store every template's address and leave before
    // touching any run operand (they are null in this mode). GCC's
    // -Wdangling-pointer misreads &&label as a local's address; label
    // addresses are code addresses, valid for the process lifetime.
    if (capture) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdangling-pointer"
#define NOMAP_JIT_CAPTURE(name)                                         \
        capture[static_cast<size_t>(JitSpec::name)] = &&lbl_##name;
        NOMAP_JIT_SPEC_LIST(NOMAP_JIT_CAPTURE)
#undef NOMAP_JIT_CAPTURE
#pragma GCC diagnostic pop
        return Value::undefined();
    }

    IrFunction &ir = *irp;
    FrameLease frameLease(self->env, ir.numRegs);
    FlagLease flagLease(self->env, ir.numRegs);
    std::vector<Value> snapshot;
    irsem::Frame<kFeat> fr{self->env,
                           self->baseline,
                           self->config,
                           ir,
                           *fnp,
                           frameLease.regs().data(),
                           flagLease.flags().data(),
                           ir.constants.data(),
                           snapshot};
    irsem::enterFrame(fr, args, nargs);

    const JitInstr *const base = chain->records.data();
    const JitInstr *ip = base;
    Value out;

    try {
    jit_seg_entry:
        irsem::chargeSegment(fr, ip);
        if (irsem::perOp<kAware>(fr, ip, out))
            return out;
        goto *ip->fn;

        JIT_CASE(Nop)
        JIT_NEXT();
        JIT_OP(Const, constant)
        JIT_OP(Move, move)

        JIT_OP(AddInt, intArith<IrOp::AddInt>)
        JIT_OP(SubInt, intArith<IrOp::SubInt>)
        JIT_OP(MulInt, intArith<IrOp::MulInt>)
        JIT_OP(NegInt, negInt)
        JIT_OP(AddDouble, doubleArith<IrOp::AddDouble>)
        JIT_OP(SubDouble, doubleArith<IrOp::SubDouble>)
        JIT_OP(MulDouble, doubleArith<IrOp::MulDouble>)
        JIT_OP(DivDouble, doubleArith<IrOp::DivDouble>)
        JIT_OP(ModDouble, doubleArith<IrOp::ModDouble>)
        JIT_OP(NegDouble, negDouble)
        JIT_OP(BitAndInt, bitwise<IrOp::BitAndInt>)
        JIT_OP(BitOrInt, bitwise<IrOp::BitOrInt>)
        JIT_OP(BitXorInt, bitwise<IrOp::BitXorInt>)
        JIT_OP(ShlInt, bitwise<IrOp::ShlInt>)
        JIT_OP(ShrInt, bitwise<IrOp::ShrInt>)
        JIT_OP(UShrInt, bitwise<IrOp::UShrInt>)
        JIT_OP(BitNotInt, bitNot)

        // Comparisons: subop baked per template.
        JIT_OP(CmpLt, compare<BinaryOp::Lt>)
        JIT_OP(CmpLe, compare<BinaryOp::Le>)
        JIT_OP(CmpGt, compare<BinaryOp::Gt>)
        JIT_OP(CmpGe, compare<BinaryOp::Ge>)
        JIT_OP(CmpEq, compare<BinaryOp::Eq>)
        JIT_OP(CmpNe, compare<BinaryOp::NotEq>)
        JIT_OP(CmpOther, compareBySubop) // Panics: not a compare subop.
        JIT_OP(ToDouble, toDouble)
        JIT_OP(ToBoolean, toBoolean)
        JIT_OP(NotBool, notBool)

        JIT_CHECK(CheckInt32)
        JIT_CHECK(CheckNumber)
        JIT_CHECK(CheckShape)
        JIT_CHECK(CheckArray)
        JIT_CHECK(CheckIndexInt)
        JIT_CHECK(CheckBounds)
        JIT_CHECK(CheckBoundsRange)
        JIT_CHECK(CheckOverflow)
        JIT_CHECK(CheckNotHole)

        JIT_OP(GetSlot, getSlot)
        JIT_OP(SetSlot, setSlot)
        JIT_OP(GetArrayLen, getArrayLen)
        JIT_OP(GetElem, getElem)
        JIT_OP(SetElem, setElem)
        JIT_OP(LoadGlobal, loadGlobal)
        JIT_OP(StoreGlobal, storeGlobal)

        JIT_OP(GenericBinary, genericBinary)
        JIT_OP(GenericUnary, genericUnary)
        JIT_OP(GenericGetProp, genericGetProp)
        JIT_OP(GenericSetProp, genericSetProp)
        JIT_OP(GenericGetIndex, genericGetIndex)
        JIT_OP(GenericSetIndex, genericSetIndex)
        JIT_OP(NewArray, newArray)
        JIT_OP(NewObject, newObject)

        JIT_OP(Call, call)
        JIT_OP(CallNative, callNative)
        JIT_OP(Intrinsic, intrinsic)
        JIT_OP(CallMethod, callMethod)

        JIT_CASE(Jump)
        ip = base + ip->imm;
        goto jit_seg_entry;
        JIT_CASE(Branch)
        ip = base + irsem::branchTarget(fr, ip);
        goto jit_seg_entry;
        JIT_CASE(Return)
        return irsem::returnValue(fr, fr.R[ip->a]);
        JIT_CASE(ReturnUndef)
        return irsem::returnValue(fr, Value::undefined());

        JIT_TX(TxBegin, txBegin)
        JIT_TX(TxEnd, txEnd)
        JIT_TX(TxTile, txTile)

        // Fused superinstruction templates, bound only in non-aware
        // chains (buildJitChain).
        JIT_CMP_BRANCH(CmpBranchLt, Lt)
        JIT_CMP_BRANCH(CmpBranchLe, Le)
        JIT_CMP_BRANCH(CmpBranchGt, Gt)
        JIT_CMP_BRANCH(CmpBranchGe, Ge)
        JIT_CMP_BRANCH(CmpBranchEq, Eq)
        JIT_CMP_BRANCH(CmpBranchNe, NotEq)
        JIT_ARITH_CHK_OVF(AddIntChkOvf, AddInt)
        JIT_ARITH_CHK_OVF(SubIntChkOvf, SubInt)
        JIT_ARITH_CHK_OVF(MulIntChkOvf, MulInt)
    } catch (TxAbortUnwind &) {
        return irsem::onTxAbortUnwind(fr, ip);
    }
}

#undef JIT_CASE
#undef JIT_NEXT
#undef JIT_NEXT_NEWSEG
#undef JIT_OP
#undef JIT_CHECK
#undef JIT_TX
#undef JIT_CMP_BRANCH
#undef JIT_ARITH_CHK_OVF

} // namespace nomap
