#include "ftl/ir_executor.h"

#include "ftl/ir_semantics.h"

/**
 * Dispatch strategy — same scheme as the bytecode executor: each op
 * body ends in an indirect jump through a per-opcode label table
 * (direct threading). VM_CASE opens an op body, `goto vm_next`
 * advances to the next instruction, `goto vm_next_newseg` does the
 * same but re-enters segment charging (transaction-boundary ops), and
 * Jump/Branch go to vm_seg_entry after retargeting. The bodies
 * themselves are the shared helpers of ir_semantics.h.
 *
 * The loop walks the function's flat predecoded run stream (see
 * ExecInstr in ir/ir.h): one contiguous array of 32-byte records in
 * block order, branch targets pre-resolved to flat indices, the
 * batched charge plan folded into each record. Per-op bounds checks
 * are unnecessary — computeChargePlan validates once that every block
 * ends in a terminator and every branch target is in range, so `ip`
 * can only move between valid records.
 */
#define VM_CASE(name) lbl_##name:

/** An op whose whole body is one helper that cannot exit the frame. */
#define VM_OP(name, helper)                                             \
    VM_CASE(name)                                                       \
    irsem::helper(fr, ip);                                              \
    goto vm_next;

/** A check op: a failed check leaves the frame. */
#define VM_CHECK(name)                                                  \
    VM_CASE(name)                                                       \
    if (irsem::check<IrOp::name>(fr, ip, out))                          \
        return out;                                                     \
    goto vm_next;

/** A transaction-boundary op: opens a new segment unless it exits. */
#define VM_TX(name, helper)                                             \
    VM_CASE(name)                                                       \
    if (irsem::helper(fr, ip, out))                                     \
        return out;                                                     \
    goto vm_next_newseg;

namespace nomap {

// trace.cc renders Deopt check kinds from a mirrored name table; pin
// the numeric layout so the two cannot drift apart.
static_assert(static_cast<uint8_t>(CheckKind::Bounds) == 0 &&
              static_cast<uint8_t>(CheckKind::Overflow) == 1 &&
              static_cast<uint8_t>(CheckKind::Type) == 2 &&
              static_cast<uint8_t>(CheckKind::Property) == 3 &&
              static_cast<uint8_t>(CheckKind::Other) == 4);

IrExecutor::IrExecutor(ExecEnv &env_, BytecodeExecutor &baseline_,
                       const EngineConfig &config_)
    : env(env_), baseline(baseline_), config(config_)
{
}

Value
IrExecutor::run(IrFunction &ir, BytecodeFunction &fn, const Value *args,
                uint32_t nargs)
{
    // Hand-built IR in tests never goes through compileFunction; build
    // its charge plan (and flat run stream) on first execution.
    if (!ir.chargePlanReady)
        computeChargePlan(ir);
    // Select the specialized loop once per run. env.inj is armed (or
    // not) for a whole engine run, and TraceBuffer::enabled() is
    // fixed at construction, so neither can change under a running
    // frame.
    switch (irsem::featureMask(env)) {
#define NOMAP_IR_RUN_CASE(f)                                            \
      case (f):                                                         \
        return runImpl<(f)>(ir, fn, args, nargs);
        NOMAP_IR_RUN_CASE(0u)
        NOMAP_IR_RUN_CASE(1u)
        NOMAP_IR_RUN_CASE(2u)
        NOMAP_IR_RUN_CASE(3u)
        NOMAP_IR_RUN_CASE(4u)
        NOMAP_IR_RUN_CASE(5u)
        NOMAP_IR_RUN_CASE(6u)
        NOMAP_IR_RUN_CASE(7u)
#undef NOMAP_IR_RUN_CASE
    }
    panic("ftl: bad feature mask");
}

template <unsigned kFeat>
Value
IrExecutor::runImpl(IrFunction &ir, BytecodeFunction &fn,
                    const Value *args, uint32_t nargs)
{
    FrameLease frameLease(env, ir.numRegs);
    FlagLease flagLease(env, ir.numRegs);
    std::vector<Value> snapshot;
    irsem::Frame<kFeat> fr{env,
                           baseline,
                           config,
                           ir,
                           fn,
                           frameLease.regs().data(),
                           flagLease.flags().data(),
                           ir.constants.data(),
                           snapshot};
    irsem::enterFrame(fr, args, nargs);

    const ExecInstr *const base = ir.flat.data();
    const ExecInstr *ip = base;
    Value out;

    try {
        static const void *const kDispatch[] = {
#define NOMAP_IR_OP_LABEL(name) &&lbl_##name,
            NOMAP_IR_OP_LIST(NOMAP_IR_OP_LABEL)
#undef NOMAP_IR_OP_LABEL
        };
        static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                      kNumIrOps);

    vm_seg_entry:
        irsem::chargeSegment(fr, ip);

    vm_top:
        // This loop is not specialized on whether the frame can own a
        // transaction, so the owner watchdog is always compiled in.
        if (irsem::perOp<true>(fr, ip, out))
            return out;
        goto *kDispatch[static_cast<size_t>(ip->op)];

        VM_CASE(Nop)
        goto vm_next;
        VM_OP(Const, constant)
        VM_OP(Move, move)

        VM_OP(AddInt, intArith<IrOp::AddInt>)
        VM_OP(SubInt, intArith<IrOp::SubInt>)
        VM_OP(MulInt, intArith<IrOp::MulInt>)
        VM_OP(NegInt, negInt)
        VM_OP(AddDouble, doubleArith<IrOp::AddDouble>)
        VM_OP(SubDouble, doubleArith<IrOp::SubDouble>)
        VM_OP(MulDouble, doubleArith<IrOp::MulDouble>)
        VM_OP(DivDouble, doubleArith<IrOp::DivDouble>)
        VM_OP(ModDouble, doubleArith<IrOp::ModDouble>)
        VM_OP(NegDouble, negDouble)
        VM_OP(BitAndInt, bitwise<IrOp::BitAndInt>)
        VM_OP(BitOrInt, bitwise<IrOp::BitOrInt>)
        VM_OP(BitXorInt, bitwise<IrOp::BitXorInt>)
        VM_OP(ShlInt, bitwise<IrOp::ShlInt>)
        VM_OP(ShrInt, bitwise<IrOp::ShrInt>)
        VM_OP(UShrInt, bitwise<IrOp::UShrInt>)
        VM_OP(BitNotInt, bitNot)
        VM_OP(CmpInt, compareBySubop)
        VM_OP(CmpDouble, compareBySubop)
        VM_OP(ToDouble, toDouble)
        VM_OP(ToBoolean, toBoolean)
        VM_OP(NotBool, notBool)

        VM_CHECK(CheckInt32)
        VM_CHECK(CheckNumber)
        VM_CHECK(CheckShape)
        VM_CHECK(CheckArray)
        VM_CHECK(CheckIndexInt)
        VM_CHECK(CheckBounds)
        VM_CHECK(CheckBoundsRange)
        VM_CHECK(CheckOverflow)
        VM_CHECK(CheckNotHole)

        VM_OP(GetSlot, getSlot)
        VM_OP(SetSlot, setSlot)
        VM_OP(GetArrayLen, getArrayLen)
        VM_OP(GetElem, getElem)
        VM_OP(SetElem, setElem)
        VM_OP(LoadGlobal, loadGlobal)
        VM_OP(StoreGlobal, storeGlobal)

        VM_OP(GenericBinary, genericBinary)
        VM_OP(GenericUnary, genericUnary)
        VM_OP(GenericGetProp, genericGetProp)
        VM_OP(GenericSetProp, genericSetProp)
        VM_OP(GenericGetIndex, genericGetIndex)
        VM_OP(GenericSetIndex, genericSetIndex)
        VM_OP(NewArray, newArray)
        VM_OP(NewObject, newObject)

        VM_OP(Call, call)
        VM_OP(CallNative, callNative)
        VM_OP(Intrinsic, intrinsic)
        VM_OP(CallMethod, callMethod)

        VM_CASE(Jump)
        ip = base + ip->imm;
        goto vm_seg_entry;
        VM_CASE(Branch)
        ip = base + irsem::branchTarget(fr, ip);
        goto vm_seg_entry;
        VM_CASE(Return)
        return irsem::returnValue(fr, fr.R[ip->a]);
        VM_CASE(ReturnUndef)
        return irsem::returnValue(fr, Value::undefined());

        VM_TX(TxBegin, txBegin)
        VM_TX(TxEnd, txEnd)
        VM_TX(TxTile, txTile)

    vm_next:
        ++ip;
        goto vm_top;

    vm_next_newseg:
        // The op just executed ended a charge segment (transaction
        // boundary): its successors run under the new transactional
        // context, so batched mode opens a fresh segment for them.
        ++ip;
        goto vm_seg_entry;
    } catch (TxAbortUnwind &) {
        return irsem::onTxAbortUnwind(fr, ip);
    }
}

#undef VM_CASE
#undef VM_OP
#undef VM_CHECK
#undef VM_TX

} // namespace nomap
