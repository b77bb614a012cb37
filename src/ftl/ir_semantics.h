#ifndef NOMAP_FTL_IR_SEMANTICS_H
#define NOMAP_FTL_IR_SEMANTICS_H

/**
 * @file
 * The semantics of optimized (DFG/FTL) IR, defined once.
 *
 * Two loops execute optimized IR: the IrExecutor reference loop
 * (ftl/ir_executor.cc), which dispatches on each ExecInstr's opcode,
 * and the region template tier (jit/jit_executor.cc), which jumps
 * through each JitInstr's bound template. Both build every op body
 * and every exit from the force-inlined helpers below, so they agree
 * by construction on everything observable: results, the Accounting
 * calls and their order (segment charges, per-op charges,
 * runtime/check charges, cancellation polls), the fault-injection
 * sites and their occurrence order, trace events, deopts through
 * stack maps, and transactional abort/unwind paths.
 *
 * Helpers are templated on the record type (ExecInstr or JitInstr,
 * which share every operand and charge field) and on the executor's
 * feature mask, so each specialized loop compiles them with its
 * features folded in. Control transfer stays with the executors: a
 * helper that can leave the frame returns true and stores the
 * frame's return value in @p out, which the executor returns;
 * otherwise the executor dispatches the next record itself.
 *
 * Speculative-execution rule: inside a transaction, a type-mismatched
 * fast op (possible after NoMap's speculative hoisting or check
 * combining) produces a deterministic garbage value, exactly like
 * hardware executing past a removed check; the transaction's
 * remaining/sunk checks abort before such garbage can commit. Outside
 * a transaction every fast op is fully guarded by construction and a
 * mismatch is a compiler bug (simulator panic).
 */

#include <cmath>
#include <vector>

#include "engine/config.h"
#include "interp/bytecode_executor.h"
#include "ir/ir.h"
#include "support/logging.h"

/** Always inlined: a helper must vanish into the executor's loop. */
#define NOMAP_IR_INLINE inline __attribute__((always_inline))

namespace nomap::irsem {

/**
 * Feature mask bits. Each combination compiles a separate copy of an
 * executor's loop, selected once per run, so a disabled feature costs
 * nothing on the hot path — not even a predicted branch.
 *
 * kFeatBatched selects the accounting strategy: set charges each
 * charge segment's static cost once on segment entry (refunding the
 * unexecuted suffix on deopt/abort/watchdog exits), clear charges
 * every op individually. kFeatInject compiles in the fault-injection
 * polls (env.inj is non-null for the whole run or not at all);
 * kFeatTrace the trace-event emits (TraceBuffer::enabled() is fixed
 * at construction). Every variant produces bit-identical results,
 * ExecutionStats and traces; the differential accounting/trace/chaos
 * tests enforce it.
 */
constexpr unsigned kFeatBatched = 1u;
constexpr unsigned kFeatInject = 2u;
constexpr unsigned kFeatTrace = 4u;

/** Feature mask of @p env; fixed for the whole run of a frame. */
inline unsigned
featureMask(const ExecEnv &env)
{
    return (env.perOpAccounting ? 0u : kFeatBatched) |
           (env.inj ? kFeatInject : 0u) |
           (env.trace && env.trace->enabled() ? kFeatTrace : 0u);
}

/** State of one executing optimized-IR frame. */
template <unsigned kFeat>
struct Frame {
    static constexpr bool kBatched = (kFeat & kFeatBatched) != 0;
    static constexpr bool kInject = (kFeat & kFeatInject) != 0;
    static constexpr bool kTrace = (kFeat & kFeatTrace) != 0;

    ExecEnv &env;
    BytecodeExecutor &baseline;
    const EngineConfig &config;
    IrFunction &ir;
    /** Bytecode function: deopt target, object descriptors. */
    BytecodeFunction &fn;
    Value *const R;
    /** Per-register overflow flags of the integer arithmetic ops. */
    uint8_t *const OVF;
    const Value *const consts;
    /** Registers at the owned transaction's entry SMP. */
    std::vector<Value> &snapshot;
    const bool ftl = ir.tier == Tier::Ftl;
    /** This frame began (and must commit or abort) the transaction. */
    bool txOwner = false;
    /** Bytecode pc of the owned transaction's entry SMP. */
    uint32_t entryPc = 0;
    /** Scaled instructions run in the owned transaction (watchdog). */
    uint64_t txInstr = 0;
    /** TxTile executions since the owned transaction began. */
    uint64_t tileCount = 0;
    /**
     * Transactional context when the current segment was charged — a
     * refund must come out of the same cycle bucket even if an abort
     * has flipped the context since.
     */
    bool segChargedTm = false;
};

/** Deterministic garbage produced by unguarded speculative ops. */
NOMAP_IR_INLINE Value
garbageValue()
{
    return Value::int32(0);
}

/** Injection site of a check kind (check.bounds, check.type, ...). */
constexpr FaultSite
faultSiteOfCheck(CheckKind kind)
{
    switch (kind) {
      case CheckKind::Bounds: return FaultSite::CheckBounds;
      case CheckKind::Overflow: return FaultSite::CheckOverflow;
      case CheckKind::Type: return FaultSite::CheckType;
      case CheckKind::Property: return FaultSite::CheckProperty;
      case CheckKind::Other: return FaultSite::CheckOther;
      case CheckKind::NumKinds: break;
    }
    return FaultSite::CheckOther;
}

// ---- Frame entry, charging, and exits ------------------------------

/** Copy the arguments in and charge the frame prologue. */
template <unsigned kFeat>
NOMAP_IR_INLINE void
enterFrame(Frame<kFeat> &fr, const Value *args, uint32_t nargs)
{
    for (uint32_t i = 0; i < fr.fn.numParams && i < nargs; ++i)
        fr.R[i] = args[i];
    // Frame prologue + argument marshalling.
    fr.env.acct.chargeInstructions(fr.ir.tier, 8, fr.ir.txAware);
}

template <unsigned kFeat>
NOMAP_IR_INLINE void
syncTxFlag(Frame<kFeat> &fr)
{
    fr.env.acct.setInTransaction(fr.env.htm.inTransaction());
}

/**
 * Entering a new charge segment at @p ip: block entry, a branch
 * target, or the record after a transaction-boundary op (whose
 * successors execute — and must be charged — under the new
 * transactional context). Batched mode charges the whole segment.
 */
template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
chargeSegment(Frame<kFeat> &fr, const Rec *ip)
{
    if constexpr (Frame<kFeat>::kBatched) {
        fr.segChargedTm = fr.env.acct.inTransaction();
        fr.env.acct.chargeInstructions(fr.ir.tier, ip->chargeFrom,
                                       fr.ir.txAware);
    }
}

/**
 * Per-op mode pays @p ip's scaled cost; batched mode already paid it
 * as part of the segment charge.
 */
template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
chargeOp(Frame<kFeat> &fr, const Rec *ip)
{
    if constexpr (!Frame<kFeat>::kBatched)
        fr.env.acct.chargeInstructions(fr.ir.tier, ip->ownScaled,
                                       fr.ir.txAware);
}

/**
 * Batched mode: take back the charged-but-unexecuted suffix of the
 * current segment (everything after the op at @p ip). Zero when the
 * op at @p ip ends its segment.
 */
template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
refundAfter(Frame<kFeat> &fr, const Rec *ip)
{
    if constexpr (Frame<kFeat>::kBatched) {
        uint64_t rest =
            static_cast<uint64_t>(ip->chargeFrom) - ip->ownScaled;
        if (rest) {
            fr.env.acct.refundInstructions(fr.ir.tier, rest,
                                           fr.ir.txAware,
                                           fr.segChargedTm);
        }
    }
}

/**
 * Finish the frame in the Baseline tier: hand it the @p n registers
 * at @p regs and resume at bytecode @p pc. Out of line and cold —
 * every caller is a frame exit — so the exits stay small inside the
 * templates and off the hot path's layout.
 */
[[gnu::cold, gnu::noinline]] inline Value
runBaselineFrom(BytecodeExecutor &baseline, BytecodeFunction &fn,
                const Value *regs, size_t n, uint32_t pc)
{
    std::vector<Value> locals(regs, regs + n);
    return baseline.runFrom(fn, locals, pc);
}

/**
 * After an abort (memory already rolled back), re-enter the Baseline
 * tier at the transaction's entry SMP (paper "Entry3").
 */
template <unsigned kFeat>
NOMAP_IR_INLINE Value
resumeBaseline(Frame<kFeat> &fr)
{
    fr.env.mem.discardSpeculative();
    fr.txOwner = false;
    syncTxFlag(fr);
    return runBaselineFrom(
        fr.baseline, fr.fn, fr.snapshot.data(),
        std::min<size_t>(fr.snapshot.size(), fr.ir.bytecodeRegs),
        fr.entryPc);
}

/** Refund the segment suffix, then re-enter Baseline. */
template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE Value
refundToBaseline(Frame<kFeat> &fr, const Rec *ip)
{
    refundAfter(fr, ip);
    return resumeBaseline(fr);
}

/** Abort the owned transaction with @p code and re-enter Baseline. */
template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE Value
abortToBaseline(Frame<kFeat> &fr, const Rec *ip, AbortCode code)
{
    refundAfter(fr, ip);
    fr.env.acct.chargeCycles(fr.env.htm.abort(code));
    return resumeBaseline(fr);
}

/**
 * Per-op preamble of the record at @p ip: the per-op charge and —
 * when @p kAware, i.e. the frame can own a transaction — the tx-owner
 * instruction counter and watchdog. A timer interrupt would abort a
 * transaction that runs unreasonably long (e.g. spinning on garbage
 * after speculative check removal). The engine.watchdog site polls
 * here too — once per in-transaction instruction — so a FaultPlan can
 * kill a transaction at any point of its lifetime. The counter
 * advances per op in both accounting modes, so the firing point never
 * moves.
 */
template <bool kAware, unsigned kFeat, class Rec>
NOMAP_IR_INLINE bool
perOp(Frame<kFeat> &fr, const Rec *ip, Value &out)
{
    chargeOp(fr, ip);
    if constexpr (kAware) {
        if (fr.txOwner) {
            fr.txInstr += ip->ownScaled;
            bool kill = fr.txInstr > fr.config.txWatchdogInstructions;
            if constexpr (Frame<kFeat>::kInject) {
                kill = kill ||
                       fr.env.inj->fire(FaultSite::EngineTxWatchdog);
            }
            if (kill) {
                out = abortToBaseline(fr, ip, AbortCode::Irrevocable);
                return true;
            }
        }
    }
    return false;
}

/**
 * Landing pad of a TxAbortUnwind caught by the frame's executor; call
 * it from the catch handler. The charged segment's ops after the
 * faulting one never executed — whether the throw came from this
 * frame's own converted check / capacity overflow or surfaced out of
 * a callee. (ExecutionCancelled is deliberately NOT caught:
 * cancellation voids the stats and the engine must be reset, so there
 * is nothing to refund.)
 */
template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE Value
onTxAbortUnwind(Frame<kFeat> &fr, const Rec *ip)
{
    refundAfter(fr, ip);
    if (!fr.txOwner) {
        syncTxFlag(fr);
        throw; // Outer frame owns the transaction.
    }
    return resumeBaseline(fr);
}

// ---- Pure value ops ------------------------------------------------

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
constant(Frame<kFeat> &fr, const Rec *ip)
{
    fr.R[ip->dst] = fr.consts[ip->imm];
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
move(Frame<kFeat> &fr, const Rec *ip)
{
    fr.R[ip->dst] = fr.R[ip->a];
    fr.OVF[ip->dst] = fr.OVF[ip->a];
}

/** Result of an int op whose overflow flag NoMap latches (SOF). */
template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
setIntResult(Frame<kFeat> &fr, const Rec *ip, int32_t v, bool ovf)
{
    fr.R[ip->dst] = Value::int32(v);
    fr.OVF[ip->dst] = ovf;
    if (ovf && fr.env.htm.inTransaction())
        fr.env.htm.noteArithmeticOverflow();
}

/** AddInt / SubInt / MulInt (sets the overflow flag). */
template <IrOp kOp, unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
intArith(Frame<kFeat> &fr, const Rec *ip)
{
    Value va = fr.R[ip->a];
    Value vb = fr.R[ip->b];
    if (!va.isInt32() || !vb.isInt32()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        fr.R[ip->dst] = garbageValue();
        fr.OVF[ip->dst] = 0;
        return;
    }
    int64_t x = va.asInt32();
    int64_t y = vb.asInt32();
    int64_t wide;
    if constexpr (kOp == IrOp::AddInt) {
        wide = x + y;
    } else if constexpr (kOp == IrOp::SubInt) {
        wide = x - y;
    } else {
        static_assert(kOp == IrOp::MulInt);
        wide = x * y;
    }
    setIntResult(fr, ip, static_cast<int32_t>(wide),
                 wide < INT32_MIN || wide > INT32_MAX);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
negInt(Frame<kFeat> &fr, const Rec *ip)
{
    Value va = fr.R[ip->a];
    if (!va.isInt32()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        fr.R[ip->dst] = garbageValue();
        return;
    }
    int32_t x = va.asInt32();
    bool ovf = (x == 0) || (x == INT32_MIN);
    setIntResult(fr, ip, ovf && x == INT32_MIN ? x : -x, ovf);
}

/** AddDouble / SubDouble / MulDouble / DivDouble / ModDouble. */
template <IrOp kOp, unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
doubleArith(Frame<kFeat> &fr, const Rec *ip)
{
    Value va = fr.R[ip->a];
    Value vb = fr.R[ip->b];
    if (!va.isNumber() || !vb.isNumber()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        fr.R[ip->dst] = garbageValue();
        return;
    }
    double x = va.asNumber();
    double y = vb.asNumber();
    double r;
    if constexpr (kOp == IrOp::AddDouble) {
        r = x + y;
    } else if constexpr (kOp == IrOp::SubDouble) {
        r = x - y;
    } else if constexpr (kOp == IrOp::MulDouble) {
        r = x * y;
    } else if constexpr (kOp == IrOp::DivDouble) {
        r = x / y;
    } else {
        static_assert(kOp == IrOp::ModDouble);
        r = std::fmod(x, y);
    }
    fr.R[ip->dst] = Value::number(r);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
negDouble(Frame<kFeat> &fr, const Rec *ip)
{
    Value va = fr.R[ip->a];
    if (!va.isNumber()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        fr.R[ip->dst] = garbageValue();
        return;
    }
    fr.R[ip->dst] = Value::boxDouble(-va.asNumber());
}

/** BitAndInt / BitOrInt / BitXorInt / ShlInt / ShrInt / UShrInt. */
template <IrOp kOp, unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
bitwise(Frame<kFeat> &fr, const Rec *ip)
{
    Value va = fr.R[ip->a];
    Value vb = fr.R[ip->b];
    if (!va.isInt32() || !vb.isInt32()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        fr.R[ip->dst] = garbageValue();
        return;
    }
    int32_t x = va.asInt32();
    int32_t y = vb.asInt32();
    uint32_t sh = static_cast<uint32_t>(y) & 31;
    if constexpr (kOp == IrOp::BitAndInt) {
        fr.R[ip->dst] = Value::int32(x & y);
    } else if constexpr (kOp == IrOp::BitOrInt) {
        fr.R[ip->dst] = Value::int32(x | y);
    } else if constexpr (kOp == IrOp::BitXorInt) {
        fr.R[ip->dst] = Value::int32(x ^ y);
    } else if constexpr (kOp == IrOp::ShlInt) {
        fr.R[ip->dst] = Value::int32(x << sh);
    } else if constexpr (kOp == IrOp::ShrInt) {
        fr.R[ip->dst] = Value::int32(x >> sh);
    } else {
        static_assert(kOp == IrOp::UShrInt);
        fr.R[ip->dst] = Value::number(
            static_cast<double>(static_cast<uint32_t>(x) >> sh));
    }
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
bitNot(Frame<kFeat> &fr, const Rec *ip)
{
    Value va = fr.R[ip->a];
    if (!va.isInt32()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        fr.R[ip->dst] = garbageValue();
        return;
    }
    fr.R[ip->dst] = Value::int32(~va.asInt32());
}

/**
 * CmpInt / CmpDouble under predicate @p kPred (the op's BinaryOp
 * subop; Eq/StrictEq and NotEq/StrictNotEq coincide on numbers).
 * Returns the boolean stored into the destination; non-numeric
 * operands inside a transaction store (and return) false.
 */
template <BinaryOp kPred, unsigned kFeat, class Rec>
NOMAP_IR_INLINE bool
compare(Frame<kFeat> &fr, const Rec *ip)
{
    Value va = fr.R[ip->a];
    Value vb = fr.R[ip->b];
    bool r = false;
    if (!va.isNumber() || !vb.isNumber()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
    } else {
        double x = va.asNumber();
        double y = vb.asNumber();
        if constexpr (kPred == BinaryOp::Lt) {
            r = x < y;
        } else if constexpr (kPred == BinaryOp::Le) {
            r = x <= y;
        } else if constexpr (kPred == BinaryOp::Gt) {
            r = x > y;
        } else if constexpr (kPred == BinaryOp::Ge) {
            r = x >= y;
        } else if constexpr (kPred == BinaryOp::Eq) {
            r = x == y;
        } else {
            static_assert(kPred == BinaryOp::NotEq);
            r = x != y;
        }
    }
    fr.R[ip->dst] = Value::boolean(r);
    return r;
}

/** compare() with the predicate read from the record's subop. */
template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
compareBySubop(Frame<kFeat> &fr, const Rec *ip)
{
    switch (static_cast<BinaryOp>(ip->imm)) {
      case BinaryOp::Lt: compare<BinaryOp::Lt>(fr, ip); return;
      case BinaryOp::Le: compare<BinaryOp::Le>(fr, ip); return;
      case BinaryOp::Gt: compare<BinaryOp::Gt>(fr, ip); return;
      case BinaryOp::Ge: compare<BinaryOp::Ge>(fr, ip); return;
      case BinaryOp::Eq:
      case BinaryOp::StrictEq: compare<BinaryOp::Eq>(fr, ip); return;
      case BinaryOp::NotEq:
      case BinaryOp::StrictNotEq:
        compare<BinaryOp::NotEq>(fr, ip);
        return;
      default:
        panic("bad compare subop");
    }
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
toDouble(Frame<kFeat> &fr, const Rec *ip)
{
    fr.R[ip->dst] = Value::boxDouble(fr.R[ip->a].asNumber());
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
toBoolean(Frame<kFeat> &fr, const Rec *ip)
{
    fr.R[ip->dst] = Value::boolean(fr.env.runtime.toBoolean(fr.R[ip->a]));
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
notBool(Frame<kFeat> &fr, const Rec *ip)
{
    fr.R[ip->dst] = Value::boolean(!fr.R[ip->a].asBoolean());
}

// ---- Checks --------------------------------------------------------

/** Predicate of check op @p kOp on the record's operands. */
template <IrOp kOp, unsigned kFeat, class Rec>
NOMAP_IR_INLINE bool
checkPasses(Frame<kFeat> &fr, const Rec *ip)
{
    Value va = fr.R[ip->a];
    if constexpr (kOp == IrOp::CheckInt32 || kOp == IrOp::CheckIndexInt) {
        return va.isInt32();
    } else if constexpr (kOp == IrOp::CheckNumber) {
        return va.isNumber();
    } else if constexpr (kOp == IrOp::CheckShape) {
        return va.isObject() &&
               fr.env.heap.object(va.payload()).shape == ip->imm;
    } else if constexpr (kOp == IrOp::CheckArray) {
        return va.isArray();
    } else if constexpr (kOp == IrOp::CheckBounds) {
        Value vi = fr.R[ip->b];
        return va.isArray() && vi.isInt32() && vi.asInt32() >= 0 &&
               static_cast<uint32_t>(vi.asInt32()) <
                   fr.env.heap.array(va.payload()).length();
    } else if constexpr (kOp == IrOp::CheckBoundsRange) {
        Value lo = fr.R[ip->b];
        Value hi = fr.R[ip->c];
        if (!lo.isInt32() || !hi.isInt32() || !va.isArray())
            return false;
        if (hi.asInt32() < lo.asInt32())
            return true; // Zero-trip loop: vacuous.
        return lo.asInt32() >= 0 &&
               static_cast<uint32_t>(hi.asInt32()) <
                   fr.env.heap.array(va.payload()).length();
    } else if constexpr (kOp == IrOp::CheckOverflow) {
        return !fr.OVF[ip->a];
    } else {
        static_assert(kOp == IrOp::CheckNotHole);
        return !va.isUndefined();
    }
}

/**
 * Fault injection: force a passing check of @p kKind to fail. Every
 * armed check-site counts this occurrence (no short-circuiting) so
 * occurrence numbering never depends on which other actions are
 * armed. A forced failure is only honored where the generic recovery
 * can run: unconverted checks need an SMP to OSR through; converted
 * checks need a live transaction to abort.
 */
template <CheckKind kKind, unsigned kFeat, class Rec>
NOMAP_IR_INLINE bool
injectCheckFailure(Frame<kFeat> &fr, const Rec *ip)
{
    bool force = fr.env.inj->fire(faultSiteOfCheck(kKind));
    force |= fr.env.inj->fire(FaultSite::CheckAny);
    if (!ip->converted && ip->smpPc != kNoSmp)
        force |= fr.env.inj->fire(FaultSite::FtlOsr, ip->smpPc);
    return force && (ip->converted ? fr.env.htm.inTransaction()
                                   : ip->smpPc != kNoSmp);
}

/** The exit of a failed check of @p kKind; never falls through. */
template <CheckKind kKind, unsigned kFeat, class Rec>
NOMAP_IR_INLINE Value
checkFailed(Frame<kFeat> &fr, const Rec *ip)
{
    if (!ip->converted) {
        // OSR exit through the stack map: hand the baseline registers
        // to the Baseline tier at the SMP's bytecode pc.
        ++fr.env.acct.stats().deopts;
        NOMAP_ASSERT(ip->smpPc != kNoSmp);
        if constexpr (Frame<kFeat>::kTrace) {
            TraceEvent event;
            event.vcycles = fr.env.acct.virtualCycles();
            event.type = TraceEventType::Deopt;
            event.code = static_cast<uint8_t>(kKind);
            event.funcId = fr.ir.funcId;
            event.pc = ip->smpPc;
            fr.env.trace->emit(event);
        }
        refundAfter(fr, ip);
        return runBaselineFrom(fr.baseline, fr.fn, fr.R,
                               fr.ir.bytecodeRegs, ip->smpPc);
    }
    // Converted check: transactional abort.
    fr.env.acct.chargeCycles(fr.env.htm.abort(AbortCode::ExplicitCheck));
    if (!fr.txOwner) {
        // The transaction belongs to a caller; unwind. (The catch
        // handler refunds the segment suffix before rethrowing — no
        // inline refund here.)
        syncTxFlag(fr);
        throw TxAbortUnwind{AbortCode::ExplicitCheck};
    }
    return refundToBaseline(fr, ip);
}

/** Check op @p kOp: true when it failed and the frame exits. */
template <IrOp kOp, unsigned kFeat, class Rec>
NOMAP_IR_INLINE bool
check(Frame<kFeat> &fr, const Rec *ip, Value &out)
{
    constexpr CheckKind kKind = checkKindOfUnchecked(kOp);
    if (fr.ftl)
        fr.env.acct.recordCheck(kKind);
    bool pass = checkPasses<kOp>(fr, ip);
    if constexpr (Frame<kFeat>::kInject) {
        if (pass && injectCheckFailure<kKind>(fr, ip))
            pass = false;
    }
    if (pass)
        return false;
    out = checkFailed<kKind>(fr, ip);
    return true;
}

// ---- Memory --------------------------------------------------------

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
getSlot(Frame<kFeat> &fr, const Rec *ip)
{
    Value va = fr.R[ip->a];
    if (!va.isObject()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        fr.R[ip->dst] = garbageValue();
        return;
    }
    const JsObject &obj = fr.env.heap.object(va.payload());
    if (ip->imm >= obj.slots.size()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        fr.R[ip->dst] = garbageValue();
        return;
    }
    fr.R[ip->dst] = obj.slots[ip->imm];
    fr.env.memAccess(obj.baseAddr + 8ull * ip->imm, false);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
setSlot(Frame<kFeat> &fr, const Rec *ip)
{
    Value va = fr.R[ip->a];
    if (!va.isObject()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        return; // Speculative store to nowhere.
    }
    const JsObject &obj = fr.env.heap.object(va.payload());
    if (ip->imm >= obj.slots.size()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        return; // Speculative store to nowhere.
    }
    fr.env.heap.setSlot(va.payload(), ip->imm, fr.R[ip->b]);
    fr.env.memAccess(obj.baseAddr + 8ull * ip->imm, true);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
getArrayLen(Frame<kFeat> &fr, const Rec *ip)
{
    Value va = fr.R[ip->a];
    if (!va.isArray()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        fr.R[ip->dst] = garbageValue();
        return;
    }
    const JsArray &arr = fr.env.heap.array(va.payload());
    fr.R[ip->dst] = Value::int32(static_cast<int32_t>(arr.length()));
    fr.env.memAccess(arr.baseAddr, false);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
getElem(Frame<kFeat> &fr, const Rec *ip)
{
    Value va = fr.R[ip->a];
    Value vi = fr.R[ip->b];
    if (!va.isArray() || !vi.isInt32()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        fr.R[ip->dst] = garbageValue();
        return;
    }
    const JsArray &arr = fr.env.heap.array(va.payload());
    int32_t i = vi.asInt32();
    Addr addr = arr.baseAddr + 8ull * static_cast<uint32_t>(i);
    if (i < 0 || static_cast<uint32_t>(i) >= arr.length()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        fr.R[ip->dst] = garbageValue();
        if (i >= 0)
            fr.env.memAccess(addr, false);
        return;
    }
    fr.R[ip->dst] = arr.storage[static_cast<size_t>(i)];
    fr.env.memAccess(addr, false);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
setElem(Frame<kFeat> &fr, const Rec *ip)
{
    Value va = fr.R[ip->a];
    Value vi = fr.R[ip->b];
    if (!va.isArray() || !vi.isInt32()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        return;
    }
    const JsArray &arr = fr.env.heap.array(va.payload());
    int32_t i = vi.asInt32();
    Addr addr = arr.baseAddr + 8ull * static_cast<uint32_t>(i);
    if (i < 0 || static_cast<uint32_t>(i) >= arr.length()) {
        NOMAP_ASSERT(fr.env.htm.inTransaction());
        if (i >= 0) {
            if (!fr.env.htm.recordWrite(addr))
                throw TxAbortUnwind{AbortCode::Capacity};
            fr.env.memAccess(addr, true);
        }
        return; // Speculative OOB store: dropped.
    }
    fr.env.heap.setElementFast(va.payload(), static_cast<uint32_t>(i),
                               fr.R[ip->c]);
    fr.env.memAccess(addr, true);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
loadGlobal(Frame<kFeat> &fr, const Rec *ip)
{
    fr.R[ip->dst] = fr.env.heap.getGlobal(ip->imm);
    fr.env.memAccess(fr.env.heap.globalAddr(ip->imm), false);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
storeGlobal(Frame<kFeat> &fr, const Rec *ip)
{
    fr.env.heap.setGlobal(ip->imm, fr.R[ip->a]);
    fr.env.memAccess(fr.env.heap.globalAddr(ip->imm), true);
}

// ---- Generic runtime fallbacks --------------------------------------

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
genericBinary(Frame<kFeat> &fr, const Rec *ip)
{
    fr.env.acct.chargeRuntime(CostModel::kRuntimeGenericOp);
    fr.R[ip->dst] = fr.env.runtime.applyBinary(
        static_cast<BinaryOp>(ip->imm), fr.R[ip->a], fr.R[ip->b]);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
genericUnary(Frame<kFeat> &fr, const Rec *ip)
{
    fr.env.acct.chargeRuntime(CostModel::kRuntimeGenericOp);
    fr.R[ip->dst] = fr.env.runtime.applyUnary(
        static_cast<UnaryOp>(ip->imm), fr.R[ip->a]);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
genericGetProp(Frame<kFeat> &fr, const Rec *ip)
{
    fr.env.acct.chargeRuntime(CostModel::kRuntimePropAccess);
    Addr addr = 0;
    fr.R[ip->dst] =
        fr.env.runtime.getPropertyGeneric(fr.R[ip->a], ip->imm, &addr);
    fr.env.memAccess(addr, false);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
genericSetProp(Frame<kFeat> &fr, const Rec *ip)
{
    fr.env.acct.chargeRuntime(CostModel::kRuntimePropAccess);
    Addr addr = 0;
    fr.env.runtime.setPropertyGeneric(fr.R[ip->a], ip->imm, fr.R[ip->b],
                                      &addr);
    fr.env.memAccess(addr, true);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
genericGetIndex(Frame<kFeat> &fr, const Rec *ip)
{
    fr.env.acct.chargeRuntime(CostModel::kRuntimeIndexAccess);
    Addr addr = 0;
    fr.R[ip->dst] =
        fr.env.runtime.getIndexGeneric(fr.R[ip->a], fr.R[ip->b], &addr);
    fr.env.memAccess(addr, false);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
genericSetIndex(Frame<kFeat> &fr, const Rec *ip)
{
    fr.env.acct.chargeRuntime(CostModel::kRuntimeIndexAccess);
    Addr addr = 0;
    fr.env.runtime.setIndexGeneric(fr.R[ip->a], fr.R[ip->b], fr.R[ip->c],
                                   &addr);
    fr.env.memAccess(addr, true);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
newArray(Frame<kFeat> &fr, const Rec *ip)
{
    fr.env.acct.chargeRuntime(CostModel::kRuntimeAllocation);
    Value arr = fr.env.heap.allocArray(ip->imm);
    for (uint32_t i = 0; i < ip->imm; ++i)
        fr.env.heap.setElementFast(arr.payload(), i, fr.R[ip->a + i]);
    fr.R[ip->dst] = arr;
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
newObject(Frame<kFeat> &fr, const Rec *ip)
{
    fr.env.acct.chargeRuntime(CostModel::kRuntimeAllocation);
    Value obj = fr.env.heap.allocObject();
    // The descriptor lives in the bytecode function.
    const ObjectDesc &desc = fr.fn.objectDescs[ip->imm];
    for (uint32_t i = 0; i < ip->b; ++i) {
        fr.env.heap.setProperty(obj.payload(), desc.nameIds[i],
                                fr.R[ip->a + i]);
    }
    fr.R[ip->dst] = obj;
}

// ---- Calls ---------------------------------------------------------

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
call(Frame<kFeat> &fr, const Rec *ip)
{
    fr.R[ip->dst] = fr.env.dispatcher.call(ip->imm, fr.R + ip->a, ip->b);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
callNative(Frame<kFeat> &fr, const Rec *ip)
{
    auto bid = static_cast<BuiltinId>(ip->imm);
    if (bid == BuiltinId::Print)
        fr.env.irrevocableEvent();
    fr.env.acct.chargeRuntime(CostModel::kRuntimeNativeCall);
    fr.R[ip->dst] = fr.env.builtins.call(bid, fr.R + ip->a, ip->b);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
intrinsic(Frame<kFeat> &fr, const Rec *ip)
{
    fr.R[ip->dst] = fr.env.builtins.call(static_cast<BuiltinId>(ip->imm),
                                         fr.R + ip->a, ip->b);
}

template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE void
callMethod(Frame<kFeat> &fr, const Rec *ip)
{
    fr.env.acct.chargeRuntime(CostModel::kRuntimeMethodCall);
    uint32_t name_id = ip->imm / 16;
    uint32_t margs = ip->imm % 16;
    fr.R[ip->dst] = fr.env.builtins.callMethod(fr.R[ip->a], name_id,
                                               fr.R + ip->b, margs);
}

// ---- Control flow --------------------------------------------------

/** Flat index of the record a Branch continues at. */
template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE uint32_t
branchTarget(Frame<kFeat> &fr, const Rec *ip)
{
    return fr.env.runtime.toBoolean(fr.R[ip->a]) ? ip->imm : ip->imm2;
}

/** Return @p v from the frame (never inside an owned transaction). */
template <unsigned kFeat>
NOMAP_IR_INLINE Value
returnValue(Frame<kFeat> &fr, Value v)
{
    NOMAP_ASSERT(!fr.txOwner);
    return v;
}

// ---- Transactions --------------------------------------------------

/**
 * Owner bookkeeping for a transaction this frame just began at @p ip:
 * snapshot the baseline registers for Baseline re-entry and restart
 * the watchdog. An injected begin-abort (htm.abort*) fires now that
 * owner state exists, so recovery follows the real abort path.
 */
template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE bool
ownNewTx(Frame<kFeat> &fr, const Rec *ip, Value &out)
{
    fr.snapshot.assign(fr.R, fr.R + fr.ir.bytecodeRegs);
    fr.entryPc = ip->smpPc;
    fr.txInstr = 0;
    AbortCode injected = fr.env.htm.takePendingInjectedAbort();
    if (injected == AbortCode::None)
        return false;
    out = abortToBaseline(fr, ip, injected);
    return true;
}

/** TxBegin; the outermost begin makes this frame the owner. */
template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE bool
txBegin(Frame<kFeat> &fr, const Rec *ip, Value &out)
{
    bool outermost = !fr.env.htm.inTransaction();
    // Attribute the transaction's trace/telemetry events to this
    // function + entry SMP before begin() emits TxBegin.
    // Unconditional: the adaptive controller consumes the telemetry
    // stream with tracing off.
    if (outermost)
        fr.env.htm.setTraceContext(fr.ir.funcId, ip->smpPc);
    fr.env.acct.chargeCycles(fr.env.htm.begin());
    syncTxFlag(fr);
    if (!outermost)
        return false;
    fr.txOwner = true;
    fr.tileCount = 0;
    return ownNewTx(fr, ip, out);
}

/** TxEnd: commit, or abort on a latched SOF (paper Figure 7). */
template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE bool
txEnd(Frame<kFeat> &fr, const Rec *ip, Value &out)
{
    CommitResult r = fr.env.htm.end();
    fr.env.acct.chargeCycles(r.cycles);
    if (r.committed) {
        if (!fr.env.htm.inTransaction()) {
            fr.env.mem.commitSpeculative();
            fr.txOwner = false;
        }
        syncTxFlag(fr);
        return false;
    }
    if (!fr.txOwner) {
        syncTxFlag(fr);
        throw TxAbortUnwind{r.abortCode};
    }
    out = refundToBaseline(fr, ip);
    return true;
}

/**
 * TxTile: every imm-th execution commits the owned transaction and
 * begins the next tile at the same SMP. Nested frames do not tile.
 */
template <unsigned kFeat, class Rec>
NOMAP_IR_INLINE bool
txTile(Frame<kFeat> &fr, const Rec *ip, Value &out)
{
    if (!fr.txOwner)
        return false;
    ++fr.tileCount;
    if (fr.tileCount % ip->imm != 0)
        return false;
    CommitResult r = fr.env.htm.end();
    fr.env.acct.chargeCycles(r.cycles);
    if (!r.committed) {
        out = refundToBaseline(fr, ip);
        return true;
    }
    fr.env.mem.commitSpeculative();
    fr.env.htm.setTraceContext(fr.ir.funcId, ip->smpPc);
    fr.env.acct.chargeCycles(fr.env.htm.begin());
    return ownNewTx(fr, ip, out);
}

} // namespace nomap::irsem

#endif // NOMAP_FTL_IR_SEMANTICS_H
