#ifndef NOMAP_TESTS_TESTING_STATS_EQUAL_H
#define NOMAP_TESTS_TESTING_STATS_EQUAL_H

/**
 * @file
 * Field-by-field ExecutionStats equality for the executor
 * differentials, which compare two runs that must charge the very
 * same integer units in the very same order.
 */

#include <gtest/gtest.h>

#include "engine/stats.h"

namespace nomap {
namespace testutil {

/** Expect every guest counter of @p got to equal @p want's. */
inline void
expectSameStats(const ExecutionStats &got, const ExecutionStats &want)
{
    for (size_t b = 0;
         b < static_cast<size_t>(InstrBucket::NumBuckets); ++b) {
        EXPECT_EQ(got.instr[b], want.instr[b]) << "instr bucket " << b;
    }
    for (size_t k = 0; k < static_cast<size_t>(CheckKind::NumKinds);
         ++k) {
        EXPECT_EQ(got.checks[k], want.checks[k])
            << "check kind " << checkKindName(static_cast<CheckKind>(k));
    }
    // Exact equality on the doubles (see test_accounting_diff).
    EXPECT_EQ(got.cyclesTm, want.cyclesTm);
    EXPECT_EQ(got.cyclesNonTm, want.cyclesNonTm);
    EXPECT_EQ(got.ftlFunctionCalls, want.ftlFunctionCalls);
    EXPECT_EQ(got.deopts, want.deopts);
    EXPECT_EQ(got.baselineCompiles, want.baselineCompiles);
    EXPECT_EQ(got.dfgCompiles, want.dfgCompiles);
    EXPECT_EQ(got.ftlCompiles, want.ftlCompiles);
    EXPECT_EQ(got.ftlRecompiles, want.ftlRecompiles);
    EXPECT_EQ(got.txCommits, want.txCommits);
    EXPECT_EQ(got.txAborts, want.txAborts);
    EXPECT_EQ(got.txAbortsCapacity, want.txAbortsCapacity);
    EXPECT_EQ(got.txAbortsCheck, want.txAbortsCheck);
    EXPECT_EQ(got.txAbortsSof, want.txAbortsSof);
    EXPECT_EQ(got.avgWriteFootprintBytes, want.avgWriteFootprintBytes);
    EXPECT_EQ(got.maxWriteFootprintBytes, want.maxWriteFootprintBytes);
    EXPECT_EQ(got.maxWriteWaysUsed, want.maxWriteWaysUsed);
}

} // namespace testutil
} // namespace nomap

#endif // NOMAP_TESTS_TESTING_STATS_EQUAL_H
