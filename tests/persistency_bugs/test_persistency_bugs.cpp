/**
 * @file
 * The corpus contract: gpmcheck flags every seeded persistency bug
 * with the right rule ID — and for the durability bugs, a witness the
 * torture machinery confirms as a real VIOLATION — while each
 * "-fixed" twin analyzes clean.
 */
#include <gtest/gtest.h>

#include <string>

#include "analysis/check_runner.hpp"
#include "persistency_bugs/corpus.hpp"

namespace gpm {
namespace {

AnalysisReport
checkBug(const std::string &name, bool confirm = true)
{
    CheckConfig cfg;
    cfg.workloads = {name};
    cfg.domains = {PersistDomain::McDurable};
    cfg.factory = makeBugInvariant;
    cfg.confirm_witnesses = confirm;
    const CheckReport rep = runCheck(cfg);
    EXPECT_EQ(rep.cells.size(), 1u);
    EXPECT_EQ(rep.cells.at(0).error, "") << name;
    return rep.cells.at(0).report;
}

const Finding *
findRule(const AnalysisReport &rep, RuleId rule)
{
    for (const Finding &f : rep.findings)
        if (f.rule == rule)
            return &f;
    return nullptr;
}

void
expectClean(const std::string &name, RuleId absent)
{
    const AnalysisReport rep = checkBug(name, /*confirm=*/false);
    EXPECT_EQ(rep.countAtLeast(Severity::Warn), 0u) << name;
    EXPECT_EQ(findRule(rep, absent), nullptr) << name;
}

TEST(PersistencyBugs, DropFenceSealsEntryAndTailTogether)
{
    const AnalysisReport rep = checkBug("drop-fence");
    EXPECT_EQ(rep.countAtLeast(Severity::Warn), 1u);
    const Finding *f = findRule(rep, RuleId::EpochOrder);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->range, "bug.log.tails");
    EXPECT_NE(f->detail.find("same-epoch"), std::string::npos);
    EXPECT_EQ(f->witness_spec, "before-fence:1");
    EXPECT_EQ(f->witness_survive, 0.5);
    EXPECT_EQ(f->witness, WitnessStatus::Confirmed);
}

TEST(PersistencyBugs, DropFenceFixedIsClean)
{
    expectClean("drop-fence-fixed", RuleId::EpochOrder);
}

TEST(PersistencyBugs, ReorderFlipCommitsBeforeItsData)
{
    const AnalysisReport rep = checkBug("reorder-flip");
    EXPECT_EQ(rep.countAtLeast(Severity::Warn), 1u);
    const Finding *f = findRule(rep, RuleId::EpochOrder);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_NE(f->detail.find("commit-before-data"), std::string::npos);
    EXPECT_EQ(f->witness_spec, "after-fence:1");
    EXPECT_EQ(f->witness, WitnessStatus::Confirmed);
}

TEST(PersistencyBugs, ReorderFlipFixedIsClean)
{
    expectClean("reorder-flip-fixed", RuleId::EpochOrder);
}

TEST(PersistencyBugs, CoalescedTailMergesIntoOneEpoch)
{
    const AnalysisReport rep = checkBug("coalesced-tail");
    EXPECT_EQ(rep.countAtLeast(Severity::Warn), 1u);
    const Finding *f = findRule(rep, RuleId::EpochOrder);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->range, "bug.rec.tail");
    EXPECT_NE(f->detail.find("same-epoch"), std::string::npos);
    EXPECT_EQ(f->witness_spec, "before-fence:1");
    EXPECT_EQ(f->witness, WitnessStatus::Confirmed);
}

TEST(PersistencyBugs, CoalescedTailFixedIsClean)
{
    expectClean("coalesced-tail-fixed", RuleId::EpochOrder);
}

TEST(PersistencyBugs, TornValueSplitsTheAtomicCell)
{
    const AnalysisReport rep = checkBug("torn-value");
    EXPECT_EQ(rep.countAtLeast(Severity::Warn), 1u);
    const Finding *f = findRule(rep, RuleId::TornUpdate);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->range, "bug.slots");
    EXPECT_EQ(f->witness_spec, "after-fence:1");
    EXPECT_EQ(f->witness, WitnessStatus::Confirmed);
}

TEST(PersistencyBugs, TornValueFixedIsClean)
{
    expectClean("torn-value-fixed", RuleId::TornUpdate);
}

TEST(PersistencyBugs, DoubleFlushIsAPerfLint)
{
    const AnalysisReport rep = checkBug("double-flush");
    const Finding *f = findRule(rep, RuleId::RedundantFlush);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->severity, Severity::Warn);
    // No crash window exists — the data is already durable — so the
    // lint rightly carries no dynamic witness.
    EXPECT_EQ(f->witness_spec, "");
    EXPECT_EQ(f->witness, WitnessStatus::None);
}

TEST(PersistencyBugs, DoubleFlushFixedIsClean)
{
    expectClean("double-flush-fixed", RuleId::RedundantFlush);
}

TEST(PersistencyBugs, HostOnlyCommitIsDeadTortureCoverage)
{
    const AnalysisReport rep = checkBug("host-only-commit");
    const Finding *f = findRule(rep, RuleId::CrashUnreachable);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->severity, Severity::Info);
    EXPECT_EQ(f->range, "bug.flag");
}

TEST(PersistencyBugs, HostOnlyCommitFixedIsClean)
{
    expectClean("host-only-commit-fixed", RuleId::CrashUnreachable);
}

TEST(PersistencyBugs, LateRedoPublishesBitsBeforeTheirRecord)
{
    const AnalysisReport rep = checkBug("late-redo");
    EXPECT_EQ(rep.countAtLeast(Severity::Warn), 1u);
    const Finding *f = findRule(rep, RuleId::EpochOrder);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->range, "bug.heap.bitmap");
    EXPECT_NE(f->detail.find("commit-before-data"), std::string::npos);
    EXPECT_EQ(f->witness_spec, "after-fence:1");
    EXPECT_EQ(f->witness, WitnessStatus::Confirmed);
}

TEST(PersistencyBugs, LateRedoFixedIsClean)
{
    const AnalysisReport rep = checkBug("late-redo-fixed",
                                        /*confirm=*/false);
    EXPECT_EQ(rep.countAtLeast(Severity::Warn), 0u);
    EXPECT_EQ(findRule(rep, RuleId::EpochOrder), nullptr);
    // The fixed twin documents GpmHeap's design tradeoff: the host
    // owns the redo record, so no crash-armed launch ever stores to
    // it — an Info-class dead-coverage note, not a durability bug.
    const Finding *f = findRule(rep, RuleId::CrashUnreachable);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->severity, Severity::Info);
    EXPECT_EQ(f->range, "bug.heap.redo");
}

TEST(PersistencyBugs, EveryBrokenVariantFlagsAndEveryTwinPasses)
{
    for (const std::string &name : registeredBugs()) {
        const bool fixed =
            name.find("-fixed") != std::string::npos;
        const AnalysisReport rep = checkBug(name, /*confirm=*/false);
        // host-only-commit's finding is Info-class by design.
        const Severity floor = name == "host-only-commit"
                                   ? Severity::Info
                                   : Severity::Warn;
        if (fixed)
            EXPECT_EQ(rep.countAtLeast(Severity::Warn), 0u) << name;
        else
            EXPECT_GE(rep.countAtLeast(floor), 1u) << name;
    }
}

} // namespace
} // namespace gpm
