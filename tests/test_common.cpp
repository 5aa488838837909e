/**
 * @file
 * Unit tests for the common substrate: units, alignment helpers,
 * deterministic RNG, error reporting, and the report-table printer.
 */
#include <gtest/gtest.h>

#include <sstream>

#include <cstdlib>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace gpm {
namespace {

TEST(Units, LiteralsAndConversions)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
    EXPECT_DOUBLE_EQ(1_us, 1000.0);
    EXPECT_DOUBLE_EQ(3_ms, 3e6);
    EXPECT_DOUBLE_EQ(toMs(2.5e6), 2.5);
    EXPECT_DOUBLE_EQ(toUs(1500.0), 1.5);
    EXPECT_DOUBLE_EQ(toSec(2e9), 2.0);
}

TEST(Units, TransferTime)
{
    // 13 GB/s == 13 bytes/ns.
    EXPECT_DOUBLE_EQ(transferNs(13, 13.0), 1.0);
    EXPECT_DOUBLE_EQ(transferNs(0, 5.0), 0.0);
    EXPECT_DOUBLE_EQ(transferNs(100, 0.0), 0.0);  // "infinitely fast"
}

TEST(Units, Alignment)
{
    EXPECT_EQ(alignDown(257, 256), 256u);
    EXPECT_EQ(alignDown(256, 256), 256u);
    EXPECT_EQ(alignUp(1, 256), 256u);
    EXPECT_EQ(alignUp(256, 256), 256u);
    EXPECT_TRUE(isAligned(512, 256));
    EXPECT_FALSE(isAligned(260, 256));
    EXPECT_EQ(ceilDiv(10, 3), 4u);
    EXPECT_EQ(ceilDiv(9, 3), 3u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo && saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStreams)
{
    Rng base(42);
    Rng a = base.split(1), b = base.split(2), a2 = base.split(1);
    EXPECT_NE(a.next(), b.next());
    Rng a3 = base.split(1);
    EXPECT_EQ(a2.next(), a3.next());
}

TEST(Status, PanicAndFatalThrowTypedErrors)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
    EXPECT_THROW(fatal("bad config: ", "x"), FatalError);
    try {
        fatal("value was ", 7);
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 7"),
                  std::string::npos);
    }
}

TEST(Status, Macros)
{
    EXPECT_NO_THROW(GPM_ASSERT(1 + 1 == 2));
    EXPECT_THROW(GPM_ASSERT(false, "ctx"), PanicError);
    EXPECT_NO_THROW(GPM_REQUIRE(true, "fine"));
    EXPECT_THROW(GPM_REQUIRE(false, "nope"), FatalError);
}

TEST(Table, AlignedAndTsvOutput)
{
    Table t({"A", "Bee"});
    t.addRow({"1", "2"});
    t.addRow({"longer", "x"});
    EXPECT_EQ(t.rows(), 2u);

    std::ostringstream tsv;
    t.printTsv(tsv);
    EXPECT_EQ(tsv.str(), "A\tBee\n1\t2\nlonger\tx\n");

    std::ostringstream pretty;
    t.print(pretty);
    EXPECT_NE(pretty.str().find("longer"), std::string::npos);
}

TEST(Table, RejectsArityMismatch)
{
    Table t({"A", "B"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(3.14159), "3.14");
    EXPECT_EQ(Table::num(3.14159, 1), "3.1");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

// The suite keeps the name of the GPM_EXEC_WORKERS variable whose
// grammar parseSweepJobs defines.
TEST(ExecWorkers, AcceptsPlainDecimalInRange)
{
    EXPECT_EQ(parseSweepJobs("0"), 0);
    EXPECT_EQ(parseSweepJobs("1"), 1);
    EXPECT_EQ(parseSweepJobs("8"), 8);
    EXPECT_EQ(parseSweepJobs("1024"), 1024);
    EXPECT_EQ(parseSweepJobs("007"), 7);  // leading zeros are digits
}

TEST(ExecWorkers, RejectsMalformedInput)
{
    EXPECT_EQ(parseSweepJobs(nullptr), std::nullopt);
    EXPECT_EQ(parseSweepJobs(""), std::nullopt);
    EXPECT_EQ(parseSweepJobs(" 4"), std::nullopt);
    EXPECT_EQ(parseSweepJobs("4 "), std::nullopt);
    EXPECT_EQ(parseSweepJobs("+4"), std::nullopt);
    EXPECT_EQ(parseSweepJobs("-1"), std::nullopt);
    EXPECT_EQ(parseSweepJobs("4x"), std::nullopt);
    EXPECT_EQ(parseSweepJobs("x4"), std::nullopt);
    EXPECT_EQ(parseSweepJobs("4.0"), std::nullopt);
    EXPECT_EQ(parseSweepJobs("0x10"), std::nullopt);
}

TEST(ExecWorkers, RejectsOutOfRange)
{
    EXPECT_EQ(parseSweepJobs("1025"), std::nullopt);
    EXPECT_EQ(parseSweepJobs("99999"), std::nullopt);
    EXPECT_EQ(parseSweepJobs("123456"), std::nullopt);  // > 5 digits
}

TEST(ExecWorkers, EnvFallsBackOnUnsetOrInvalid)
{
    ::unsetenv("GPM_EXEC_WORKERS");
    EXPECT_EQ(sweepJobsFromEnv(3), 3);

    ::setenv("GPM_EXEC_WORKERS", "6", 1);
    EXPECT_EQ(sweepJobsFromEnv(3), 6);

    ::setenv("GPM_EXEC_WORKERS", "bogus", 1);
    EXPECT_EQ(sweepJobsFromEnv(3), 3);

    ::setenv("GPM_EXEC_WORKERS", "-2", 1);
    EXPECT_EQ(sweepJobsFromEnv(), 1);

    ::unsetenv("GPM_EXEC_WORKERS");
}

} // namespace
} // namespace gpm
