/**
 * @file
 * Tests for query-trace persistence (record / replay).
 */

#include <gtest/gtest.h>
#include <sstream>

#include "loadgen/query_stream.hh"
#include "loadgen/trace_io.hh"

namespace deeprecsys {
namespace {

TEST(TraceIo, RoundTripPreservesQueries)
{
    LoadSpec spec;
    spec.qps = 300.0;
    QueryStream stream(spec);
    const QueryTrace original = stream.generate(200);

    std::stringstream buffer;
    writeTrace(buffer, original);
    const QueryTrace replayed = readTrace(buffer);

    ASSERT_EQ(replayed.size(), original.size());
    for (size_t i = 0; i < original.size(); i++) {
        EXPECT_EQ(replayed[i].id, original[i].id);
        EXPECT_DOUBLE_EQ(replayed[i].arrivalSeconds,
                         original[i].arrivalSeconds);
        EXPECT_EQ(replayed[i].size, original[i].size);
    }
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    std::stringstream buffer;
    writeTrace(buffer, {});
    EXPECT_TRUE(readTrace(buffer).empty());
}

TEST(TraceIo, HeaderIdentifiesFormat)
{
    std::stringstream buffer;
    writeTrace(buffer, {});
    EXPECT_EQ(buffer.str().rfind("deeprecsys-trace v1", 0), 0u);
}

TEST(TraceIo, FileRoundTrip)
{
    LoadSpec spec;
    QueryStream stream(spec);
    const QueryTrace original = stream.generate(50);
    const std::string path = "/tmp/drs_trace_test.txt";
    saveTrace(path, original);
    const QueryTrace replayed = loadTrace(path);
    ASSERT_EQ(replayed.size(), original.size());
    EXPECT_EQ(replayed.back().size, original.back().size);
}

using TraceIoDeath = ::testing::Test;

TEST(TraceIoDeath, RejectsBadMagic)
{
    std::stringstream buffer("not-a-trace v1 0\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "bad magic");
}

TEST(TraceIoDeath, RejectsTruncatedBody)
{
    std::stringstream buffer("deeprecsys-trace v1 3\n0 0.0 10\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "truncated");
}

TEST(TraceIoDeath, RejectsUnsortedArrivals)
{
    std::stringstream buffer(
        "deeprecsys-trace v1 2\n0 5.0 10\n1 1.0 10\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "not sorted");
}

TEST(TraceIoDeath, RejectsUnknownVersion)
{
    std::stringstream buffer("deeprecsys-trace v9 0\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "version");
}

TEST(TraceIoDeath, HugeHeaderCountIsTruncatedNotAnAllocation)
{
    // The count is untrusted: a header claiming 2^64 - 1 queries over
    // a one-query body must fail as truncated, not as a huge reserve.
    std::stringstream buffer(
        "deeprecsys-trace v1 18446744073709551615\n0 0.0 10\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "truncated at query 1");
}

TEST(TraceIoDeath, RejectsSizesOutsideUint32)
{
    std::stringstream negative("deeprecsys-trace v1 1\n0 0.0 -1\n");
    EXPECT_EXIT(readTrace(negative), ::testing::ExitedWithCode(1),
                "query 0 has size -1 outside");
    std::stringstream zero("deeprecsys-trace v1 1\n0 0.0 0\n");
    EXPECT_EXIT(readTrace(zero), ::testing::ExitedWithCode(1),
                "query 0 has size 0 outside");
    std::stringstream wide("deeprecsys-trace v1 1\n0 0.0 4294967296\n");
    EXPECT_EXIT(readTrace(wide), ::testing::ExitedWithCode(1),
                "has size 4294967296 outside");
}

TEST(TraceIoDeath, RejectsNegativeIds)
{
    // Ids are unsigned; "-1" must not wrap into 2^64 - 1.
    std::stringstream buffer("deeprecsys-trace v1 2\n0 0.0 10\n-1 0.5 10\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "query 1 has a negative id");
}

TEST(TraceIoDeath, RejectsNegativeArrivals)
{
    // The first arrival is checked too, not only the sort order after it.
    std::stringstream buffer("deeprecsys-trace v1 1\n0 -0.5 10\n");
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "query 0 has arrival -0.5 s; arrivals must be finite");
}

} // namespace
} // namespace deeprecsys
