/**
 * @file
 * Unit tests for CSV reading/writing (the campaign cache format).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "base/csv.hh"
#include "scratch_dir.hh"

namespace acdse
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return (testscratch::processRoot() / name).string();
}

TEST(Csv, SplitsLine)
{
    const auto cells = splitCsvLine("a,b,,d");
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0], "a");
    EXPECT_EQ(cells[2], "");
    EXPECT_EQ(cells[3], "d");
}

TEST(Csv, TrailingComma)
{
    const auto cells = splitCsvLine("a,b,");
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[2], "");
}

TEST(Csv, RoundTrip)
{
    const std::string path = tempPath("acdse_csv_roundtrip.csv");
    CsvFile out;
    out.header = {"program", "value"};
    out.rows = {{"gzip", "1.5"}, {"mcf", "2.25"}};
    writeCsv(path, out);

    CsvFile in;
    ASSERT_TRUE(readCsv(path, in));
    EXPECT_EQ(in.header, out.header);
    ASSERT_EQ(in.rows.size(), 2u);
    EXPECT_EQ(in.rows[1][0], "mcf");
    EXPECT_EQ(in.rows[1][1], "2.25");
    std::remove(path.c_str());
}

TEST(Csv, MissingFileFails)
{
    CsvFile in;
    EXPECT_FALSE(readCsv("/nonexistent/path/nothing.csv", in));
}

TEST(Csv, RejectsRaggedRows)
{
    const std::string path = tempPath("acdse_csv_ragged.csv");
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("a,b\n1,2\n3\n", f);
        std::fclose(f);
    }
    CsvFile in;
    EXPECT_FALSE(readCsv(path, in));
    std::remove(path.c_str());
}

TEST(Csv, SkipsBlankLines)
{
    const std::string path = tempPath("acdse_csv_blank.csv");
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("a,b\n1,2\n\n3,4\n", f);
        std::fclose(f);
    }
    CsvFile in;
    ASSERT_TRUE(readCsv(path, in));
    EXPECT_EQ(in.rows.size(), 2u);
    std::remove(path.c_str());
}

} // namespace
} // namespace acdse
