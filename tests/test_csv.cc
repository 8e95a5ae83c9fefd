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

void
writeFile(const std::string &path, const char *text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
}

TEST(Csv, EmptyLineHasNoCells)
{
    EXPECT_TRUE(splitCsvLine("").empty());
    const auto commas = splitCsvLine(",");
    ASSERT_EQ(commas.size(), 2u);
    EXPECT_EQ(commas[0], "");
    EXPECT_EQ(commas[1], "");
}

TEST(CsvReader, KeepsEmptyCells)
{
    const std::string path = tempPath("acdse_csv_reader_empty.csv");
    writeFile(path, "a,b,c\n1,,3\n");
    CsvReader reader(path);
    ASSERT_TRUE(reader.ok());
    ASSERT_TRUE(reader.next());
    ASSERT_EQ(reader.row().size(), 3u);
    EXPECT_EQ(reader.row()[0], "1");
    EXPECT_EQ(reader.row()[1], "");
    EXPECT_EQ(reader.row()[2], "3");
    EXPECT_FALSE(reader.next());
    EXPECT_FALSE(reader.failed());
    std::remove(path.c_str());
}

TEST(CsvReader, TrailingCommaGivesEmptyLastCell)
{
    const std::string path = tempPath("acdse_csv_reader_trailing.csv");
    writeFile(path, "a,b,\n1,2,\n");
    CsvReader reader(path);
    ASSERT_TRUE(reader.ok());
    ASSERT_EQ(reader.header().size(), 3u);
    EXPECT_EQ(reader.header()[2], "");
    ASSERT_TRUE(reader.next());
    ASSERT_EQ(reader.row().size(), 3u);
    EXPECT_EQ(reader.row()[2], "");
    std::remove(path.c_str());
}

TEST(CsvReader, KeepsCarriageReturn)
{
    const std::string path = tempPath("acdse_csv_reader_cr.csv");
    writeFile(path, "a,b\r\n1,2\r\n");
    CsvReader reader(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.header()[1], "b\r");
    ASSERT_TRUE(reader.next());
    EXPECT_EQ(reader.row()[1], "2\r");
    std::remove(path.c_str());
}

TEST(CsvReader, SkipsBlankRows)
{
    const std::string path = tempPath("acdse_csv_reader_blank.csv");
    writeFile(path, "a,b\n\n1,2\n\n\n3,4\n\n");
    CsvReader reader(path);
    ASSERT_TRUE(reader.ok());
    ASSERT_TRUE(reader.next());
    EXPECT_EQ(reader.row()[0], "1");
    ASSERT_TRUE(reader.next());
    EXPECT_EQ(reader.row()[0], "3");
    EXPECT_FALSE(reader.next());
    EXPECT_FALSE(reader.failed());
    std::remove(path.c_str());
}

TEST(CsvReader, CellCountMismatchFails)
{
    const std::string path = tempPath("acdse_csv_reader_ragged.csv");
    writeFile(path, "a,b\n1,2\n3,4,5\n6,7\n");
    CsvReader reader(path);
    ASSERT_TRUE(reader.ok());
    ASSERT_TRUE(reader.next());
    EXPECT_FALSE(reader.next());
    EXPECT_TRUE(reader.failed());
    EXPECT_FALSE(reader.next());
    CsvFile in;
    EXPECT_FALSE(readCsv(path, in));
    std::remove(path.c_str());
}

TEST(CsvReader, EmptyOrMissingFileFails)
{
    const std::string path = tempPath("acdse_csv_reader_none.csv");
    writeFile(path, "");
    EXPECT_FALSE(CsvReader(path).ok());
    CsvFile in;
    EXPECT_FALSE(readCsv(path, in));
    std::remove(path.c_str());
    EXPECT_FALSE(CsvReader(path).ok());
    EXPECT_FALSE(CsvReader(path).next());
}

} // namespace
} // namespace acdse
