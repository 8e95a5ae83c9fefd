/**
 * @file
 * Minimal CSV reading/writing, used for the on-disk simulation-campaign
 * cache. Values are plain (no quoting) since we only store identifiers
 * and numbers.
 */

#pragma once

#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace acdse
{

/** One parsed CSV file: a header row plus data rows of strings. */
struct CsvFile
{
    std::vector<std::string> header;              //!< column names
    std::vector<std::vector<std::string>> rows;   //!< data cells
};

/**
 * Streaming CSV reader: holds one line at a time and hands out its
 * cells as views, so a caller that parses cells in place builds no
 * strings. Lines split as in splitCsvLine(). The first line is the
 * header; blank lines after it are skipped, and every other row must
 * have the header's cell count.
 *
 *     CsvReader reader(path);
 *     if (!reader.ok()) ...                 // missing or empty file
 *     while (reader.next()) use(reader.row());
 *     if (reader.failed()) ...              // a ragged row
 */
class CsvReader
{
  public:
    /** Open @p path and read its header line. */
    explicit CsvReader(const std::string &path);

    /** False if the file is missing or has no header line. */
    bool ok() const { return ok_; }

    /** The header's cells. */
    std::span<const std::string> header() const { return header_; }

    /**
     * Advance to the next non-blank row. Returns false at the end of
     * the file, or on a row whose cell count differs from the
     * header's; failed() tells the two apart.
     */
    bool next();

    /** Whether next() stopped on a row with the wrong cell count. */
    bool failed() const { return failed_; }

    /** The current row's cells, valid until the next call to next(). */
    std::span<const std::string_view> row() const { return cells_; }

  private:
    std::ifstream in_;
    std::string line_;
    std::vector<std::string> header_;
    std::vector<std::string_view> cells_;
    bool ok_ = false;
    bool failed_ = false;
};

/**
 * Read a CSV file from disk (a CsvReader collecting every row).
 * @return true and fills @p out on success; false if the file does not
 *         exist, is empty, or has a row with the wrong cell count.
 */
bool readCsv(const std::string &path, CsvFile &out);

/** Write a CSV file to disk; panics on I/O failure. */
void writeCsv(const std::string &path, const CsvFile &file);

/**
 * Write a CSV file atomically: the content goes to a process-unique
 * temporary file that is rename()d over @p path, so concurrent readers
 * (and racing writers sharing one cache file) see either the old file
 * or the complete new one, never a truncated in-between state. The
 * temporary lives in the same directory as @p path, as rename() is
 * only atomic within a filesystem.
 */
void writeCsvAtomic(const std::string &path, const CsvFile &file);

/**
 * Split one CSV line on commas (no quoting). An empty line has no
 * cells; otherwise n commas give n + 1 cells, so empty cells are kept
 * and a trailing comma gives an empty last cell. Nothing is trimmed:
 * a '\r' stays in the last cell.
 */
std::vector<std::string> splitCsvLine(std::string_view line);

} // namespace acdse

