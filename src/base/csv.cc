#include "base/csv.hh"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "base/logging.hh"

namespace acdse
{

namespace
{

/** splitCsvLine() into views of @p line. */
void
splitCsvCells(std::string_view line, std::vector<std::string_view> &cells)
{
    cells.clear();
    if (line.empty())
        return;
    for (;;) {
        const std::size_t comma = line.find(',');
        cells.push_back(line.substr(0, comma));
        if (comma == std::string_view::npos)
            return;
        line.remove_prefix(comma + 1);
    }
}

} // namespace

std::vector<std::string>
splitCsvLine(std::string_view line)
{
    std::vector<std::string_view> views;
    splitCsvCells(line, views);
    return {views.begin(), views.end()};
}

CsvReader::CsvReader(const std::string &path) : in_(path)
{
    if (!in_ || !std::getline(in_, line_))
        return;
    splitCsvCells(line_, cells_);
    header_.assign(cells_.begin(), cells_.end());
    cells_.clear();
    ok_ = true;
}

bool
CsvReader::next()
{
    if (!ok_ || failed_)
        return false;
    while (std::getline(in_, line_)) {
        if (line_.empty())
            continue;
        splitCsvCells(line_, cells_);
        if (cells_.size() != header_.size()) {
            failed_ = true;
            return false;
        }
        return true;
    }
    cells_.clear();
    return false;
}

bool
readCsv(const std::string &path, CsvFile &out)
{
    CsvReader reader(path);
    if (!reader.ok())
        return false;
    out.header.assign(reader.header().begin(), reader.header().end());
    out.rows.clear();
    while (reader.next())
        out.rows.emplace_back(reader.row().begin(), reader.row().end());
    return !reader.failed();
}

void
writeCsv(const std::string &path, const CsvFile &file)
{
    std::ofstream os(path);
    if (!os)
        panic("cannot open '", path, "' for writing");
    auto write_row = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << row[i];
            if (i + 1 < row.size())
                os << ',';
        }
        os << '\n';
    };
    write_row(file.header);
    for (const auto &row : file.rows)
        write_row(row);
    if (!os)
        panic("failed while writing '", path, "'");
}

void
writeCsvAtomic(const std::string &path, const CsvFile &file)
{
    std::ostringstream tmp_name;
    tmp_name << path << ".tmp." << ::getpid();
    const std::string tmp = tmp_name.str();
    writeCsv(tmp, file);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        panic("cannot rename '", tmp, "' to '", path, "'");
    }
}

} // namespace acdse
