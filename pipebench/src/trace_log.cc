#include "trace_log.hh"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "report.hh"

namespace pipebench
{

std::vector<std::uint64_t>
selfTimesNs(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<int>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)].push_back(
                static_cast<int>(i));
    }
    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &span = spans[i];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
        for (int c : children[i]) {
            const SpanRecord &child = spans[static_cast<std::size_t>(c)];
            const std::uint64_t lo = std::max(child.startNs, span.startNs);
            const std::uint64_t hi = std::min(child.endNs, span.endNs);
            if (lo < hi)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        std::uint64_t covered = 0;
        std::uint64_t reach = span.startNs;
        for (const auto &[lo, hi] : cover) {
            const std::uint64_t from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        self[i] = span.endNs - span.startNs - covered;
    }
    return self;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

TraceLog::Span::Span(TraceLog &log, std::string name) : log_(log)
{
    if (!log_.enabled_)
        return;
    index_ = static_cast<int>(log_.spans_.size());
    SpanRecord record;
    record.name = std::move(name);
    record.parent = log_.open_.empty() ? -1 : log_.open_.back();
    record.startNs = nowNs();
    log_.spans_.push_back(std::move(record));
    log_.open_.push_back(index_);
}

TraceLog::Span::~Span()
{
    if (index_ < 0)
        return;
    log_.spans_[static_cast<std::size_t>(index_)].endNs = nowNs();
    log_.open_.pop_back();
}

std::map<std::string, double>
TraceLog::selfMsByLayer(int root) const
{
    const std::vector<std::uint64_t> self = selfTimesNs(spans_);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        // Walk up to see whether span i sits inside root.
        int at = static_cast<int>(i);
        while (at >= 0 && at != root)
            at = spans_[static_cast<std::size_t>(at)].parent;
        if (at == root)
            out[layerOf(spans_[i].name)] +=
                static_cast<double>(self[i]) / 1e6;
    }
    return out;
}

std::vector<int>
TraceLog::find(const std::string &name) const
{
    std::vector<int> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name)
            out.push_back(static_cast<int>(i));
    }
    return out;
}

double
TraceLog::ms(int index) const
{
    const SpanRecord &span = spans_.at(static_cast<std::size_t>(index));
    return static_cast<double>(span.endNs - span.startNs) / 1e6;
}

void
TraceLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write span log " + path);
    const std::uint64_t origin = spans_.empty() ? 0 : spans_[0].startNs;
    out << "{\"schema\": \"pipebench-spans-v1\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &span = spans_[i];
        out << "  {\"id\": " << i << ", \"name\": \"" << span.name
            << "\", \"parent\": " << span.parent
            << ", \"start_ns\": " << span.startNs - origin
            << ", \"end_ns\": " << span.endNs - origin << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

} // namespace pipebench
