/**
 * @file
 * The benchmark's own span log. A span brackets one call from the
 * benchmark into a layer of the library -- name, start, end and the
 * span that was open when it started -- and lives in memory until the
 * run writes the log out. Layer attribution uses self time: a span's
 * duration minus the part of it its child spans cover.
 *
 * Spans are opened and closed on the benchmark's driving thread only;
 * work the library fans out to its pool is inside the span of the call
 * that started it.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pipebench
{

/** One closed (or still open) span. */
struct SpanRecord
{
    std::string name;       //!< "<layer>.<call>", e.g. "sim.fill"
    int parent = -1;        //!< index of the enclosing span, -1 at top
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

/**
 * Self time of every span: its duration minus the union of its
 * children's intervals clipped to it (children may overlap each other
 * or run past their parent; neither is counted twice).
 */
std::vector<std::uint64_t> selfTimesNs(const std::vector<SpanRecord> &spans);

/** Layer of a span name: the part before the first '.'. */
std::string layerOf(const std::string &name);

/** An in-memory span log; a disabled log records nothing. */
class TraceLog
{
  public:
    explicit TraceLog(bool enabled) : enabled_(enabled) {}

    TraceLog(const TraceLog &) = delete;
    TraceLog &operator=(const TraceLog &) = delete;

    bool enabled() const { return enabled_; }

    /** Turn recording on or off; only between top-level spans. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Opens a span on construction and closes it on destruction. */
    class Span
    {
      public:
        Span(TraceLog &log, std::string name);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        TraceLog &log_;
        int index_ = -1;
    };

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /**
     * Self milliseconds summed per layer over the spans inside
     * @p root (inclusive), keyed by layer name.
     */
    std::map<std::string, double> selfMsByLayer(int root) const;

    /** Indices of the spans named @p name. */
    std::vector<int> find(const std::string &name) const;

    /** Duration of span @p index in milliseconds. */
    double ms(int index) const;

    /** Write every span as one JSON document to @p path. */
    void write(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
};

} // namespace pipebench
