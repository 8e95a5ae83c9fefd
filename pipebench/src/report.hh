/**
 * @file
 * The benchmark's own arithmetic and output: the percentile rule,
 * digests, host facts, and the result object whose JSON form is the
 * last line a run prints.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pipebench
{

/** Median of @p samples (mean of the middle two for even counts). */
double median(std::vector<double> samples);

/**
 * A tail percentile chosen by the rule: the highest of p50, p90, p99,
 * p99.9, ... that still has at least ten samples beyond it. pct is 0
 * and value is the median when no percentile above p50 qualifies.
 */
struct Tail
{
    double pct = 0.0;        //!< the percentile (50, 90, 99, 99.9, ...)
    double value = 0.0;      //!< its nearest-rank value
    std::size_t samples = 0; //!< sample count the rule saw
};

/** Apply the percentile rule to @p samples. */
Tail tailPercentile(std::vector<double> samples);

/** Nearest-rank quantile of @p samples, @p q in [0, 1]. */
double quantile(std::vector<double> samples, double q);

/**
 * "median M <unit>, pP T <unit>, n N": the median and the rule's tail
 * percentile with the sample count (the tail is omitted when no
 * percentile qualifies).
 */
std::string describe(const std::vector<double> &samples,
                     const std::string &unit);

/**
 * Whether @p name is a legal metric or workload name: starts with a
 * letter or digit, at most 64 of [A-Za-z0-9_.-].
 */
bool validName(std::string_view name);

/**
 * FNV-1a 64 (acdse::fnv1a64) over the object representation of
 * doubles.
 */
std::uint64_t fnv1aDoubles(const std::vector<double> &values);

/** 16 lowercase hex digits. */
std::string hex64(std::uint64_t value);

/** Peak resident set size of this process, in MB (1 MB = 2^20 B). */
double peakRssMb();

/** Process CPU time (user + system), in seconds. */
double processCpuSeconds();

/** Online processors, CPU model, compiler and build type, as JSON. */
std::string hostJson();

/** Monotonic clock, nanoseconds. */
std::uint64_t nowNs();

/**
 * What one run found: metrics by name, correctness checks, and info
 * lines (digests, reconciliations) that are printed but not measured.
 */
class Report
{
  public:
    /** Record a metric; panics on an invalid or repeated name. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Record one correctness check; a false @p ok counts as failed. */
    void check(const std::string &name, bool ok,
               const std::string &detail = {});

    /** Count @p n operations attempted and @p failed of them failed. */
    void operations(std::size_t n, std::size_t failed);

    /** A printed fact that is not a metric (digest, reconciliation). */
    void info(const std::string &key, const std::string &value);

    /** Whether every check passed. */
    bool correct() const { return failedChecks_ == 0; }

    /** Print info and check lines, then the result JSON as last line. */
    void print() const;

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::vector<std::pair<std::string, std::string>> info_;
    std::vector<std::string> checkLines_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::size_t failedChecks_ = 0;
};

} // namespace pipebench
