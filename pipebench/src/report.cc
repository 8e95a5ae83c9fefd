#include "report.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "base/binary_io.hh"

namespace pipebench
{

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto n = static_cast<double>(samples.size());
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

Tail
tailPercentile(std::vector<double> samples)
{
    Tail tail;
    tail.samples = samples.size();
    tail.value = median(samples);
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    // Percentile 100 * (1 - 1/d) leaves n / d samples beyond it; the
    // ladder d = 2, 10, 100, ... is p50, p90, p99, p99.9, ... Integer
    // division keeps the "at least ten beyond" test exact.
    for (std::size_t d = 2; n / d >= 10; d = d == 2 ? 10 : d * 10) {
        tail.pct = 100.0 * (1.0 - 1.0 / static_cast<double>(d));
        tail.value = samples[n - n / d - 1];
    }
    return tail;
}

std::string
describe(const std::vector<double> &samples, const std::string &unit)
{
    const Tail tail = tailPercentile(samples);
    char buf[160];
    if (tail.pct > 0.0) {
        std::snprintf(buf, sizeof(buf), "median %.6g %s, p%g %.6g %s, n %zu",
                      median(samples), unit.c_str(), tail.pct, tail.value,
                      unit.c_str(), tail.samples);
    } else {
        std::snprintf(buf, sizeof(buf), "median %.6g %s, n %zu",
                      median(samples), unit.c_str(), tail.samples);
    }
    return buf;
}

bool
validName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

std::uint64_t
fnv1aDoubles(const std::vector<double> &values)
{
    std::string bytes(values.size() * sizeof(double), '\0');
    if (!values.empty())
        std::memcpy(bytes.data(), values.data(), bytes.size());
    return acdse::fnv1a64(bytes);
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
    // execve, so it would include the launching process's footprint.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace
{

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::size_t
onlineCpus()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        throw std::runtime_error("non-finite metric value");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace

std::string
hostJson()
{
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
#if defined(PIPEBENCH_BUILD_TYPE)
    const std::string build = PIPEBENCH_BUILD_TYPE;
#else
    const std::string build = "unknown";
#endif
    return "{\"nproc\": " + std::to_string(onlineCpus()) +
           ", \"cpu\": " + jsonString(cpuModel()) +
           ", \"compiler\": " + jsonString(compiler) +
           ", \"build_type\": " + jsonString(build) + "}";
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!validName(name) || metrics_.contains(name))
        throw std::runtime_error("bad or repeated metric name: " + name);
    metrics_[name] = {value, unit};
}

void
Report::check(const std::string &name, bool ok, const std::string &detail)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        ++failedChecks_;
    }
    checkLines_.push_back(std::string(ok ? "ok   " : "FAIL ") + name +
                          (detail.empty() ? "" : "  (" + detail + ")"));
}

void
Report::operations(std::size_t n, std::size_t failed)
{
    attempted_ += n;
    failed_ += failed;
}

void
Report::info(const std::string &key, const std::string &value)
{
    info_.emplace_back(key, value);
}

void
Report::print() const
{
    for (const auto &[key, value] : info_)
        std::printf("# %s: %s\n", key.c_str(), value.c_str());
    for (const auto &line : checkLines_)
        std::printf("# check %s\n", line.c_str());
    for (const auto &[name, mv] : metrics_) {
        std::printf("# metric %-28s %14.6g %s\n", name.c_str(), mv.first,
                    mv.second.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::size_t>(
                                      attempted_, 1));
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, mv] : metrics_) {
        json += first ? "" : ", ";
        first = false;
        json += jsonString(name) + ": {\"value\": " + number(mv.first) +
                ", \"unit\": " + jsonString(mv.second) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace pipebench
