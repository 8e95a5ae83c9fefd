// Self-tests of the benchmark's own arithmetic. They run at the start
// of every benchmark run (and alone with --selftest), and count as
// correctness checks: a benchmark whose percentile or self-time sums
// are wrong must not report numbers.

#include "selftest.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "open_loop.hh"
#include "report.hh"
#include "trace_log.hh"

namespace pipebench
{
namespace
{

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v;
    // Descending, so the rule has to sort.
    for (std::size_t i = n; i >= 1; --i)
        v.push_back(static_cast<double>(i));
    return v;
}

bool
tailIs(std::size_t n, double pct, double value)
{
    const Tail tail = tailPercentile(oneTo(n));
    return std::abs(tail.pct - pct) < 1e-9 && tail.value == value &&
           tail.samples == n;
}

void
percentileRule(Report &report)
{
    // 1000 samples: p99 leaves exactly 10 beyond it; p99.9 leaves 1.
    // 999: p99 would leave 9, so p90. 20000: p99.9 leaves 20. 20: p50
    // leaves 10. 19: nothing qualifies, the median stands alone.
    const bool ok = tailIs(1000, 99.0, 990.0) && tailIs(999, 90.0, 900.0) &&
                    tailIs(20000, 99.9, 19980.0) &&
                    tailIs(20, 50.0, 10.0) && tailIs(19, 0.0, 10.0) &&
                    quantile({3, 1, 2}, 0.5) == 2.0 &&
                    median({4, 1, 3, 2}) == 2.5;
    report.check("selftest percentile rule", ok);
}

void
selfTime(Report &report)
{
    // parent [0,100]; children [10,30] and [20,50] overlap; [90,120]
    // runs past the parent; a grandchild [15,20] sits inside [10,30].
    const std::vector<SpanRecord> spans{
        {"bench.rep", -1, 0, 100},  {"sim.fill", 0, 10, 30},
        {"ml.train", 0, 20, 50},    {"core.fit", 0, 90, 120},
        {"trace.gen", 1, 15, 20},
    };
    const auto self = selfTimesNs(spans);
    bool ok = self == std::vector<std::uint64_t>{50, 15, 30, 30, 5};

    TraceLog log(true);
    {
        const TraceLog::Span root(log, "bench.rep");
        const TraceLog::Span child(log, "sim.fill");
    }
    ok = ok && log.spans().size() == 2 && log.spans()[1].parent == 0 &&
         log.spans()[0].parent == -1 &&
         log.spans()[1].startNs >= log.spans()[0].startNs &&
         log.spans()[1].endNs <= log.spans()[0].endNs;
    // Self times of a real log add up to the root's wall time.
    double sum = 0.0;
    for (const auto &[layer, ms] : log.selfMsByLayer(0))
        sum += ms;
    ok = ok && std::abs(sum - log.ms(0)) < 1e-9 &&
         layerOf("sim.fill") == "sim" && layerOf("bench") == "bench";
    report.check("selftest self-time subtraction", ok);
}

void
nameCharset(Report &report)
{
    const bool ok =
        validName("wall_s") && validName("rmae_pct.cycles") &&
        validName("serve.p99_us.20k") && validName("9lives") &&
        validName("a-b") && validName(std::string(64, 'x')) &&
        !validName("") && !validName("_x") && !validName(".x") &&
        !validName("-x") && !validName("a b") && !validName("a/b") &&
        !validName("a\"b") && !validName(std::string(65, 'x'));
    report.check("selftest metric-name charset", ok);
}

/** A simulated clock: waiting jumps time forward, nothing else moves it. */
struct FakeClock
{
    std::uint64_t t = 0;
    std::uint64_t now() const { return t; }
    void waitUntil(std::uint64_t due)
    {
        if (t < due)
            t = due;
    }
};

void
dueTimeAccounting(Report &report)
{
    // 100 requests due every 10 us; the server answers each 10 us after
    // it is sent. The generator stalls for 500 us while sending request
    // 20, so requests 21.. go out late.
    constexpr std::uint64_t kUs = 1000;
    std::vector<std::uint64_t> due;
    for (std::uint64_t i = 0; i < 100; ++i)
        due.push_back(i * 10 * kUs);
    const auto run = [&](bool stall) {
        FakeClock clock;
        std::vector<std::uint64_t> sent, done(due.size());
        runSchedule(
            due, 0, clock,
            [&](std::size_t i) {
                done[i] = clock.t + 10 * kUs;
                if (stall && i == 20)
                    clock.t += 500 * kUs;
            },
            sent);
        return dueTimeLatenciesUs(due, 0, done);
    };
    const auto calm = run(false);
    const auto stalled = run(true);
    bool ok = calm.size() == 100 && stalled.size() == 100;
    for (double us : calm)
        ok = ok && us == 10.0;
    // Request 21 was due at 210 us and sent at 700 us: 500 us behind
    // plus 10 us of service. Those before the stall are unaffected, and
    // the backlog drains as the schedule catches up (request 70 is due
    // when the stall ends).
    ok = ok && stalled[19] == 10.0 && stalled[20] == 10.0 &&
         stalled[21] == 500.0 && stalled[69] == 20.0 &&
         stalled[70] == 10.0 && stalled[99] == 10.0;

    // Seeded Poisson arrivals: reproducible, ordered, about the rate.
    const auto a = poissonSchedule(10e3, 1'000'000'000, 7);
    const auto b = poissonSchedule(10e3, 1'000'000'000, 7);
    ok = ok && a == b && std::is_sorted(a.begin(), a.end()) &&
         a.size() > 9500 && a.size() < 10500;
    report.check("selftest open-loop due-time accounting", ok);
}

} // namespace

void
runSelfTests(Report &report)
{
    percentileRule(report);
    selfTime(report);
    nameCharset(report);
    dueTimeAccounting(report);
}

} // namespace pipebench
