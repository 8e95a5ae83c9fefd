/**
 * @file
 * Open-loop load: requests are sent on a fixed schedule whatever the
 * server is doing, and each request's latency runs from the time it
 * was *due*, not the time the generator got round to sending it. A
 * stalled generator therefore charges its stall to every request
 * queued up behind it instead of hiding it.
 */

#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "base/rng.hh"

namespace pipebench
{

/**
 * Poisson arrival offsets (ns from the start of a step) for
 * @p rate requests per second over @p durationNs, drawn from @p seed.
 */
inline std::vector<std::uint64_t>
poissonSchedule(double rate, std::uint64_t durationNs, std::uint64_t seed)
{
    acdse::Rng rng(seed);
    std::vector<std::uint64_t> due;
    double t = 0.0;
    const double meanGapNs = 1e9 / rate;
    for (;;) {
        // Inverse-CDF exponential gap; 1 - u keeps the log finite.
        t += -meanGapNs * std::log(1.0 - rng.nextDouble());
        if (t >= static_cast<double>(durationNs))
            return due;
        due.push_back(static_cast<std::uint64_t>(t));
    }
}

/**
 * Drive one open-loop schedule. For each request i in order: wait on
 * @p clock until origin + due[i], call send(i), and record the send
 * time in sent[i]. A request whose due time has already passed is sent
 * at once (the generator catches up; it never skips or reschedules).
 *
 * Clock needs now() -> ns and waitUntil(ns); the benchmark passes a
 * steady-clock spinner, the self-test a simulated clock.
 */
template <typename Clock, typename Send>
void
runSchedule(const std::vector<std::uint64_t> &due, std::uint64_t origin,
            Clock &clock, Send &&send, std::vector<std::uint64_t> &sent)
{
    sent.assign(due.size(), 0);
    for (std::size_t i = 0; i < due.size(); ++i) {
        clock.waitUntil(origin + due[i]);
        sent[i] = clock.now();
        send(i);
    }
}

/**
 * Latencies in microseconds from due time to completion; requests
 * with no completion (done == 0) are skipped.
 */
inline std::vector<double>
dueTimeLatenciesUs(const std::vector<std::uint64_t> &due,
                   std::uint64_t origin,
                   const std::vector<std::uint64_t> &done)
{
    std::vector<double> out;
    out.reserve(due.size());
    for (std::size_t i = 0; i < due.size(); ++i) {
        if (done[i] == 0)
            continue;
        const std::uint64_t dueAt = origin + due[i];
        out.push_back(done[i] > dueAt
                          ? static_cast<double>(done[i] - dueAt) / 1e3
                          : 0.0);
    }
    return out;
}

} // namespace pipebench
