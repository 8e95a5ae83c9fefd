#include "sim/sampled_sim.hh"

#include <algorithm>

#include "base/check.hh"
#include "base/logging.hh"
#include "sim/batch.hh"

namespace acdse
{

SampledResult
simulateWithSimPoints(const MicroarchConfig &config, const Trace &trace,
                      const SimPointOptions &options)
{
    const SimPointResult analysis = simpointAnalyze(trace, options);
    ACDSE_CHECK(!analysis.points.empty(), "no simulation points");
    const std::size_t len = options.intervalLength;

    // Per-interval estimates from the representatives.
    std::vector<double> cycles_per_interval(analysis.numIntervals, 0.0);
    std::vector<double> energy_per_interval(analysis.numIntervals, 0.0);
    std::uint64_t timed = 0;

    const DecodedTrace decoded(trace);
    SimScratch scratch;
    for (const auto &point : analysis.points) {
        const std::size_t begin = point.intervalIndex * len;
        const std::size_t end = std::min(begin + len, trace.size());
        // Each representative starts from cold state, warmed from the
        // preceding interval.
        const EnergyModel &energy = scratch.configure(config);
        if (begin >= len)
            warm(decoded, begin - len, begin, scratch);
        const CoreStats stats = replay(decoded, begin, end, scratch);
        timed += stats.instructions;
        cycles_per_interval[point.intervalIndex] =
            static_cast<double>(stats.cycles);
        energy_per_interval[point.intervalIndex] =
            energy.totalEnergyNj(stats.cycles);
    }

    SampledResult result;
    result.metrics = Metrics::fromCyclesEnergy(
        simpointWeightedSum(analysis, cycles_per_interval),
        simpointWeightedSum(analysis, energy_per_interval));
    result.simulatedInstructions = timed;
    result.detailFraction =
        static_cast<double>(timed) / static_cast<double>(trace.size());
    return result;
}

SampledResult
simulateWithSmarts(const MicroarchConfig &config, const Trace &trace,
                   const SmartsOptions &options)
{
    ACDSE_CHECK(options.unitInstructions > 0, "empty measurement unit");
    ACDSE_CHECK(options.samplingPeriod > 0, "sampling period must be >0");
    const std::size_t unit = options.unitInstructions;
    const std::size_t num_units =
        (trace.size() + unit - 1) / unit;

    const DecodedTrace decoded(trace);
    SimScratch scratch;
    EnergyModel &energy = scratch.configure(config);

    double measured_cycles = 0.0;
    double measured_energy = 0.0;
    std::size_t measured_units = 0;
    std::uint64_t timed = 0;

    for (std::size_t u = 0; u < num_units; ++u) {
        const std::size_t begin = u * unit;
        const std::size_t end = std::min(begin + unit, trace.size());
        const bool measure =
            (u % options.samplingPeriod) ==
            (options.offset % options.samplingPeriod);
        if (measure) {
            energy.resetCounts();
            const CoreStats stats = replay(decoded, begin, end, scratch);
            measured_cycles += static_cast<double>(stats.cycles);
            measured_energy += energy.dynamicEnergyNj() +
                               energy.staticEnergyNj(stats.cycles);
            timed += stats.instructions;
            ++measured_units;
        } else {
            // Functional warming only: caches and predictors stay hot,
            // no timing is modelled.
            warm(decoded, begin, end, scratch);
        }
    }
    ACDSE_CHECK(measured_units > 0, "no units were measured");

    // Extrapolate the per-unit averages to the whole trace.
    const double scale = static_cast<double>(num_units) /
                         static_cast<double>(measured_units);
    SampledResult result;
    result.metrics = Metrics::fromCyclesEnergy(measured_cycles * scale,
                                               measured_energy * scale);
    result.simulatedInstructions = timed;
    result.detailFraction =
        static_cast<double>(timed) / static_cast<double>(trace.size());
    return result;
}

} // namespace acdse
