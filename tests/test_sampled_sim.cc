/**
 * @file
 * Tests for the SimPoint- and SMARTS-style sampled-simulation
 * methodologies (paper Section 9.2): both must approximate full
 * simulation while timing only a fraction of the instructions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "arch/design_space.hh"
#include "base/binary_io.hh"
#include "base/statistics.hh"
#include "sim/batch.hh"
#include "sim/sampled_sim.hh"
#include "sim/simulator.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

namespace acdse
{
namespace
{

Trace
makeTrace(const std::string &name, std::size_t length)
{
    return TraceGenerator(profileByName(name)).generate(length);
}

double
relError(double estimate, double truth)
{
    return std::abs(estimate - truth) / truth;
}

class SampledSimAccuracy
    : public ::testing::TestWithParam<const char *>
{
};

// At our reduced trace scale, sampled estimates carry visible
// phase-sampling variance (cold-start ramps are a large fraction of a
// 24k-instruction trace). What design-space exploration needs is that
// sampled simulation *ranks configurations* like full simulation and
// lands in the right magnitude band, which is what we assert.

TEST_P(SampledSimAccuracy, SimPointTracksFullSimulation)
{
    const Trace trace = makeTrace(GetParam(), 24000);
    const auto configs = DesignSpace::sampleValidConfigs(6, 77);

    SimPointOptions options;
    options.intervalLength = 2000;
    options.maxClusters = 6;

    std::vector<double> full_cycles, sampled_cycles;
    double worst_rel = 0.0;
    for (const auto &config : configs) {
        const SimulationResult full = simulate(config, trace);
        const SampledResult sampled =
            simulateWithSimPoints(config, trace, options);
        full_cycles.push_back(full.metrics.cycles);
        sampled_cycles.push_back(sampled.metrics.cycles);
        worst_rel = std::max(worst_rel,
                             relError(sampled.metrics.cycles,
                                      full.metrics.cycles));
        EXPECT_LT(sampled.detailFraction, 0.75) << GetParam();
    }
    EXPECT_GT(stats::correlation(sampled_cycles, full_cycles), 0.85)
        << GetParam();
    EXPECT_LT(worst_rel, 0.8) << GetParam();
}

TEST_P(SampledSimAccuracy, SmartsTracksFullSimulation)
{
    const Trace trace = makeTrace(GetParam(), 24000);
    const auto configs = DesignSpace::sampleValidConfigs(6, 78);

    SmartsOptions options;
    options.unitInstructions = 500;
    options.samplingPeriod = 4;

    std::vector<double> full_cycles, sampled_cycles;
    double worst_rel = 0.0;
    for (const auto &config : configs) {
        const SimulationResult full = simulate(config, trace);
        const SampledResult sampled =
            simulateWithSmarts(config, trace, options);
        full_cycles.push_back(full.metrics.cycles);
        sampled_cycles.push_back(sampled.metrics.cycles);
        worst_rel = std::max(worst_rel,
                             relError(sampled.metrics.cycles,
                                      full.metrics.cycles));
        EXPECT_NEAR(sampled.detailFraction, 0.25, 0.05) << GetParam();
    }
    EXPECT_GT(stats::correlation(sampled_cycles, full_cycles), 0.85)
        << GetParam();
    EXPECT_LT(worst_rel, 0.8) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Programs, SampledSimAccuracy,
                         ::testing::Values("gzip", "parser", "galgel",
                                           "crc32"));

TEST(SampledSim, SimPointTimesOnlyRepresentatives)
{
    const Trace trace = makeTrace("gcc", 20000);
    SimPointOptions options;
    options.intervalLength = 1000;
    options.maxClusters = 5;
    const SampledResult sampled = simulateWithSimPoints(
        DesignSpace::baseline(), trace, options);
    // At most 5 representative intervals of 1000 instructions.
    EXPECT_LE(sampled.simulatedInstructions, 5000u);
    EXPECT_GT(sampled.metrics.cycles, 0.0);
}

TEST(SampledSim, SmartsDenserSamplingIsCloser)
{
    const Trace trace = makeTrace("twolf", 24000);
    const MicroarchConfig config = DesignSpace::baseline();
    const SimulationResult full = simulate(config, trace);

    SmartsOptions sparse;
    sparse.samplingPeriod = 12;
    SmartsOptions dense;
    dense.samplingPeriod = 2;
    const double sparse_err = relError(
        simulateWithSmarts(config, trace, sparse).metrics.cycles,
        full.metrics.cycles);
    const double dense_err = relError(
        simulateWithSmarts(config, trace, dense).metrics.cycles,
        full.metrics.cycles);
    // Denser sampling must not be (much) worse.
    EXPECT_LT(dense_err, sparse_err + 0.05);
}

TEST(SampledSim, SmartsOffsetChangesUnits)
{
    const Trace trace = makeTrace("gap", 16000);
    const MicroarchConfig config = DesignSpace::baseline();
    SmartsOptions a, b;
    a.offset = 0;
    b.offset = 3;
    const SampledResult ra = simulateWithSmarts(config, trace, a);
    const SampledResult rb = simulateWithSmarts(config, trace, b);
    EXPECT_NE(ra.metrics.cycles, rb.metrics.cycles);
}

/** Append every SampledResult field, in declaration order. */
void
appendSampled(BinaryWriter &w, const SampledResult &r)
{
    w.f64(r.metrics.cycles);
    w.f64(r.metrics.energyNj);
    w.f64(r.metrics.ed);
    w.f64(r.metrics.edd);
    w.u64(r.simulatedInstructions);
    w.f64(r.detailFraction);
}

// Golden fingerprint of the sampled estimators and of interval
// simulation: SimPoint and two SMARTS settings, plus one run that warms
// the first fifth of the trace functionally and times the rest (the
// energy_breakdown pattern), hashing its 13 CoreStats counters and
// every energy-event count. Three programs x four configurations. Any
// change to functional warming, interval timing or the estimators'
// arithmetic moves it. The value was recorded with the earlier scalar
// core, so it also pins the engine's interval API to that one.
TEST(SampledSimGolden, ThreeProgramsFourConfigs)
{
    const auto configs = DesignSpace::sampleValidConfigs(4, 909);
    SimPointOptions simpoint;
    simpoint.intervalLength = 1000;
    simpoint.maxClusters = 5;
    SmartsOptions every_fourth;
    every_fourth.unitInstructions = 500;
    every_fourth.samplingPeriod = 4;
    SmartsOptions sparse_offset;
    sparse_offset.unitInstructions = 250;
    sparse_offset.samplingPeriod = 8;
    sparse_offset.offset = 3;

    BinaryWriter w;
    for (const char *program : {"gcc", "mcf", "art"}) {
        const Trace trace = makeTrace(program, 12000);
        for (const MicroarchConfig &config : configs) {
            appendSampled(w,
                          simulateWithSimPoints(config, trace, simpoint));
            appendSampled(w,
                          simulateWithSmarts(config, trace, every_fourth));
            appendSampled(w,
                          simulateWithSmarts(config, trace, sparse_offset));

            const DecodedTrace decoded(trace);
            SimScratch scratch;
            const EnergyModel &energy = scratch.configure(config);
            warm(decoded, 0, trace.size() / 5, scratch);
            const CoreStats s =
                replay(decoded, trace.size() / 5, trace.size(), scratch);
            for (const std::uint64_t v :
                 {s.cycles, s.instructions, s.branches, s.mispredicts,
                  s.btbMisses, s.il1Misses, s.dl1Misses, s.l2Misses,
                  s.dispatchStallRob, s.dispatchStallIq,
                  s.dispatchStallLsq, s.dispatchStallRegs,
                  s.fetchStallBranches})
                w.u64(v);
            for (std::size_t e = 0; e < kNumEnergyEvents; ++e)
                w.u64(energy.count(static_cast<EnergyEvent>(e)));
        }
    }
    EXPECT_EQ(fnv1a64(w.buffer()), 0xf0b3137142eeba03ULL);
}

TEST(SampledSimDeathTest, RejectsZeroUnit)
{
    const Trace trace = makeTrace("gap", 2000);
    SmartsOptions options;
    options.unitInstructions = 0;
    EXPECT_DEATH(
        simulateWithSmarts(DesignSpace::baseline(), trace, options),
        "empty measurement unit");
}

} // namespace
} // namespace acdse
