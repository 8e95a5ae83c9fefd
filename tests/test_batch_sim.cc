/**
 * @file
 * Bit-identity contract of the decoded-trace simulator replay
 * (sim/batch.hh): for every batch size and warmup setting, the
 * batched path must reproduce the scalar path's results EXACTLY --
 * EXPECT_EQ on the doubles, not EXPECT_NEAR. Both paths run the same
 * operation sequence per configuration, so any divergence is a
 * transcription bug, not rounding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "arch/design_space.hh"
#include "base/binary_io.hh"
#include "base/thread_pool.hh"
#include "sim/batch.hh"
#include "sim/cacti.hh"
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

void
expectIdentical(const SimulationResult &batched,
                const SimulationResult &scalar)
{
    // All four campaign metrics, exactly.
    EXPECT_EQ(batched.metrics.cycles, scalar.metrics.cycles);
    EXPECT_EQ(batched.metrics.energyNj, scalar.metrics.energyNj);
    EXPECT_EQ(batched.metrics.ed, scalar.metrics.ed);
    EXPECT_EQ(batched.metrics.edd, scalar.metrics.edd);
    EXPECT_EQ(batched.dynamicNj, scalar.dynamicNj);
    EXPECT_EQ(batched.staticNj, scalar.staticNj);
    // Every timing statistic the core reports.
    EXPECT_EQ(batched.stats.cycles, scalar.stats.cycles);
    EXPECT_EQ(batched.stats.instructions, scalar.stats.instructions);
    EXPECT_EQ(batched.stats.branches, scalar.stats.branches);
    EXPECT_EQ(batched.stats.mispredicts, scalar.stats.mispredicts);
    EXPECT_EQ(batched.stats.btbMisses, scalar.stats.btbMisses);
    EXPECT_EQ(batched.stats.il1Misses, scalar.stats.il1Misses);
    EXPECT_EQ(batched.stats.dl1Misses, scalar.stats.dl1Misses);
    EXPECT_EQ(batched.stats.l2Misses, scalar.stats.l2Misses);
    EXPECT_EQ(batched.stats.dispatchStallRob,
              scalar.stats.dispatchStallRob);
    EXPECT_EQ(batched.stats.dispatchStallIq,
              scalar.stats.dispatchStallIq);
    EXPECT_EQ(batched.stats.dispatchStallLsq,
              scalar.stats.dispatchStallLsq);
    EXPECT_EQ(batched.stats.dispatchStallRegs,
              scalar.stats.dispatchStallRegs);
    EXPECT_EQ(batched.stats.fetchStallBranches,
              scalar.stats.fetchStallBranches);
}

// A lone config, and batches of 7, 8 and 9 configurations that reuse
// one scratch from each configuration to the next.
class BatchSimSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BatchSimSizes, BitIdenticalToScalar)
{
    const std::size_t batch = GetParam();
    const Trace trace = makeTrace("gcc", 8000);
    const auto configs =
        DesignSpace::sampleValidConfigs(batch, 1234 + batch);

    for (const std::size_t warmup : {std::size_t{0}, std::size_t{2000}}) {
        SimulationOptions options;
        options.warmupInstructions = warmup;
        const auto batched = simulateBatch(
            std::span<const MicroarchConfig>(configs), trace, options);
        ASSERT_EQ(batched.size(), configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) {
            SCOPED_TRACE(::testing::Message()
                         << "config " << i << " warmup " << warmup);
            expectIdentical(batched[i],
                            simulate(configs[i], trace, options));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AroundLaneCount, BatchSimSizes,
                         ::testing::Values(1, 7, 8, 9));

TEST(BatchSim, ScratchReuseAcrossTracesAndBatches)
{
    // One scratch serves different traces and different configs in
    // sequence; reconfigure/epoch-reset must leave no residue from
    // earlier batches (this is exactly how campaign workers use it).
    SimScratch scratch;
    SimulationOptions options;
    options.warmupInstructions = 1000;

    for (const char *program : {"gcc", "mcf", "equake"}) {
        const Trace trace = makeTrace(program, 6000);
        const DecodedTrace decoded(trace);
        const auto configs = DesignSpace::sampleValidConfigs(
            8, 17 + static_cast<unsigned>(program[0]));
        std::vector<SimulationResult> batched(configs.size());
        simulateBatch(std::span<const MicroarchConfig>(configs),
                      decoded, options,
                      std::span<SimulationResult>(batched), scratch);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            SCOPED_TRACE(::testing::Message()
                         << program << " config " << i);
            expectIdentical(batched[i],
                            simulate(configs[i], trace, options));
        }
    }
}

/** Append every SimulationResult field, in declaration order. */
void
appendResult(BinaryWriter &w, const SimulationResult &r)
{
    w.f64(r.metrics.cycles);
    w.f64(r.metrics.energyNj);
    w.f64(r.metrics.ed);
    w.f64(r.metrics.edd);
    w.f64(r.dynamicNj);
    w.f64(r.staticNj);
    const CoreStats &s = r.stats;
    for (const std::uint64_t v :
         {s.cycles, s.instructions, s.branches, s.mispredicts,
          s.btbMisses, s.il1Misses, s.dl1Misses, s.l2Misses,
          s.dispatchStallRob, s.dispatchStallIq, s.dispatchStallLsq,
          s.dispatchStallRegs, s.fetchStallBranches})
        w.u64(v);
}

// Golden fingerprint of the decoded replay: every field of every result
// for three programs x nine configurations, with and without warm-up.
// The value was recorded with the earlier eight-lane engine, so it
// also pins this engine to that one. Any change to the pipeline's
// timing, stall accounting or energy events moves it.
TEST(BatchSimGolden, ThreeProgramsNineConfigs)
{
    const auto configs = DesignSpace::sampleValidConfigs(9, 2024);
    BinaryWriter w;
    for (const char *program : {"gcc", "mcf", "art"}) {
        const Trace trace = makeTrace(program, 8000);
        for (const std::size_t warmup :
             {std::size_t{0}, std::size_t{2000}}) {
            SimulationOptions options;
            options.warmupInstructions = warmup;
            for (const SimulationResult &r : simulateBatch(
                     std::span<const MicroarchConfig>(configs), trace,
                     options))
                appendResult(w, r);
        }
    }
    EXPECT_EQ(fnv1a64(w.buffer()), 0x5941ede001a58db7ULL);
}

TEST(BatchSim, CactiMemoisationServesRepeatedGeometry)
{
    const CactiMemoStats before = cactiMemoStats();
    // Same geometry twice: the second round must be all hits.
    (void)estimateCache(32768, 2, 32, 1);
    (void)estimateCache(32768, 2, 32, 1);
    const CactiMemoStats after = cactiMemoStats();
    EXPECT_GE(after.hits, before.hits + 1);
    // And memoisation must not change values.
    const ArrayEstimate a = estimateCache(16384, 4, 32, 1);
    const ArrayEstimate b = estimateCache(16384, 4, 32, 1);
    EXPECT_EQ(a.readEnergyNj, b.readEnergyNj);
    EXPECT_EQ(a.writeEnergyNj, b.writeEnergyNj);
    EXPECT_EQ(a.leakageNjPerCycle, b.leakageNjPerCycle);
    EXPECT_EQ(a.latencyCycles, b.latencyCycles);
}

// TSan-facing: concurrent batches share one immutable DecodedTrace
// and the process-wide cacti memo table; each worker owns its scratch.
// Run under ACDSE_SANITIZE=thread by the CI thread-safety job (suite
// name is matched by the BatchSim regex in ci.yml).
TEST(BatchSimConcurrency, ParallelBatchesShareDecodedTrace)
{
    const Trace trace = makeTrace("vpr", 6000);
    const DecodedTrace decoded(trace);
    const auto configs = DesignSpace::sampleValidConfigs(24, 7);
    SimulationOptions options;
    options.warmupInstructions = 1000;

    ThreadPool pool(4);
    std::vector<SimulationResult> batched(configs.size());
    constexpr std::size_t kGroup = 8;
    pool.parallelFor(0, (configs.size() + kGroup - 1) / kGroup,
                     [&](std::size_t g) {
                         SimScratch scratch;
                         const std::size_t first = g * kGroup;
                         const std::size_t n = std::min(
                             kGroup, configs.size() - first);
                         simulateBatch(
                             std::span<const MicroarchConfig>(
                                 configs.data() + first, n),
                             decoded, options,
                             std::span<SimulationResult>(
                                 batched.data() + first, n),
                             scratch);
                     });
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "config " << i);
        expectIdentical(batched[i],
                        simulate(configs[i], trace, options));
    }
}

} // namespace
} // namespace acdse
