/**
 * @file
 * Bit-identity contract of the simulator engine (sim/batch.hh): for
 * every batch size and warmup setting, and with one scratch reused
 * across traces, batches and threads, the engine must reproduce the
 * plain cycle-by-cycle reference loop (reference_sim.hh) EXACTLY --
 * EXPECT_EQ on the doubles, not EXPECT_NEAR. Both run the same
 * operation sequence per configuration, so any divergence is a bug in
 * the engine's shortcuts, not rounding. simulate() is the engine too,
 * so it is no oracle here; the golden digest pins the engine's output
 * on fixed inputs as well.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "arch/design_space.hh"
#include "base/binary_io.hh"
#include "base/thread_pool.hh"
#include "obs/metrics.hh"
#include "reference_sim.hh"
#include "sim/batch.hh"
#include "sim/cacti.hh"
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
                const SimulationResult &reference)
{
    // All four campaign metrics, exactly.
    EXPECT_EQ(batched.metrics.cycles, reference.metrics.cycles);
    EXPECT_EQ(batched.metrics.energyNj, reference.metrics.energyNj);
    EXPECT_EQ(batched.metrics.ed, reference.metrics.ed);
    EXPECT_EQ(batched.metrics.edd, reference.metrics.edd);
    EXPECT_EQ(batched.dynamicNj, reference.dynamicNj);
    EXPECT_EQ(batched.staticNj, reference.staticNj);
    // Every timing statistic the core reports.
    EXPECT_EQ(batched.stats.cycles, reference.stats.cycles);
    EXPECT_EQ(batched.stats.instructions, reference.stats.instructions);
    EXPECT_EQ(batched.stats.branches, reference.stats.branches);
    EXPECT_EQ(batched.stats.mispredicts, reference.stats.mispredicts);
    EXPECT_EQ(batched.stats.btbMisses, reference.stats.btbMisses);
    EXPECT_EQ(batched.stats.il1Misses, reference.stats.il1Misses);
    EXPECT_EQ(batched.stats.dl1Misses, reference.stats.dl1Misses);
    EXPECT_EQ(batched.stats.l2Misses, reference.stats.l2Misses);
    EXPECT_EQ(batched.stats.dispatchStallRob,
              reference.stats.dispatchStallRob);
    EXPECT_EQ(batched.stats.dispatchStallIq,
              reference.stats.dispatchStallIq);
    EXPECT_EQ(batched.stats.dispatchStallLsq,
              reference.stats.dispatchStallLsq);
    EXPECT_EQ(batched.stats.dispatchStallRegs,
              reference.stats.dispatchStallRegs);
    EXPECT_EQ(batched.stats.fetchStallBranches,
              reference.stats.fetchStallBranches);
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
                            referenceSimulate(configs[i], trace, options));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AroundLaneCount, BatchSimSizes,
                         ::testing::Values(1, 7, 8, 9));

/**
 * Valid configurations at the extremes of the parameters the issue
 * stage reads: width 2/8 (issue width and functional units, one or two
 * FP dividers), read ports 2/16, write ports 1/8, IQ 8/80, ROB 32/160
 * (one or four 64-slot words of the ready mask) and in-flight branches
 * 8/32. LSQ, register file and D-cache alternate between their
 * smallest and largest sizes so the dispatch stalls and load latencies
 * vary as well.
 */
std::vector<MicroarchConfig>
cornerConfigs()
{
    std::vector<MicroarchConfig> configs;
    for (const int width : {2, 8})
        for (const int read : {2, 16})
            for (const int write : {1, 8})
                for (const int iq : {8, 80})
                    for (const int rob : {32, 160})
                        for (const int branches : {8, 32}) {
                            MicroarchConfig c;
                            c.set(Param::Width, width);
                            c.set(Param::RfReadPorts, read);
                            c.set(Param::RfWritePorts, write);
                            c.set(Param::IqSize, iq);
                            c.set(Param::RobSize, rob);
                            c.set(Param::MaxBranches, branches);
                            const bool small = configs.size() % 2 == 0;
                            c.set(Param::LsqSize, small ? 8 : 32);
                            c.set(Param::RfSize, small ? 40 : 160);
                            c.set(Param::Dl1Size, small ? 8 : 128);
                            if (DesignSpace::isValid(c))
                                configs.push_back(c);
                        }
    return configs;
}

// The engine's event-driven issue against the reference's IQ scan on
// the extreme configurations, for integer, memory-bound and
// divide-heavy programs (applu, sixtrack and basicmath have the largest
// FP-divide shares), with and without warm-up.
class BatchSimCorners : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BatchSimCorners, ExtremeConfigsMatchReference)
{
    const auto configs = cornerConfigs();
    ASSERT_EQ(configs.size(), 36u);
    const Trace trace = makeTrace(GetParam(), 4000);
    const DecodedTrace decoded(trace);
    SimScratch scratch;
    std::vector<SimulationResult> batched(configs.size());
    for (const std::size_t warmup : {std::size_t{0}, std::size_t{2000}}) {
        SimulationOptions options;
        options.warmupInstructions = warmup;
        simulateBatch(std::span<const MicroarchConfig>(configs), decoded,
                      options, std::span<SimulationResult>(batched),
                      scratch);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            SCOPED_TRACE(::testing::Message()
                         << configs[i].key() << " warmup " << warmup);
            expectIdentical(batched[i],
                            referenceSimulate(configs[i], trace, options));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Programs, BatchSimCorners,
                         ::testing::Values("gcc", "mcf", "applu",
                                           "sixtrack", "basicmath"));

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
                            referenceSimulate(configs[i], trace, options));
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

// simulateBatch() adds the batch's summed CoreStats events to the
// sim/... obs counters, once per call; without obs they stay at zero.
TEST(BatchSimCounters, DeltasEqualSummedStats)
{
    const Trace trace = makeTrace("mcf", 4000);
    const auto configs = DesignSpace::sampleValidConfigs(5, 77);
    const std::pair<const char *, std::uint64_t CoreStats::*> events[] = {
        {"sim/instructions", &CoreStats::instructions},
        {"sim/il1-misses", &CoreStats::il1Misses},
        {"sim/dl1-misses", &CoreStats::dl1Misses},
        {"sim/l2-misses", &CoreStats::l2Misses},
        {"sim/mispredicts", &CoreStats::mispredicts},
        {"sim/btb-misses", &CoreStats::btbMisses},
        {"sim/stall-rob", &CoreStats::dispatchStallRob},
        {"sim/stall-iq", &CoreStats::dispatchStallIq},
        {"sim/stall-lsq", &CoreStats::dispatchStallLsq},
        {"sim/stall-regs", &CoreStats::dispatchStallRegs},
        {"sim/stall-branches", &CoreStats::fetchStallBranches},
    };
    obs::Registry &registry = obs::Registry::global();
    std::vector<std::uint64_t> before;
    for (const auto &[name, field] : events)
        before.push_back(registry.counter(name).value());

    const auto results =
        simulateBatch(std::span<const MicroarchConfig>(configs), trace);

    for (std::size_t e = 0; e < std::size(events); ++e) {
        const auto &[name, field] = events[e];
        std::uint64_t sum = 0;
        for (const SimulationResult &r : results)
            sum += r.stats.*field;
        SCOPED_TRACE(name);
        if (obs::kEnabled) {
            EXPECT_GT(sum, 0u);
            EXPECT_EQ(registry.counter(name).value() - before[e], sum);
        } else {
            EXPECT_EQ(registry.counter(name).value(), 0u);
        }
    }
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
                        referenceSimulate(configs[i], trace, options));
    }
}

} // namespace
} // namespace acdse
