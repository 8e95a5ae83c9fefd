/**
 * @file
 * google-benchmark microbenchmarks of the substrate: simulator
 * throughput, trace generation, cache/predictor hot paths, and the ML
 * kernels. These guard the practicality of the campaign (36,000
 * simulations must stay minutes, not hours).
 */

#include <benchmark/benchmark.h>

#include <span>

#include "arch/design_space.hh"
#include "base/rng.hh"
#include "core/program_specific_predictor.hh"
#include "ml/kmeans.hh"
#include "ml/linear_regression.hh"
#include "sim/batch.hh"
#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/simulator.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

namespace acdse
{
namespace
{

void
BM_TraceGeneration(benchmark::State &state)
{
    const TraceGenerator generator(profileByName("gzip"));
    const auto length = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        Trace trace = generator.generate(length);
        benchmark::DoNotOptimize(trace.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * static_cast<std::int64_t>(length)));
}
BENCHMARK(BM_TraceGeneration)->Arg(4000)->Arg(16000);

void
BM_SimulateBaseline(benchmark::State &state)
{
    const char *names[] = {"gzip", "swim", "crc32"};
    const Trace trace = TraceGenerator(
        profileByName(names[state.range(0)])).generate(8000);
    const DecodedTrace decoded(trace);
    const MicroarchConfig config = DesignSpace::baseline();
    const SimulationOptions options;
    SimScratch scratch;
    SimulationResult result;
    for (auto _ : state) {
        simulateBatch(std::span<const MicroarchConfig>(&config, 1),
                      decoded, options,
                      std::span<SimulationResult>(&result, 1), scratch);
        benchmark::DoNotOptimize(result.metrics.cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 8000));
}
BENCHMARK(BM_SimulateBaseline)->Arg(0)->Arg(1)->Arg(2);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(32 * 1024, 4, 32);
    Rng rng(1);
    std::vector<std::uint64_t> addrs(4096);
    for (auto &a : addrs)
        a = rng.nextBounded(256 * 1024);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addrs[i++ & 4095], false).hit);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess);

void
BM_GsharePredict(benchmark::State &state)
{
    GsharePredictor bpred(16 * 1024);
    Rng rng(2);
    std::uint64_t pc = 0x400000;
    for (auto _ : state) {
        const bool taken = rng.nextBool(0.6);
        benchmark::DoNotOptimize(bpred.predict(pc));
        bpred.update(pc, taken);
        pc = 0x400000 + (rng.next() & 0xfff);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GsharePredict);

void
BM_MlpTrain(benchmark::State &state)
{
    const auto t = static_cast<std::size_t>(state.range(0));
    const auto configs = DesignSpace::sampleValidConfigs(t, 3);
    std::vector<double> ys;
    for (const auto &c : configs)
        ys.push_back(1e6 / c.width() + 1e4 * c.robSize());
    for (auto _ : state) {
        ProgramSpecificPredictor model;
        model.train(configs, ys);
        benchmark::DoNotOptimize(
            model.predict(DesignSpace::baseline()));
    }
}
BENCHMARK(BM_MlpTrain)->Arg(32)->Arg(512)->Unit(benchmark::kMillisecond);

void
BM_LinearRegressionFit(benchmark::State &state)
{
    Rng rng(4);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 32; ++i) { // the R = 32 regime
        std::vector<double> x(25); // 25 training-program features
        for (auto &v : x)
            v = rng.nextGaussian();
        ys.push_back(x[0] - x[3]);
        xs.push_back(std::move(x));
    }
    for (auto _ : state) {
        LinearRegression model;
        model.fit(xs, ys, 2e-2);
        benchmark::DoNotOptimize(model.weights().size());
    }
}
BENCHMARK(BM_LinearRegressionFit);

void
BM_Kmeans(benchmark::State &state)
{
    Rng rng(5);
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 256; ++i) {
        std::vector<double> p(16);
        for (auto &v : p)
            v = rng.nextGaussian();
        points.push_back(std::move(p));
    }
    for (auto _ : state) {
        const KmeansResult result = kmeans(points, 30, 6);
        benchmark::DoNotOptimize(result.inertia);
    }
}
BENCHMARK(BM_Kmeans);

} // namespace
} // namespace acdse

BENCHMARK_MAIN();
