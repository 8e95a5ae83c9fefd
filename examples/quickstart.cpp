/**
 * @file
 * Quickstart: the whole library in one small program.
 *
 * 1. Generate synthetic workloads for a few training benchmarks.
 * 2. Simulate each on a set of sampled configurations (the offline
 *    training data).
 * 3. Train the architecture-centric predictor.
 * 4. Take a *new* program, run only 32 simulations of it (the
 *    "responses"), and predict its whole design space.
 *
 * Everything is self-contained and runs in a few seconds; the bench/
 * binaries do the same at paper scale using the shared campaign cache.
 */

#include <cstdio>
#include <span>

#include "arch/design_space.hh"
#include "base/statistics.hh"
#include "core/architecture_centric_predictor.hh"
#include "sim/batch.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

using namespace acdse;

namespace
{

/**
 * Simulate one program on a list of configurations: one decoded trace
 * and one set of simulator components serve them all.
 */
std::vector<double>
simulateAll(const std::string &program,
            const std::vector<MicroarchConfig> &configs, Metric metric)
{
    const Trace trace = TraceGenerator(profileByName(program))
                            .generate(8000);
    SimulationOptions options;
    options.warmupInstructions = 2000;
    std::vector<double> values;
    values.reserve(configs.size());
    for (const SimulationResult &result : simulateBatch(
             std::span<const MicroarchConfig>(configs), trace, options))
        values.push_back(result.metrics.get(metric));
    return values;
}

} // namespace

int
main()
{
    const Metric metric = Metric::Cycles;

    // --- Offline phase: train on a handful of known benchmarks -------
    const std::vector<std::string> training_programs{
        "gzip", "crafty", "swim", "mesa", "twolf"};
    const auto training_configs = DesignSpace::sampleValidConfigs(96, 1);
    std::printf("offline: simulating %zu configs for %zu training "
                "programs...\n",
                training_configs.size(), training_programs.size());

    std::vector<ProgramTrainingSet> sets;
    for (const auto &name : training_programs) {
        ProgramTrainingSet set;
        set.name = name;
        set.configs = training_configs;
        set.values = simulateAll(name, training_configs, metric);
        sets.push_back(std::move(set));
    }
    ArchitectureCentricPredictor predictor;
    predictor.trainOffline(sets);
    std::printf("offline: trained %zu program-specific ANNs\n\n",
                predictor.trainingPrograms().size());

    // --- Online phase: a NEW program, never seen before --------------
    const std::string new_program = "vpr";
    const auto response_configs = DesignSpace::sampleValidConfigs(32, 2);
    std::printf("online: running just %zu simulations of new program "
                "'%s' (the responses)\n",
                response_configs.size(), new_program.c_str());
    const auto responses =
        simulateAll(new_program, response_configs, metric);
    predictor.fitResponses(response_configs, responses);
    std::printf("online: fitted linear combination, training error "
                "%.1f%%\n\n",
                predictor.trainingErrorPercent());

    // --- Validate: predict unseen configurations ----------------------
    const auto test_configs = DesignSpace::sampleValidConfigs(40, 3);
    const auto actual = simulateAll(new_program, test_configs, metric);
    std::vector<double> predicted;
    for (const auto &config : test_configs)
        predicted.push_back(predictor.predict(config));

    std::printf("validation on 40 unseen configurations of '%s':\n",
                new_program.c_str());
    std::printf("  rmae        = %.1f%%\n",
                stats::rmae(predicted, actual));
    std::printf("  correlation = %.3f\n",
                stats::correlation(predicted, actual));
    std::printf("\nfirst five predictions vs simulations (%s):\n",
                metricName(metric));
    for (int i = 0; i < 5; ++i) {
        std::printf("  config %d: predicted %.0f, simulated %.0f\n", i,
                    predicted[static_cast<std::size_t>(i)],
                    actual[static_cast<std::size_t>(i)]);
    }
    std::printf("\nThe predictor can now rank any of the ~41 billion "
                "valid configurations\nfor '%s' without further "
                "simulation.\n",
                new_program.c_str());
    return 0;
}
