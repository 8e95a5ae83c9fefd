/**
 * @file
 * Performance/energy Pareto frontier for a new program -- the "sweet
 * spot" identification the paper's introduction motivates.
 *
 * Two architecture-centric predictors (cycles and energy) are fitted
 * from the same 32 responses of a new program; the exploration engine
 * then streams a seeded random sweep through both and reduces it to
 * the exact predicted Pareto frontier, which is validated point by
 * point with real simulations.
 */

#include <cstdio>
#include <iostream>
#include <span>
#include <vector>

#include "arch/design_space.hh"
#include "base/table.hh"
#include "bench/bench_common.hh"
#include "core/evaluation.hh"
#include "explore/explorer.hh"
#include "sim/batch.hh"

using namespace acdse;

int
main()
{
    const std::string new_program = "facerec";
    Campaign &campaign = bench::standardCampaign();
    Evaluator evaluator(campaign);
    const std::size_t target = campaign.programIndex(new_program);

    const auto spec = bench::suiteIndices(campaign, Suite::SpecCpu2000);
    std::vector<std::size_t> training;
    for (std::size_t p : spec) {
        if (p != target)
            training.push_back(p);
    }

    // One predictor per objective, sharing the same 32 responses.
    const auto response_idx = sampleIndices(campaign.configs().size(),
                                            bench::kPaperR, 7);
    auto make = [&](Metric metric) {
        ArchitectureCentricPredictor predictor =
            evaluator.makeOfflinePredictor(training, metric,
                                           bench::clampT(campaign),
                                           bench::repeatSeed(0));
        predictor.fitResponses(
            campaign.configsAt(response_idx),
            campaign.metricAt(target, metric, response_idx));
        return predictor;
    };
    ArchitectureCentricPredictor cycles_model = make(Metric::Cycles);
    ArchitectureCentricPredictor energy_model = make(Metric::Energy);

    std::printf("predicting the cycles/energy Pareto frontier of '%s' "
                "from %zu responses...\n\n",
                new_program.c_str(), bench::kPaperR);
    explore::ExploreOptions options;
    options.samples = 8000;
    const std::vector<explore::MetricEnsemble> ensembles{
        {Metric::Cycles, &cycles_model},
        {Metric::Energy, &energy_model}};
    const auto result = explore::explore(ensembles, options);
    const auto &frontier = result.frontier;

    // Validate (up to) 10 evenly-spaced frontier points by simulation,
    // one decoded trace and one set of simulator components for all.
    const std::size_t shown = std::min<std::size_t>(10, frontier.size());
    std::vector<const explore::FrontierConfig *> points;
    std::vector<MicroarchConfig> configs;
    for (std::size_t k = 0; k < shown; ++k) {
        points.push_back(&frontier[k * (frontier.size() - 1) /
                                   std::max<std::size_t>(1, shown - 1)]);
        configs.push_back(points.back()->config);
    }
    SimulationOptions sim_options;
    sim_options.warmupInstructions =
        campaign.options().warmupInstructions;
    const auto simulated =
        simulateBatch(std::span<const MicroarchConfig>(configs),
                      campaign.trace(target), sim_options);

    Table table({"pred cycles", "pred energy (uJ)", "sim cycles",
                 "sim energy (uJ)", "width", "L2 KB"});
    for (std::size_t k = 0; k < shown; ++k) {
        const explore::FrontierConfig &point = *points[k];
        const SimulationResult &real = simulated[k];
        table.addRow({Table::num(point.x, 0),
                      Table::num(point.y / 1000.0, 1),
                      Table::num(real.metrics.cycles, 0),
                      Table::num(real.metrics.energyNj / 1000.0, 1),
                      Table::num((long long)point.config.width()),
                      Table::num(
                          (long long)point.config.get(Param::L2Size))});
    }
    table.print(std::cout);
    std::printf("\nfrontier size: %zu of 8000 swept configurations\n",
                frontier.size());
    std::printf("Moving down the frontier trades performance for "
                "energy: narrow, small-L2\nmachines populate the "
                "low-energy end, wide large-window machines the\n"
                "high-performance end (cf. paper Figs. 2 and 3).\n");
    return 0;
}
