/**
 * @file
 * Design-space exploration -- the paper's motivating use case.
 *
 * An architect wants the best EDD (efficiency) configuration for a new
 * program. Simulating the whole space is impossible; instead we:
 *
 *  1. train the architecture-centric model offline (shared campaign),
 *  2. take 32 responses of the new program,
 *  3. *predict* a large random sweep of the design space,
 *  4. validate the predicted-best configurations with real simulations
 *     and compare them against the baseline and random configurations.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <span>

#include "arch/design_space.hh"
#include "base/statistics.hh"
#include "bench/bench_common.hh"
#include "core/evaluation.hh"
#include "sim/batch.hh"

using namespace acdse;

int
main()
{
    const Metric metric = Metric::Edd;
    const std::string new_program = "equake";

    Campaign &campaign = bench::standardCampaign();
    Evaluator evaluator(campaign);
    const std::size_t target = campaign.programIndex(new_program);

    // Offline model from every other SPEC program.
    const auto spec = bench::suiteIndices(campaign, Suite::SpecCpu2000);
    std::vector<std::size_t> training;
    for (std::size_t p : spec) {
        if (p != target)
            training.push_back(p);
    }
    ArchitectureCentricPredictor predictor =
        evaluator.makeOfflinePredictor(
            training, metric, bench::clampT(campaign),
            bench::repeatSeed(0));

    // 32 responses of the new program.
    const auto response_idx = sampleIndices(campaign.configs().size(),
                                            bench::kPaperR, 42);
    predictor.fitResponses(
        campaign.configsAt(response_idx),
        campaign.metricAt(target, metric, response_idx));
    std::printf("fitted '%s' with %zu responses (training error "
                "%.1f%%)\n\n",
                new_program.c_str(), bench::kPaperR,
                predictor.trainingErrorPercent());

    // Sweep a fresh slice of the space -- configurations never
    // simulated for any program.
    const std::size_t sweep_size = 20000;
    const auto sweep =
        DesignSpace::sampleValidConfigs(sweep_size, 0xdeed'5eedULL);
    std::vector<double> predicted(sweep.size());
    for (std::size_t i = 0; i < sweep.size(); ++i)
        predicted[i] = predictor.predict(sweep[i]);

    std::vector<std::size_t> order(sweep.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return predicted[a] < predicted[b];
              });

    // Validate the predicted top-5 with real simulations, and
    // simulate the baseline as a reference point: one decoded trace
    // and one set of simulator components for all six.
    std::vector<MicroarchConfig> validate;
    for (std::size_t k = 0; k < 5; ++k)
        validate.push_back(sweep[order[k]]);
    validate.push_back(DesignSpace::baseline());
    SimulationOptions sim_options;
    sim_options.warmupInstructions =
        campaign.options().warmupInstructions;
    const auto simulated =
        simulateBatch(std::span<const MicroarchConfig>(validate),
                      campaign.trace(target), sim_options);
    std::printf("predicted-best configurations (of %zu swept), "
                "validated by simulation:\n",
                sweep_size);
    double best_found = 1e300;
    for (std::size_t k = 0; k < 5; ++k) {
        const MicroarchConfig &config = validate[k];
        const double actual = simulated[k].metrics.get(metric);
        best_found = std::min(best_found, actual);
        std::printf("  #%zu  predicted %.3e  simulated %.3e   "
                    "width=%d rob=%d rf=%d l2=%dKB\n",
                    k + 1, predicted[order[k]], actual, config.width(),
                    config.robSize(), config.rfSize(),
                    config.get(Param::L2Size));
    }

    // Reference points: the baseline and the sampled-campaign optimum.
    const double baseline = simulated[5].metrics.get(metric);
    const auto row = campaign.metricRow(target, metric);
    const double campaign_best = *std::min_element(row.begin(),
                                                   row.end());
    std::printf("\nbaseline architecture %s      : %.3e\n",
                metricName(metric), baseline);
    std::printf("best of %zu random simulations : %.3e\n",
                row.size(), campaign_best);
    std::printf("best found via predictor (+5 sims): %.3e  (%.1f%% vs "
                "baseline)\n",
                best_found, 100.0 * (best_found - baseline) / baseline);
    std::printf("\nWith %zu + 5 simulations of the new program the "
                "predictor located a\nconfiguration competitive with "
                "exhaustively simulating %zu random points.\n",
                bench::kPaperR, row.size());
    return 0;
}
