/**
 * @file
 * train_then_serve: the end-to-end offline/online split, as a tool.
 *
 * 1. Train: run a simulation campaign over a set of training programs
 *    (T configurations each) plus one target program, train the
 *    architecture-centric predictor for every metric, and fit the
 *    target's responses (R cheap simulations).
 * 2. Persist: save everything as one model artifact.
 * 3. Serve: reload the artifact in this same process exactly the way a
 *    fresh server would, verify the loaded predictors are bit-identical
 *    to the trained ones, and serve a held-out evaluation batch through
 *    the PredictionService, reporting accuracy and throughput.
 *
 * The artifact this writes is directly consumable by acdse-serve:
 *
 *   train_then_serve --out vpr.acdse --target vpr
 *   ... generate query rows ...
 *   acdse-serve --model vpr.acdse --input queries.csv
 *
 * Campaign scale honours the usual ACDSE_* environment knobs; without
 * them a reduced default keeps this tool interactive (~a minute).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/parse.hh"
#include "base/statistics.hh"
#include "core/campaign.hh"
#include "obs/stats_export.hh"
#include "serve/prediction_service.hh"

using namespace acdse;

namespace
{

struct CliOptions
{
    std::string outPath = "trained.acdse";
    std::string target = "vpr";
    std::vector<std::string> trainingPrograms{
        "gzip", "crafty", "swim", "mesa", "twolf", "mcf", "equake",
        "ammp"};
    std::size_t trainSims = 128; //!< T: simulations per training program
    std::size_t responses = 32;  //!< R: simulations of the target
    std::string statsOut; //!< acdse-stats-v1 dump path (empty = none)
};

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::string item;
    for (char c : list) {
        if (c == ',') {
            if (!item.empty())
                out.push_back(item);
            item.clear();
        } else {
            item.push_back(c);
        }
    }
    if (!item.empty())
        out.push_back(item);
    return out;
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions options;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("missing value after ", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out")) {
            options.outPath = value(i);
        } else if (!std::strcmp(argv[i], "--target")) {
            options.target = value(i);
        } else if (!std::strcmp(argv[i], "--train-programs")) {
            options.trainingPrograms = splitList(value(i));
        } else if (!std::strcmp(argv[i], "--train-sims")) {
            options.trainSims = static_cast<std::size_t>(
                parseU64OrDie("--train-sims", value(i)));
        } else if (!std::strcmp(argv[i], "--responses")) {
            options.responses = static_cast<std::size_t>(
                parseU64OrDie("--responses", value(i)));
        } else if (!std::strcmp(argv[i], "--stats-out")) {
            options.statsOut = value(i);
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--out FILE] [--target PROGRAM]\n"
                "          [--train-programs a,b,c] [--train-sims T]\n"
                "          [--responses R] [--stats-out FILE]\n",
                argv[0]);
            std::exit(2);
        }
    }
    if (options.trainingPrograms.empty())
        fatal("need at least one training program");
    if (options.trainSims == 0 || options.responses == 0)
        fatal("--train-sims and --responses must be positive");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli = parseArgs(argc, argv);

    // --- 1. Simulate and train ---------------------------------------
    CampaignOptions campaign_options = CampaignOptions::fromEnvironment();
    if (!std::getenv("ACDSE_CONFIGS")) {
        // Enough for T training points, R responses and a held-out
        // evaluation slice, while staying interactive.
        campaign_options.numConfigs = cli.trainSims + cli.responses + 64;
    }
    if (campaign_options.numConfigs < cli.trainSims + cli.responses)
        fatal("campaign has ", campaign_options.numConfigs,
              " configs but T+R needs ",
              cli.trainSims + cli.responses);

    std::vector<std::string> programs = cli.trainingPrograms;
    programs.push_back(cli.target);
    Campaign campaign(programs, campaign_options);
    campaign.ensureComputed();

    std::vector<std::size_t> train_idx, response_idx, eval_idx;
    for (std::size_t c = 0; c < campaign.configs().size(); ++c) {
        if (c < cli.trainSims)
            train_idx.push_back(c);
        else if (c < cli.trainSims + cli.responses)
            response_idx.push_back(c);
        else
            eval_idx.push_back(c);
    }
    const auto train_configs = campaign.configsAt(train_idx);
    const auto response_configs = campaign.configsAt(response_idx);
    const std::size_t target_row = campaign.programIndex(cli.target);

    ModelArtifact artifact;
    artifact.setTag("train_then_serve target=" + cli.target + " T=" +
                    std::to_string(cli.trainSims) + " R=" +
                    std::to_string(cli.responses));
    for (Metric metric : kAllMetrics) {
        std::vector<ProgramTrainingSet> sets;
        for (const auto &name : cli.trainingPrograms) {
            ProgramTrainingSet set;
            set.name = name;
            set.configs = train_configs;
            set.values = campaign.metricAt(campaign.programIndex(name),
                                           metric, train_idx);
            sets.push_back(std::move(set));
        }
        ArchitectureCentricPredictor predictor;
        predictor.trainOffline(sets);
        predictor.fitResponses(
            response_configs,
            campaign.metricAt(target_row, metric, response_idx));
        std::printf("trained %-9s ensemble of %zu ANNs, response "
                    "training error %.1f%%\n",
                    metricName(metric), cli.trainingPrograms.size(),
                    predictor.trainingErrorPercent());
        artifact.add(metric, std::move(predictor));
    }

    // --- 2. Persist ---------------------------------------------------
    saveArtifact(cli.outPath, artifact);
    std::printf("saved artifact '%s' (%zu bytes)\n", cli.outPath.c_str(),
                encodeArtifact(artifact).size());

    // --- 3. Reload and serve ------------------------------------------
    ModelArtifact loaded = loadArtifact(cli.outPath);
    const auto probes = campaign.configsAt(eval_idx);
    for (Metric metric : kAllMetrics) {
        for (const auto &probe : probes) {
            const double fresh = artifact.predictor(metric).predict(probe);
            const double reloaded =
                loaded.predictor(metric).predict(probe);
            if (fresh != reloaded)
                fatal("loaded predictor diverges from trained one (",
                      metricName(metric), ": ", fresh, " vs ", reloaded,
                      ")");
        }
    }
    std::printf("reload check: %zu x %zu predictions bit-identical "
                "after save+load\n",
                kNumMetrics, probes.size());

    PredictionService service(std::move(loaded));
    const auto rows = service.predict(probes);
    std::vector<double> predicted, actual;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        predicted.push_back(rows[i].get(Metric::Cycles));
        actual.push_back(
            campaign.result(target_row, eval_idx[i]).cycles);
    }
    // The service has served exactly this one batch.
    const obs::Snapshot served = service.statsSnapshot();
    const double batchMs = served.stages.at("serve/batch").totalMs();
    const auto points =
        static_cast<double>(served.counters.at("serve/points"));
    std::printf("served %zu held-out points: cycles rmae %.1f%%, "
                "correlation %.3f, batch latency %.2f ms (%.0f "
                "points/s)\n",
                probes.size(), stats::rmae(predicted, actual),
                stats::correlation(predicted, actual), batchMs,
                batchMs > 0.0 ? points / (batchMs / 1e3) : 0.0);
    if (!cli.statsOut.empty()) {
        // The global registry carries campaign/train/fit/pool metrics;
        // the service's private registry carries the serve/ ones.
        obs::Snapshot snap = obs::Registry::global().snapshot();
        snap.merge(service.statsSnapshot());
        obs::writeStatsFile(cli.statsOut, snap);
        std::printf("wrote stage/metric stats (%s) to %s\n",
                    std::string(obs::kStatsSchema).c_str(),
                    cli.statsOut.c_str());
    }

    std::printf("\nServe this artifact with:\n  acdse-serve --model %s "
                "--input queries.csv\n",
                cli.outPath.c_str());
    return 0;
}
