/**
 * @file
 * Bit-exact determinism of every parallelised pipeline stage: a
 * 1-thread and an N-thread run of the same campaign, training sweep or
 * evaluation sweep must produce identical doubles. This is the
 * contract that makes the thread pool transparent -- parallelism is a
 * scheduling decision, never a numerical one.
 *
 * All comparisons are EXPECT_EQ on doubles (no tolerance) on purpose.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "base/thread_pool.hh"
#include "core/evaluation.hh"
#include "scratch_dir.hh"

namespace acdse
{
namespace
{

CampaignOptions
tinyOptions(const std::string &tag, std::size_t threads)
{
    CampaignOptions options;
    options.numConfigs = 24;
    options.traceLength = 1200;
    options.warmupInstructions = 300;
    options.threads = threads;
    options.quiet = true;
    options.cacheDir =
        (testscratch::processRoot() / tag).string();
    std::filesystem::create_directories(options.cacheDir);
    return options;
}

const std::vector<std::string> kPrograms{"crc32", "sha", "adpcm",
                                         "stringsearch"};

TEST(ParallelDeterminism, CampaignFillIsThreadCountInvariant)
{
    // Distinct cache dirs so the second campaign cannot shortcut by
    // loading the first one's rows from disk.
    Campaign serial(kPrograms, tinyOptions("acdse_det_c1", 1));
    Campaign parallel(kPrograms, tinyOptions("acdse_det_cN", 5));
    serial.ensureComputed();
    parallel.ensureComputed();
    for (std::size_t p = 0; p < kPrograms.size(); ++p) {
        EXPECT_EQ(serial.metricRow(p, Metric::Cycles),
                  parallel.metricRow(p, Metric::Cycles));
        EXPECT_EQ(serial.metricRow(p, Metric::Energy),
                  parallel.metricRow(p, Metric::Energy));
    }
}

class EvaluationDeterminism : public ::testing::Test
{
  protected:
    static Campaign &
    campaign()
    {
        static Campaign instance(kPrograms,
                                 tinyOptions("acdse_det_eval", 0));
        instance.ensureComputed();
        return instance;
    }

    static std::vector<std::size_t>
    allPrograms()
    {
        std::vector<std::size_t> idx(kPrograms.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        return idx;
    }
};

TEST_F(EvaluationDeterminism, ProgramSpecificSweepMatchesAcrossThreads)
{
    Evaluator serial(campaign(), {}, 1);
    Evaluator parallel(campaign(), {}, 6);
    const auto a = serial.evaluateProgramSpecificSweep(
        allPrograms(), Metric::Cycles, 12, 0x5eed'0001ULL);
    const auto b = parallel.evaluateProgramSpecificSweep(
        allPrograms(), Metric::Cycles, 12, 0x5eed'0001ULL);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].rmaePercent, b[i].rmaePercent) << "fold " << i;
        EXPECT_EQ(a[i].correlation, b[i].correlation) << "fold " << i;
        EXPECT_EQ(a[i].trainingErrorPercent, b[i].trainingErrorPercent)
            << "fold " << i;
    }
}

TEST_F(EvaluationDeterminism, ArchCentricSweepMatchesAcrossThreads)
{
    Evaluator serial(campaign(), {}, 1);
    Evaluator parallel(campaign(), {}, 6);
    const auto a = serial.evaluateArchCentricSweep(
        allPrograms(), Metric::Cycles, 12, 6, 0x5eed'0042ULL);
    const auto b = parallel.evaluateArchCentricSweep(
        allPrograms(), Metric::Cycles, 12, 6, 0x5eed'0042ULL);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].rmaePercent, b[i].rmaePercent) << "fold " << i;
        EXPECT_EQ(a[i].correlation, b[i].correlation) << "fold " << i;
        EXPECT_EQ(a[i].trainingErrorPercent, b[i].trainingErrorPercent)
            << "fold " << i;
    }
}

TEST_F(EvaluationDeterminism, SweepMatchesSerialSingleFoldCalls)
{
    // The sweep is a drop-in for the hand-written per-program loop the
    // figure benches used to run: element i must be *exactly* the
    // single-fold call.
    Evaluator sweeper(campaign(), {}, 6);
    const auto swept = sweeper.evaluateArchCentricSweep(
        allPrograms(), Metric::Energy, 10, 5, 0x5eed'0099ULL);

    Evaluator reference(campaign(), {}, 1);
    for (std::size_t i = 0; i < kPrograms.size(); ++i) {
        std::vector<std::size_t> training;
        for (std::size_t q = 0; q < kPrograms.size(); ++q) {
            if (q != i)
                training.push_back(q);
        }
        const auto one = reference.evaluateArchCentric(
            i, Metric::Energy, training, 10, 5, 0x5eed'0099ULL);
        EXPECT_EQ(swept[i].rmaePercent, one.rmaePercent) << "fold " << i;
        EXPECT_EQ(swept[i].correlation, one.correlation) << "fold " << i;
        EXPECT_EQ(swept[i].trainingErrorPercent,
                  one.trainingErrorPercent)
            << "fold " << i;
    }
}

TEST_F(EvaluationDeterminism, WarmedCacheDoesNotChangeResults)
{
    Evaluator cold(campaign(), {}, 4);
    Evaluator warm(campaign(), {}, 4);
    warm.warmProgramModels(allPrograms(), Metric::Cycles, 10,
                           0x5eed'0123ULL);
    const auto a = cold.evaluateArchCentricSweep(
        allPrograms(), Metric::Cycles, 10, 5, 0x5eed'0123ULL);
    const auto b = warm.evaluateArchCentricSweep(
        allPrograms(), Metric::Cycles, 10, 5, 0x5eed'0123ULL);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].rmaePercent, b[i].rmaePercent);
        EXPECT_EQ(a[i].correlation, b[i].correlation);
    }
}

TEST_F(EvaluationDeterminism, OfflineTrainingIsPoolContextInvariant)
{
    // trainOffline parallelises over the shared pool; run it once from
    // the main thread (pooled path) and once from inside a worker
    // (inline path) -- identical predictors must come out.
    std::vector<ProgramTrainingSet> sets(3);
    Campaign &c = campaign();
    for (std::size_t j = 0; j < sets.size(); ++j) {
        sets[j].name = c.programs()[j];
        sets[j].configs = c.configs();
        sets[j].values = c.metricRow(j, Metric::Cycles);
    }

    ArchitectureCentricPredictor pooled;
    pooled.trainOffline(sets);

    ThreadPool pool(4);
    ArchitectureCentricPredictor inlined;
    pool.submit([&] { inlined.trainOffline(sets); }).get();

    const auto &probe = c.configs();
    std::vector<double> responses;
    for (std::size_t i = 0; i < 6; ++i)
        responses.push_back(c.result(3, i).cycles);
    const std::vector<MicroarchConfig> response_configs(
        probe.begin(), probe.begin() + 6);
    pooled.fitResponses(response_configs, responses);
    pool.submit([&] { inlined.fitResponses(response_configs, responses); })
        .get();

    for (const auto &config : probe)
        EXPECT_EQ(pooled.predict(config), inlined.predict(config));
    EXPECT_EQ(pooled.trainingErrorPercent(),
              inlined.trainingErrorPercent());
}

} // namespace
} // namespace acdse
