/**
 * @file
 * Unit tests for the prediction service: served predictions match the
 * underlying predictors exactly (single- and multi-threaded), absent
 * metrics come back NaN, and the serving counters add up.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "arch/design_space.hh"
#include "serve/prediction_service.hh"
#include "scratch_dir.hh"

namespace acdse
{
namespace
{

double
synthetic(const MicroarchConfig &config, double wide, double mem)
{
    return 500.0 + wide * 4000.0 / config.width() +
           mem * 60000.0 /
               std::sqrt(static_cast<double>(config.l2Bytes() / 1024));
}

ArchitectureCentricPredictor
trainedPredictor(double wide, double mem)
{
    const auto train = DesignSpace::sampleValidConfigs(64, 1);
    std::vector<ProgramTrainingSet> sets(2);
    for (int j = 0; j < 2; ++j) {
        sets[j].name = "p" + std::to_string(j);
        sets[j].configs = train;
        for (const auto &c : train)
            sets[j].values.push_back(
                synthetic(c, wide + 0.5 * j, mem));
    }
    ArchitectureCentricPredictor predictor;
    predictor.trainOffline(sets);
    const auto rc = DesignSpace::sampleValidConfigs(16, 2);
    std::vector<double> responses;
    for (const auto &c : rc)
        responses.push_back(synthetic(c, wide, mem));
    predictor.fitResponses(rc, responses);
    return predictor;
}

ModelArtifact
twoMetricArtifact()
{
    ModelArtifact artifact;
    artifact.setTag("service test");
    artifact.add(Metric::Cycles, trainedPredictor(1.0, 1.0));
    artifact.add(Metric::Energy, trainedPredictor(0.5, 2.0));
    return artifact;
}

TEST(PredictionService, MatchesDirectPredictorExactly)
{
    const ModelArtifact artifact = twoMetricArtifact();
    ServeOptions options;
    options.threads = 1;
    PredictionService service(artifact, options);

    const auto queries = DesignSpace::sampleValidConfigs(40, 3);
    const auto rows = service.predict(queries);
    ASSERT_EQ(rows.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(rows[i].get(Metric::Cycles),
                  artifact.predictor(Metric::Cycles).predict(queries[i]));
        EXPECT_EQ(rows[i].get(Metric::Energy),
                  artifact.predictor(Metric::Energy).predict(queries[i]));
    }
}

TEST(PredictionService, AbsentMetricsAreNaN)
{
    ModelArtifact artifact;
    artifact.add(Metric::Cycles, trainedPredictor(1.0, 1.0));
    ServeOptions options;
    options.threads = 1;
    PredictionService service(std::move(artifact), options);
    const PredictionRow row =
        service.predictOne(DesignSpace::baseline());
    EXPECT_FALSE(std::isnan(row.get(Metric::Cycles)));
    EXPECT_TRUE(std::isnan(row.get(Metric::Energy)));
    EXPECT_TRUE(std::isnan(row.get(Metric::Ed)));
    EXPECT_TRUE(std::isnan(row.get(Metric::Edd)));
}

TEST(PredictionService, ThreadPoolMatchesSingleThread)
{
    const ModelArtifact artifact = twoMetricArtifact();
    const auto queries = DesignSpace::sampleValidConfigs(700, 4);

    ServeOptions single;
    single.threads = 1;
    PredictionService reference(artifact, single);
    const auto expected = reference.predict(queries);

    ServeOptions pooled;
    pooled.threads = 4;
    pooled.chunk = 16; // 700 points: many chunks, the pool path
    PredictionService service(artifact, pooled);
    EXPECT_EQ(service.poolThreads(), 3u);

    // Several batches through the same pool (reuse across generations).
    // Compare metric by metric: the absent ones are NaN, and NaN never
    // compares equal to itself.
    for (int round = 0; round < 3; ++round) {
        const auto rows = service.predict(queries);
        ASSERT_EQ(rows.size(), expected.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            EXPECT_EQ(rows[i].get(Metric::Cycles),
                      expected[i].get(Metric::Cycles));
            EXPECT_EQ(rows[i].get(Metric::Energy),
                      expected[i].get(Metric::Energy));
        }
    }
}

/**
 * Regression test for the stale-worker hand-off race: a worker that
 * wakes for a batch only after the batch has completed must not claim
 * chunks of the *next* batch against the previous batch's (destroyed)
 * queries/rows. Tiny back-to-back batches with one-point chunks and a
 * wide pool maximise the window where a late worker still holds the
 * old batch pointers while a new batch resets the chunk cursor; the
 * symptom of the race is rows of the new batch left NaN (its chunk 0
 * was "done" by the stale worker against the old batch).
 */
TEST(PredictionService, BackToBackBatchesNeverDropChunks)
{
    const ModelArtifact artifact = twoMetricArtifact();

    ServeOptions single;
    single.threads = 1;
    PredictionService reference(artifact, single);

    ServeOptions churn;
    churn.threads = 8;
    churn.chunk = 1; // one point per claim: maximal hand-off churn
    PredictionService service(artifact, churn);

    // Three points: the smallest batch that exceeds two one-point
    // chunks, so every round takes the pool path.
    const auto queries = DesignSpace::sampleValidConfigs(3, 7);
    const auto expected = reference.predict(queries);
    for (int round = 0; round < 2000; ++round) {
        const auto rows = service.predict(queries);
        ASSERT_EQ(rows.size(), queries.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            ASSERT_EQ(rows[i].get(Metric::Cycles),
                      expected[i].get(Metric::Cycles))
                << "round " << round << " row " << i;
            ASSERT_EQ(rows[i].get(Metric::Energy),
                      expected[i].get(Metric::Energy))
                << "round " << round << " row " << i;
        }
    }
}

TEST(PredictionService, CountersAddUp)
{
    ServeOptions options;
    options.threads = 2;
    options.chunk = 8; // 100 points: 13 chunks, the pool path
    PredictionService service(twoMetricArtifact(), options);

    const auto queries = DesignSpace::sampleValidConfigs(100, 5);
    service.predict(queries);
    service.predict(queries);
    service.predictOne(DesignSpace::baseline());

    // The counters are registry-backed (src/obs); an ACDSE_OBS=OFF
    // build compiles the instrumentation out and reads all zeros.
    const obs::Snapshot stats = service.statsSnapshot();
    const obs::StageSnapshot &batches = stats.stages.at("serve/batch");
    const std::uint64_t points = stats.counters.at("serve/points");
    if constexpr (obs::kEnabled) {
        EXPECT_EQ(batches.count, 3u);
        EXPECT_EQ(points, 201u);
        EXPECT_GT(batches.totalNs, 0u);
        EXPECT_GE(batches.spans.max, batches.spans.min);
        EXPECT_GT(static_cast<double>(points) / batches.totalMs(), 0.0);
    } else {
        EXPECT_EQ(batches.count, 0u);
        EXPECT_EQ(points, 0u);
        EXPECT_EQ(batches.totalNs, 0u);
    }

    service.resetStats();
    const obs::Snapshot reset = service.statsSnapshot();
    EXPECT_EQ(reset.stages.at("serve/batch").count, 0u);
    EXPECT_EQ(reset.counters.at("serve/points"), 0u);
}

TEST(PredictionService, EmptyBatchIsANoOp)
{
    ServeOptions options;
    options.threads = 2;
    PredictionService service(twoMetricArtifact(), options);
    EXPECT_TRUE(service.predict({}).empty());
    EXPECT_EQ(service.statsSnapshot().stages.at("serve/batch").count, 0u);
}

TEST(PredictionService, FromFileServesSavedArtifact)
{
    const ModelArtifact artifact = twoMetricArtifact();
    const std::string path =
        (testscratch::freshDir("artifact") / "service.acdse").string();
    saveArtifact(path, artifact);

    ServeOptions options;
    options.threads = 1;
    PredictionService service =
        PredictionService::fromFile(path, options);
    std::remove(path.c_str());
    const MicroarchConfig probe = DesignSpace::baseline();
    EXPECT_EQ(service.predictOne(probe).get(Metric::Cycles),
              artifact.predictor(Metric::Cycles).predict(probe));
}

TEST(PredictionServiceDeathTest, RejectsUnfittedArtifact)
{
    const auto train = DesignSpace::sampleValidConfigs(32, 6);
    std::vector<ProgramTrainingSet> sets(1);
    sets[0].name = "p";
    sets[0].configs = train;
    for (const auto &c : train)
        sets[0].values.push_back(synthetic(c, 1.0, 1.0));
    ArchitectureCentricPredictor offline_only;
    offline_only.trainOffline(sets);

    ModelArtifact artifact;
    artifact.add(Metric::Cycles, std::move(offline_only));
    EXPECT_DEATH(PredictionService(std::move(artifact)),
                 "no fitted responses");
}

TEST(PredictionService, AsyncPathMatchesSyncExactly)
{
    const ModelArtifact artifact = twoMetricArtifact();
    ServeOptions options;
    options.threads = 1;
    PredictionService service(artifact, options);

    const auto queries = DesignSpace::sampleValidConfigs(50, 8);
    const auto expected = service.predict(queries);

    AsyncBatch batch(queries.size());
    for (const auto &query : queries)
        ASSERT_EQ(service.submit(batch, query),
                  SubmitStatus::Accepted);
    batch.wait();

    for (std::size_t i = 0; i < queries.size(); ++i) {
        // The drainer's SIMD block path is bit-identical to the
        // synchronous chunked path (both match the raw predictor).
        EXPECT_EQ(batch.rows()[i].get(Metric::Cycles),
                  expected[i].get(Metric::Cycles));
        EXPECT_EQ(batch.rows()[i].get(Metric::Energy),
                  expected[i].get(Metric::Energy));
        // Every row is stamped with the serving version (the
        // constructor's publish is version 1).
        EXPECT_EQ(batch.versions()[i], 1u);
    }
    if constexpr (obs::kEnabled) {
        const obs::Snapshot stats = service.statsSnapshot();
        EXPECT_EQ(stats.counters.at("serve/requests"), queries.size());
        EXPECT_EQ(stats.counters.at("serve/shed"), 0u);
    }
}

TEST(PredictionService, QueueFullShedsTyped)
{
    ServeOptions options;
    options.threads = 1;
    options.maxQueue = kMinRingCapacity; // 8 slots
    options.startDrainer = false;        // deterministic: no consumer
    PredictionService service(twoMetricArtifact(), options);
    EXPECT_EQ(service.queueCapacity(), kMinRingCapacity);

    const auto queries =
        DesignSpace::sampleValidConfigs(kMinRingCapacity + 4, 9);
    AsyncBatch batch(queries.size());

    // With no drainer running the ring fills at exactly capacity;
    // every further submit is a typed rejection, not a block.
    for (std::size_t i = 0; i < kMinRingCapacity; ++i)
        ASSERT_EQ(service.submit(batch, queries[i]),
                  SubmitStatus::Accepted);
    for (std::size_t i = kMinRingCapacity; i < queries.size(); ++i)
        ASSERT_EQ(service.submit(batch, queries[i]),
                  SubmitStatus::QueueFull);
    EXPECT_EQ(batch.submitted(), kMinRingCapacity);
    EXPECT_EQ(batch.inFlight(), kMinRingCapacity);

    // Rejections are observable as serve/shed in the stats snapshot.
    if constexpr (obs::kEnabled) {
        const obs::Snapshot stats = service.statsSnapshot();
        EXPECT_EQ(stats.counters.at("serve/requests"), kMinRingCapacity);
        EXPECT_EQ(stats.counters.at("serve/shed"), 4u);
    }

    // Draining makes room again: the shed requests can be resubmitted
    // and complete normally.
    EXPECT_EQ(service.drainOnce(), kMinRingCapacity);
    EXPECT_EQ(batch.inFlight(), 0u);
    for (std::size_t i = kMinRingCapacity; i < queries.size(); ++i)
        ASSERT_EQ(service.submit(batch, queries[i]),
                  SubmitStatus::Accepted);
    EXPECT_EQ(service.drainOnce(), 4u);
    batch.wait();
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(batch.rows()[i].get(Metric::Cycles),
                  service.model()->artifact.predictor(Metric::Cycles)
                      .predict(queries[i]));
}

TEST(PredictionService, TenantsRouteToTheirOwnModels)
{
    ModelArtifact alphaModel;
    alphaModel.add(Metric::Cycles, trainedPredictor(1.0, 1.0));
    ModelArtifact betaModel;
    betaModel.add(Metric::Cycles, trainedPredictor(2.0, 0.5));

    ServeOptions options;
    options.threads = 1;
    PredictionService service(alphaModel, options);
    const TenantId beta = service.registerTenant("beta");
    const TenantId bare = service.registerTenant("bare");
    service.publish(beta, betaModel);
    EXPECT_EQ(service.findTenant("beta"), beta);
    EXPECT_EQ(service.findTenant("nobody"),
              ModelRegistry::kInvalidTenant);

    const auto queries = DesignSpace::sampleValidConfigs(30, 10);
    AsyncBatch batch(3 * queries.size());
    for (const auto &query : queries) {
        // Interleave tenants so one drained chunk carries all three.
        ASSERT_EQ(service.submit(batch, kDefaultTenant, query),
                  SubmitStatus::Accepted);
        ASSERT_EQ(service.submit(batch, beta, query),
                  SubmitStatus::Accepted);
        ASSERT_EQ(service.submit(batch, bare, query),
                  SubmitStatus::Accepted);
    }
    batch.wait();

    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto &defaultRow = batch.rows()[3 * i];
        const auto &betaRow = batch.rows()[3 * i + 1];
        const auto &bareRow = batch.rows()[3 * i + 2];
        EXPECT_EQ(defaultRow.get(Metric::Cycles),
                  alphaModel.predictor(Metric::Cycles)
                      .predict(queries[i]));
        EXPECT_EQ(betaRow.get(Metric::Cycles),
                  betaModel.predictor(Metric::Cycles)
                      .predict(queries[i]));
        EXPECT_EQ(batch.versions()[3 * i], 1u);
        EXPECT_EQ(batch.versions()[3 * i + 1], 2u);
        // A registered tenant with no published model answers NaN
        // stamped version 0 rather than failing.
        EXPECT_TRUE(std::isnan(bareRow.get(Metric::Cycles)));
        EXPECT_EQ(batch.versions()[3 * i + 2], 0u);
    }

    // An id beyond the table is a typed rejection.
    EXPECT_EQ(service.submit(batch, TenantId{99}, queries[0]),
              SubmitStatus::UnknownTenant);

    // Per-tenant served-point counters appear in the snapshot.
    if constexpr (obs::kEnabled) {
        const obs::Snapshot snap = service.statsSnapshot();
        ASSERT_TRUE(
            snap.counters.count("serve/tenant/default/points"));
        ASSERT_TRUE(snap.counters.count("serve/tenant/beta/points"));
        EXPECT_EQ(snap.counters.at("serve/tenant/default/points"),
                  queries.size());
        EXPECT_EQ(snap.counters.at("serve/tenant/beta/points"),
                  queries.size());
        EXPECT_EQ(snap.counters.at("serve/tenant/bare/points"),
                  queries.size());
    }
}

TEST(PredictionService, AsyncLatencyMetricsPopulate)
{
    ServeOptions options;
    options.threads = 1;
    PredictionService service(twoMetricArtifact(), options);

    const auto queries = DesignSpace::sampleValidConfigs(20, 13);
    AsyncBatch batch(queries.size());
    for (const auto &query : queries)
        ASSERT_EQ(service.submit(batch, query),
                  SubmitStatus::Accepted);
    batch.wait();

    if constexpr (obs::kEnabled) {
        const obs::Snapshot snap = service.statsSnapshot();
        ASSERT_TRUE(
            snap.histograms.count("serve/request-latency-ns"));
        EXPECT_EQ(snap.histograms.at("serve/request-latency-ns").count,
                  queries.size());
        ASSERT_TRUE(snap.reservoirs.count("serve/request-latency"));
        EXPECT_EQ(snap.reservoirs.at("serve/request-latency").count,
                  queries.size());
        // Exact quantiles come from the reservoir; p99 of real
        // latencies is positive and at least the median.
        EXPECT_GT(service.requestLatencyQuantileMs(0.99), 0.0);
        EXPECT_GE(service.requestLatencyQuantileMs(0.99),
                  service.requestLatencyQuantileMs(0.50));
    }
}

} // namespace
} // namespace acdse
