#include "serve/prediction_service.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>

#include "base/check.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "obs/stats_export.hh"
#include "obs/trace_span.hh"

namespace acdse
{

namespace
{

/**
 * Idle polls the drainer spins through an empty ring before parking
 * on the condvar. Spinning keeps tail latency flat under steady load;
 * parking keeps an idle service off the scheduler.
 */
constexpr int kDrainSpinPolls = 256;

/** Bounded park interval; a lost wake-up costs at most this. */
constexpr std::uint64_t kDrainParkNs = 1'000'000; // 1 ms

} // namespace

ServeOptions
ServeOptions::fromEnvironment()
{
    ServeOptions options;
    // ACDSE_SERVE_THREADS is a serving-specific override; when unset,
    // threads stays 0 and the service sizes itself with the shared
    // ThreadPool rule (ACDSE_THREADS, else hardware parallelism), the
    // same rule the campaign and the evaluator use.
    if (const char *value = std::getenv("ACDSE_SERVE_THREADS");
        value && *value) {
        options.threads = static_cast<std::size_t>(
            parseU64OrDie("ACDSE_SERVE_THREADS", value));
    }
    if (const char *value = std::getenv("ACDSE_SERVE_QUEUE");
        value && *value) {
        options.maxQueue = static_cast<std::size_t>(
            parseU64OrDie("ACDSE_SERVE_QUEUE", value));
    }
    return options;
}

AsyncBatch::AsyncBatch(std::size_t capacity)
    : rows_(capacity), versions_(capacity, 0)
{
    ACDSE_CHECK(capacity > 0, "AsyncBatch needs a positive capacity");
    ACDSE_CHECK(capacity <= std::numeric_limits<std::uint32_t>::max(),
                "AsyncBatch capacity ", capacity, " overflows the ",
                "pending counter");
}

void
AsyncBatch::wait() const
{
    // The drainer only notifies when pending reaches zero, and zero is
    // the only value a waiter cares about, so the loop cannot miss its
    // wake-up; the acquire load pairs with the drainer's release
    // decrement and publishes the completed rows.
    std::uint32_t pending = pending_.load(std::memory_order_acquire);
    while (pending != 0) {
        pending_.wait(pending, std::memory_order_acquire);
        pending = pending_.load(std::memory_order_acquire);
    }
}

void
AsyncBatch::reset()
{
    ACDSE_CHECK(pending_.load(std::memory_order_acquire) == 0,
                "reset() with requests in flight; wait() first");
    submitted_ = 0;
    std::fill(versions_.begin(), versions_.end(), std::uint64_t{0});
}

PredictionService::PredictionService(ModelArtifact artifact,
                                     ServeOptions options)
    : options_(std::move(options)), pool_(options_.threads),
      batchStage_(registry_.stage("serve/batch")),
      chunkStage_(registry_.stage("serve/chunk")),
      drainStage_(registry_.stage("serve/drain")),
      pointsServed_(registry_.counter("serve/points")),
      requestsAccepted_(registry_.counter("serve/requests")),
      requestsShed_(registry_.counter("serve/shed")),
      batchPoints_(registry_.histogram("serve/batch-points")),
      queueWaitNs_(registry_.histogram("serve/queue-wait-ns")),
      requestLatencyNs_(registry_.histogram("serve/request-latency-ns")),
      latencyReservoir_(registry_.reservoir("serve/request-latency")),
      ring_(options_.maxQueue)
{
    ACDSE_CHECK(options_.chunk > 0, "chunk size must be positive");
    ACDSE_CHECK(options_.drainBatch > 0,
                "drain batch size must be positive");
    const TenantId tenant = models_.registerTenant("default");
    ACDSE_CHECK(tenant == kDefaultTenant,
                "default tenant must get id 0");
    models_.publish(kDefaultTenant, std::move(artifact));
    if (options_.startDrainer)
        drainer_ = std::thread([this] { drainLoop(); });
}

PredictionService::~PredictionService()
{
    stop_.store(true, std::memory_order_release);
    if (drainer_.joinable()) {
        {
            MutexLock lock(drainMutex_);
            drainCv_.notifyAll();
        }
        // drainLoop() drains the ring to empty after observing stop_,
        // so every accepted request completes before the join.
        drainer_.join();
    } else {
        // Manual-drain mode: complete what tests left queued so no
        // AsyncBatch outlives its rows with pending_ stuck non-zero.
        std::vector<ServeRequest> scratch(options_.drainBatch);
        while (true) {
            const std::size_t n =
                ring_.popInto(scratch.data(), scratch.size());
            if (n == 0)
                break;
            serveDrained(scratch.data(), n);
        }
    }
}

PredictionService
PredictionService::fromFile(const std::string &path, ServeOptions options)
{
    return PredictionService(loadArtifact(path), options);
}

std::shared_ptr<const ServedModel>
PredictionService::model(TenantId tenant) const
{
    return models_.table()->modelPtr(tenant);
}

std::vector<Metric>
PredictionService::metrics() const
{
    return model(kDefaultTenant)->artifact.metrics();
}

TenantId
PredictionService::registerTenant(const std::string &name)
{
    return models_.registerTenant(name);
}

TenantId
PredictionService::findTenant(const std::string &name) const
{
    return models_.findTenant(name);
}

std::uint64_t
PredictionService::publish(TenantId tenant, ModelArtifact artifact)
{
    return models_.publish(tenant, std::move(artifact));
}

void
PredictionService::predictRows(const ServedModel *model,
                               const double *features, std::size_t n,
                               PredictionRow *rows)
{
    for (std::size_t i = 0; i < n; ++i)
        rows[i].values.fill(std::numeric_limits<double>::quiet_NaN());
    if (model == nullptr)
        return;
    const auto &entries = model->artifact.entries();
    std::vector<const ArchitectureCentricPredictor *> ensembles;
    for (const auto &entry : entries)
        ensembles.push_back(&entry.predictor);
    std::vector<double> out(entries.size() * n);
    BatchPredictScratch scratch;
    ArchitectureCentricPredictor::predictEnsembles(ensembles, features, n,
                                                   out.data(), scratch);
    for (std::size_t k = 0; k < entries.size(); ++k) {
        const auto metric = static_cast<std::size_t>(entries[k].metric);
        for (std::size_t i = 0; i < n; ++i)
            rows[i].values[metric] = out[k * n + i];
    }
}

std::vector<PredictionRow>
PredictionService::predict(const std::vector<MicroarchConfig> &queries)
{
    const std::uint64_t start = obs::kEnabled ? obs::nowNs() : 0;
    std::vector<PredictionRow> rows(queries.size());
    if (queries.empty())
        return rows;

    // Pin one model snapshot for the whole batch: a concurrent
    // publish() swaps the *next* batch, never splits this one.
    const std::shared_ptr<const ServedModel> served =
        model(kDefaultTenant);
    const auto predictRange = [&](std::size_t begin, std::size_t end) {
        std::vector<double> features((end - begin) * kNumParams);
        for (std::size_t i = begin; i < end; ++i)
            queries[i].featuresInto(&features[(i - begin) * kNumParams]);
        predictRows(served.get(), features.data(), end - begin,
                    rows.data() + begin);
    };

    if (pool_.workers() == 0 || queries.size() <= 2 * options_.chunk) {
        predictRange(0, queries.size());
    } else {
        // Time spent waiting for the batch mutex is the service's
        // queueing latency: concurrent callers serialise here.
        const std::uint64_t lockStart =
            obs::kEnabled ? obs::nowNs() : 0;
        MutexLock batch_lock(batchMutex_);
        if constexpr (obs::kEnabled)
            queueWaitNs_.record(obs::nowNs() - lockStart);
        const std::size_t num_chunks =
            (queries.size() + options_.chunk - 1) / options_.chunk;
        // Chunks write disjoint row ranges, so the batch result is
        // identical at every thread count; parallelFor blocks until
        // the last chunk finished, so queries/rows never outlive the
        // workers touching them.
        pool_.parallelFor(0, num_chunks, [&](std::size_t chunk) {
            const obs::TraceSpan chunkSpan(chunkStage_);
            const std::size_t begin = chunk * options_.chunk;
            predictRange(begin,
                         std::min(begin + options_.chunk, queries.size()));
        });
    }

    if constexpr (obs::kEnabled)
        recordBatch(queries.size(), obs::nowNs() - start);
    return rows;
}

PredictionRow
PredictionService::predictOne(const MicroarchConfig &query)
{
    return predict({query}).front();
}

SubmitStatus
PredictionService::submit(AsyncBatch &batch, TenantId tenant,
                          const MicroarchConfig &query)
{
    if (tenant >= models_.table()->tenantCount())
        return SubmitStatus::UnknownTenant;
    ACDSE_CHECK(batch.submitted_ < batch.capacity(),
                "AsyncBatch over capacity: wait() and reset() first");

    ServeRequest request;
    request.batch = &batch;
    request.index = static_cast<std::uint32_t>(batch.submitted_);
    request.tenant = tenant;
    request.enqueuedNs = obs::kEnabled ? obs::nowNs() : 0;
    request.config = query;

    // Raise pending before the push: the drainer may complete the
    // request before tryPush even returns, and the decrement must
    // never observe zero.
    batch.pending_.fetch_add(1, std::memory_order_relaxed);
    if (!ring_.tryPush(request)) {
        batch.pending_.fetch_sub(1, std::memory_order_relaxed);
        requestsShed_.add();
        return SubmitStatus::QueueFull;
    }
    batch.submitted_++;
    requestsAccepted_.add();

    // Only pay for the lock when the drainer actually parked; the
    // bounded park (kDrainParkNs) covers the race where it sets
    // sleeping_ after this load.
    if (sleeping_.load(std::memory_order_relaxed)) {
        MutexLock lock(drainMutex_);
        drainCv_.notifyOne();
    }
    return SubmitStatus::Accepted;
}

std::size_t
PredictionService::drainOnce()
{
    ACDSE_CHECK(!options_.startDrainer,
                "drainOnce() requires startDrainer=false; the drainer "
                "thread owns the consumer role otherwise");
    std::vector<ServeRequest> requests(options_.drainBatch);
    const std::size_t n =
        ring_.popInto(requests.data(), requests.size());
    if (n != 0)
        serveDrained(requests.data(), n);
    return n;
}

void
PredictionService::drainLoop()
{
    std::vector<ServeRequest> requests(options_.drainBatch);
    int idlePolls = 0;
    while (true) {
        const std::size_t n =
            ring_.popInto(requests.data(), requests.size());
        if (n != 0) {
            idlePolls = 0;
            serveDrained(requests.data(), n);
            continue;
        }
        if (stop_.load(std::memory_order_acquire)) {
            // Producers observed by tryPush before our last pop are
            // all drained (n == 0 above); new submits after stop_ are
            // the destructor's race to lose, and it joins us only
            // after setting stop_, so nothing accepted is stranded.
            return;
        }
        if (++idlePolls < kDrainSpinPolls)
            continue;
        // Park with a bounded deadline: sleeping_ tells producers to
        // nudge us, the deadline covers the set-after-check race.
        sleeping_.store(true, std::memory_order_relaxed);
        {
            MutexLock lock(drainMutex_);
            drainCv_.waitFor(drainMutex_, kDrainParkNs);
        }
        sleeping_.store(false, std::memory_order_relaxed);
        idlePolls = 0;
    }
}

obs::Counter &
PredictionService::tenantCounter(TenantId tenant)
{
    // Drainer-thread-only cache; registry interning is the slow path
    // taken once per tenant.
    if (tenant >= tenantPoints_.size())
        tenantPoints_.resize(tenant + 1, nullptr);
    if (tenantPoints_[tenant] == nullptr) {
        const std::vector<std::string> names = models_.tenantNames();
        ACDSE_CHECK(tenant < names.size(), "tenant ", tenant,
                    " has no registered name");
        tenantPoints_[tenant] = &registry_.counter(
            "serve/tenant/" + names[tenant] + "/points");
    }
    return *tenantPoints_[tenant];
}

void
PredictionService::serveDrained(ServeRequest *requests,
                                std::size_t count)
{
    const std::uint64_t start = obs::kEnabled ? obs::nowNs() : 0;

    // One acquire load pins the model epoch for every request in this
    // drain; the shared_ptr keeps superseded models alive until the
    // last such pin drops (serve/model_table.hh).
    const std::shared_ptr<const ModelTable> table = models_.table();

    // Group requests by tenant (stable sort by tenant id) so each
    // group is one predictRows() call over contiguous feature rows.
    std::vector<std::uint32_t> order(count);
    for (std::uint32_t i = 0; i < count; ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return requests[a].tenant < requests[b].tenant;
                     });

    std::vector<double> features;
    std::vector<PredictionRow> rows;
    std::size_t groupBegin = 0;
    while (groupBegin < count) {
        const TenantId tenant = requests[order[groupBegin]].tenant;
        std::size_t groupEnd = groupBegin + 1;
        while (groupEnd < count &&
               requests[order[groupEnd]].tenant == tenant)
            ++groupEnd;
        const std::size_t n = groupEnd - groupBegin;
        features.resize(n * kNumParams);
        for (std::size_t i = 0; i < n; ++i) {
            requests[order[groupBegin + i]].config.featuresInto(
                &features[i * kNumParams]);
        }
        // A registered tenant with nothing published yet gets NaN rows
        // stamped version 0 rather than a failed request.
        const ServedModel *served = table->modelFor(tenant);
        rows.resize(n);
        predictRows(served, features.data(), n, rows.data());
        const std::uint64_t version = served ? served->version : 0;
        for (std::size_t i = 0; i < n; ++i) {
            const ServeRequest &req = requests[order[groupBegin + i]];
            req.batch->rows_[req.index] = rows[i];
            req.batch->versions_[req.index] = version;
        }

        if constexpr (obs::kEnabled)
            tenantCounter(tenant).add(n);
        groupBegin = groupEnd;
    }

    // Complete every request: the release decrement publishes the row
    // and version to the producer's acquire in AsyncBatch::wait().
    for (std::size_t i = 0; i < count; ++i) {
        const ServeRequest &req = requests[i];
        if constexpr (obs::kEnabled) {
            const std::uint64_t latency =
                obs::nowNs() - req.enqueuedNs;
            requestLatencyNs_.record(latency);
            latencyReservoir_.record(latency);
        }
        if (req.batch->pending_.fetch_sub(
                1, std::memory_order_release) == 1)
            req.batch->pending_.notify_all();
    }

    if constexpr (obs::kEnabled) {
        pointsServed_.add(count);
        // The drain ran entirely on this thread but interleaves with
        // popInto bookkeeping; record the stage directly (no
        // TraceSpan in the drain loop).
        drainStage_.record(obs::nowNs() - start, 0);
    }
}

void
PredictionService::recordBatch(std::size_t points,
                               std::uint64_t elapsedNs)
{
    // The batch ran partly on pool workers, so no same-thread child
    // time can be attributed; record it directly on the stage.
    batchStage_.record(elapsedNs, 0);
    pointsServed_.add(points);
    batchPoints_.record(points);
    if (options_.statsEveryBatches != 0 &&
        !options_.statsPath.empty() &&
        batchStage_.spans().value() % options_.statsEveryBatches == 0)
        dumpStats();
}

void
PredictionService::resetStats()
{
    registry_.reset();
}

obs::Snapshot
PredictionService::statsSnapshot() const
{
    return registry_.snapshot();
}

double
PredictionService::requestLatencyQuantileMs(double q) const
{
    const obs::ReservoirSnapshot sample = latencyReservoir_.read();
    return static_cast<double>(sample.quantile(q)) / 1e6;
}

void
PredictionService::dumpStats() const
{
    if (options_.statsPath.empty())
        return;
    obs::writeStatsFile(options_.statsPath, registry_.snapshot());
}

} // namespace acdse
