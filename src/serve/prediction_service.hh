/**
 * @file
 * The prediction server: design-space queries against versioned model
 * artifacts, with two request paths and zero-downtime model swaps.
 *
 * One query is a 13-parameter MicroarchConfig; the answer is the
 * predicted value of every metric the serving artifact carries
 * (cycles, energy, ED, EDD), stamped with the model version that
 * produced it.
 *
 * One kernel, two entry points. Both request paths turn feature rows
 * into rows of metric predictions through the same private
 * predictRows(), which runs ArchitectureCentricPredictor::
 * predictEnsembles -- the kernel the exploration engine also runs --
 * so the two paths answer the same query bit-identically:
 *
 *  - predict(): the synchronous batch path. A batch that fits in two
 *    chunks, or any batch on a pool with no workers, runs inline on
 *    the caller; larger batches are split into fixed-size chunks and
 *    parallelFor()d across the service's ThreadPool. Every chunk
 *    writes a disjoint slice of the result vector, which is both
 *    lock-free and bit-deterministic at any thread count.
 *
 *  - submit()/AsyncBatch: the ingest path for many concurrent
 *    producers. Each request travels a bounded lock-free MPSC ring
 *    (serve/ring_buffer.hh) to a dedicated drainer thread that groups
 *    what it pops by tenant and predicts each group in one call. A
 *    full ring fails submit() with SubmitStatus::QueueFull immediately
 *    (typed load-shedding, never unbounded queueing).
 *
 * Hot swap: models live in a ModelRegistry (serve/model_table.hh).
 * publish() atomically replaces a tenant's model; batches in flight
 * finish on the snapshot they pinned, new batches see the new
 * version, and no request fails or blocks across the swap. Multiple
 * tenants map independently to models.
 *
 * Stats: statsSnapshot() reads the service's private metrics registry
 * -- serve/batch (one span per predict() batch), serve/chunk,
 * serve/drain, serve/points, serve/requests, serve/shed, per-tenant
 * serve/tenant/<name>/points and the per-request latency histogram
 * and exact-quantile reservoir (bench/bench_serve_latency.cc). With
 * ACDSE_OBS=OFF the instrumentation is compiled out: every name but
 * the per-tenant ones is still present and reads zero.
 *
 * Environment knobs:
 *  - ACDSE_SERVE_THREADS  serving threads; unset falls through to the
 *                         shared sizing rule (ACDSE_THREADS, else the
 *                         hardware parallelism)
 *  - ACDSE_SERVE_QUEUE    ingest ring capacity (rounded to a power of
 *                         two); unset keeps ServeOptions::maxQueue
 */

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/microarch_config.hh"
#include "base/sync.hh"
#include "base/thread_pool.hh"
#include "obs/metrics.hh"
#include "serve/model_store.hh"
#include "serve/model_table.hh"
#include "serve/ring_buffer.hh"
#include "sim/metrics.hh"

namespace acdse
{

/** Prediction-service tuning parameters. */
struct ServeOptions
{
    /**
     * Total serving parallelism; 0 resolves through
     * ThreadPool::resolveThreads (ACDSE_THREADS, else hardware).
     */
    std::size_t threads = 0;
    /**
     * Query points per work unit. Small enough to balance load across
     * workers, large enough that the per-chunk claim is amortised away.
     * A batch of at most two chunks runs inline on the caller: waking
     * the pool costs more than the work itself.
     */
    std::size_t chunk = 64;
    /**
     * Ingest ring capacity in requests (rounded up to a power of
     * two). A full ring rejects submit() with QueueFull -- size it
     * for the burst you want to absorb, not the backlog you want to
     * hide.
     */
    std::size_t maxQueue = std::size_t{1} << 14;

    /** Most requests the drainer folds into one prediction batch. */
    std::size_t drainBatch = 256;

    /**
     * Spin the drainer thread up on construction. Tests that need a
     * deterministic ingest schedule (e.g. proving QueueFull fires)
     * set this false and pump the queue with drainOnce().
     */
    bool startDrainer = true;

    /**
     * When non-empty, the service dumps its metrics (acdse-stats-v1,
     * see obs/stats_export.hh) to this path: every statsEveryBatches
     * batches if that is non-zero, and on every dumpStats() call.
     */
    std::string statsPath;

    /** Periodic dump cadence in batches; 0 disables periodic dumps. */
    std::size_t statsEveryBatches = 0;

    /** Defaults with any ACDSE_SERVE_* environment overrides applied. */
    static ServeOptions fromEnvironment();
};

/** Predictions for one query point, indexed by Metric. */
struct PredictionRow
{
    /** Predicted values; NaN for metrics absent from the artifact. */
    std::array<double, kNumMetrics> values;

    /** Value for one metric (NaN if the artifact lacks it). */
    double get(Metric metric) const
    {
        return values[static_cast<std::size_t>(metric)];
    }
};

/** Outcome of one submit() call (the async ingest path). */
enum class SubmitStatus
{
    Accepted,      //!< enqueued; the row arrives via AsyncBatch::wait
    QueueFull,     //!< ring full: request shed, nothing enqueued
    UnknownTenant, //!< tenant id was never registered
};

class PredictionService;

/**
 * The completion handle for one producer's in-flight requests on the
 * async path: the producer submit()s up to capacity() requests
 * against it, wait()s, then reads rows() and versions().
 *
 * Thread model: one producer per batch. submit() bookkeeping on the
 * batch is deliberately unsynchronised between producers (each
 * producer owns its own AsyncBatch); completion travels from the
 * drainer with release/acquire on the pending count, so after wait()
 * returns every row and version stamp is visible. A batch must not be
 * destroyed with requests in flight (wait() first); it may be
 * reset() and reused.
 */
class AsyncBatch
{
  public:
    /** @param capacity most requests this handle can carry at once. */
    explicit AsyncBatch(std::size_t capacity);

    AsyncBatch(const AsyncBatch &) = delete;
    AsyncBatch &operator=(const AsyncBatch &) = delete;

    /** Most requests this handle can carry between resets. */
    std::size_t capacity() const { return rows_.size(); }

    /** Requests accepted against this handle since the last reset. */
    std::size_t submitted() const { return submitted_; }

    /** Requests accepted but not yet completed by the drainer. */
    std::size_t inFlight() const
    {
        return pending_.load(std::memory_order_acquire);
    }

    /** Block until every accepted request has completed. */
    void wait() const;

    /**
     * Result rows, indexed by submission order. Valid for indices
     * < submitted() once wait() returned.
     */
    const std::vector<PredictionRow> &rows() const { return rows_; }

    /** The model version that served each row (0 = no model). */
    const std::vector<std::uint64_t> &versions() const
    {
        return versions_;
    }

    /** Forget completed results and start a fresh round of submits. */
    void reset();

  private:
    friend class PredictionService;

    std::vector<PredictionRow> rows_;
    std::vector<std::uint64_t> versions_;

    /** Producer-side cursor: next row index to hand out. */
    std::size_t submitted_ = 0;

    /**
     * Requests enqueued but not yet completed. The drainer's final
     * fetch_sub(release) pairs with the waiter's acquire loads, which
     * is what publishes rows_/versions_ back to the producer.
     */
    std::atomic<std::uint32_t> pending_{0};
};

/**
 * One queued request travelling the ingest ring from a producer
 * thread to the drainer.
 */
struct ServeRequest
{
    AsyncBatch *batch = nullptr; //!< completion handle
    std::uint32_t index = 0;     //!< row slot within the batch
    TenantId tenant = 0;         //!< model routing key
    std::uint64_t enqueuedNs = 0; //!< submit timestamp (latency)
    MicroarchConfig config{};    //!< the query point
};

/**
 * A running prediction server over versioned, hot-swappable model
 * artifacts.
 *
 * Thread model: the service owns a ThreadPool that parallelises
 * *within* one predict() batch; concurrent predict() callers are
 * serialised on batchMutex_ (a simplicity choice -- the artifacts are
 * shared read-only). submit() is safe from any number of threads
 * concurrently with everything else, including publish(). The drainer
 * thread is the ring's single consumer; destruction stops it, drains
 * the ring to completion (no accepted request is ever dropped) and
 * joins.
 */
class PredictionService
{
  public:
    /** Serve an in-memory artifact (published as the default tenant). */
    explicit PredictionService(ModelArtifact artifact,
                               ServeOptions options =
                                   ServeOptions::fromEnvironment());

    /**
     * Load an artifact file and serve it.
     * @throws SerializationError if the file fails integrity checks.
     */
    static PredictionService fromFile(const std::string &path,
                                      ServeOptions options =
                                          ServeOptions::fromEnvironment());

    PredictionService(const PredictionService &) = delete;
    PredictionService &operator=(const PredictionService &) = delete;

    ~PredictionService();

    /**
     * The model currently serving @p tenant (never null for the
     * default tenant; null for a registered tenant with no publish
     * yet). The returned epoch snapshot stays valid -- and
     * bit-stable -- however many publishes happen after it.
     */
    std::shared_ptr<const ServedModel>
    model(TenantId tenant = kDefaultTenant) const;

    /** The metrics the default tenant's model predicts. */
    std::vector<Metric> metrics() const;

    /** Register a tenant (idempotent by name); see ModelRegistry. */
    TenantId registerTenant(const std::string &name);

    /** The id for @p name, or ModelRegistry::kInvalidTenant. */
    TenantId findTenant(const std::string &name) const;

    /**
     * Hot-swap @p tenant's model. Returns the new registry-global
     * version. In-flight batches finish on the model they pinned; no
     * request fails or blocks. Panics on an invalid artifact.
     */
    std::uint64_t publish(TenantId tenant, ModelArtifact artifact);

    /** publish() to the default tenant. */
    std::uint64_t publish(ModelArtifact artifact)
    {
        return publish(kDefaultTenant, std::move(artifact));
    }

    /** The most recently assigned model version. */
    std::uint64_t currentVersion() const
    {
        return models_.currentVersion();
    }

    /** Number of pool workers (excluding the calling thread). */
    std::size_t poolThreads() const { return pool_.workers(); }

    /** Ingest ring capacity (power of two; see ServeOptions). */
    std::size_t queueCapacity() const { return ring_.capacity(); }

    /**
     * Predict every default-tenant metric for a batch of query
     * points; returns one row per query, in order, served from one
     * model snapshot (a publish() during the batch takes effect on
     * the next one). Not reentrant from inside its own batch
     * (ACDSE_EXCLUDES: callers must not already hold the batch lock).
     */
    std::vector<PredictionRow> predict(
        const std::vector<MicroarchConfig> &queries)
        ACDSE_EXCLUDES(batchMutex_);

    /** Predict a single point (counts as a batch of one). */
    PredictionRow predictOne(const MicroarchConfig &query);

    /**
     * Enqueue one query on the async ingest path. On Accepted the
     * result lands in @p batch at row index batch.submitted()-1 once
     * the drainer completes it (AsyncBatch::wait). QueueFull and
     * UnknownTenant reject without blocking and leave @p batch
     * unchanged. Safe from any thread; one producer per AsyncBatch.
     */
    SubmitStatus submit(AsyncBatch &batch, TenantId tenant,
                        const MicroarchConfig &query);

    /** submit() for the default tenant. */
    SubmitStatus submit(AsyncBatch &batch, const MicroarchConfig &query)
    {
        return submit(batch, kDefaultTenant, query);
    }

    /**
     * Drain up to options.drainBatch queued requests on the calling
     * thread; returns the number served. Only legal with
     * startDrainer=false (CHECKed): it exists so tests can pump the
     * ingest path deterministically.
     */
    std::size_t drainOnce();

    /** Zero the serving counters (e.g. after a warm-up run). */
    void resetStats();

    /**
     * Full snapshot of the service's private metrics registry (names
     * in the file comment) -- the one way to read the serving stats.
     * Callers merge this with the global registry's snapshot for
     * export.
     */
    obs::Snapshot statsSnapshot() const;

    /**
     * Exact per-request latency quantile in milliseconds from the
     * async path's reservoir (0 when no async requests were served or
     * ACDSE_OBS=OFF). @p q in [0, 1].
     */
    double requestLatencyQuantileMs(double q) const;

    /** Write statsSnapshot() to options.statsPath (no-op if unset). */
    void dumpStats() const;

  private:
    /**
     * Predict @p n row-major feature rows into rows[0, n) with
     * @p model: NaN for metrics its artifact lacks, and for every
     * metric when @p model is null (a tenant with nothing published).
     */
    static void predictRows(const ServedModel *model,
                            const double *features, std::size_t n,
                            PredictionRow *rows);

    /** Fold one finished batch into the registry. */
    void recordBatch(std::size_t points, std::uint64_t elapsedNs);

    /** The drainer thread: pop, batch, predict, complete, repeat. */
    void drainLoop();

    /** Serve @p count drained requests against the current table. */
    void serveDrained(ServeRequest *requests, std::size_t count);

    /** Drainer-side cache of the per-tenant served-point counters. */
    obs::Counter &tenantCounter(TenantId tenant);

    ServeOptions options_;
    ModelRegistry models_;
    ThreadPool pool_;

    // Serialises public predict() callers.
    Mutex batchMutex_;

    // Serving metrics: a private registry (declared before the
    // references into it) so per-service stats stay isolated from the
    // global registry and resettable.
    obs::Registry registry_;
    obs::Stage &batchStage_;
    obs::Stage &chunkStage_;
    obs::Stage &drainStage_;
    obs::Counter &pointsServed_;
    obs::Counter &requestsAccepted_;
    obs::Counter &requestsShed_;
    obs::Histogram &batchPoints_;
    obs::Histogram &queueWaitNs_;
    obs::Histogram &requestLatencyNs_;
    obs::Reservoir &latencyReservoir_;

    // The async ingest path: producers push, the drainer pops.
    MpscRing<ServeRequest> ring_;
    std::atomic<bool> stop_{false};

    /**
     * Set by the drainer just before parking on drainCv_; submit()
     * only takes the wake-up lock when it observes the flag, so the
     * steady-state producer path stays lock-free. The park is bounded
     * (CondVar::waitFor), so a lost wake-up costs one deadline, never
     * a hang.
     */
    std::atomic<bool> sleeping_{false};
    Mutex drainMutex_;
    CondVar drainCv_;

    /**
     * Drainer-thread-only: tenant id -> interned per-tenant counter.
     * Not guarded -- single-thread access by construction (the
     * drainer, or the drainOnce() caller when startDrainer=false).
     */
    std::vector<obs::Counter *> tenantPoints_;

    std::thread drainer_;
};

} // namespace acdse
