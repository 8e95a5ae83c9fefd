#include "workloads.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "arch/design_space.hh"
#include "base/binary_io.hh"
#include "base/thread_pool.hh"
#include "core/campaign.hh"
#include "core/evaluation.hh"
#include "explore/explorer.hh"
#include "obs/metrics.hh"
#include "open_loop.hh"
#include "serve/model_store.hh"
#include "serve/prediction_service.hh"
#include "sim/batch.hh"
#include "trace/suites.hh"
#include "trace_log.hh"

namespace pipebench
{
namespace
{

using namespace acdse;
using Span = TraceLog::Span;

// ---------------------------------------------------------------------
// Workload shapes. Fixed here so two commits run identical work; only
// --seed varies the inputs. Everything that decides prediction accuracy
// -- campaign configurations, training subsets, responses, ANN seeds --
// is pinned: drawing it from --seed moves a single program's held-out
// rmae by 20% and the 26-fold LOO mean by 10%, which would bury any
// real change in accuracy under seed noise. --seed draws the explore
// samples, the serving queries and the arrival times.

// new_program: train_then_serve's default shape (8 training programs,
// T = 128, R = 32) plus a 64-point held-out slice of the target.
const std::vector<std::string> kNpTraining{
    "gzip", "crafty", "swim", "mesa", "twolf", "mcf", "equake", "ammp"};
const std::string kNpTarget = "vpr";
constexpr std::size_t kNpT = 128;
constexpr std::size_t kNpR = 32;
constexpr std::size_t kNpHeld = 64;
constexpr std::uint64_t kNpExploreSamples = std::uint64_t{1} << 17;
constexpr std::uint64_t kNpConfigSeed = 0x0e70'9a11;
constexpr std::uint64_t kNpTrainSeed = 0x0e70'7a1e;

// The paper-shaped campaign behind loo_train, explore_space and
// serve_queries: all 26 SPEC CPU 2000 programs at one fixed sample of
// 600 configurations (T = 512 training points, R = 32 responses). It is
// the workloads' data set, not their input, so --seed does not move it
// and it is simulated once per checkout into the campaign cache.
constexpr std::size_t kSpecConfigs = 600;
constexpr std::uint64_t kSpecConfigSeed = 0x5bec'0600;
constexpr std::size_t kT = 512;
constexpr std::size_t kR = 32;
// The LOO experiment's own seed; with the campaign pinned, loo_train has
// no seeded input and every run repeats the same work.
constexpr std::uint64_t kLooSeed = 0x100'5eed;

// The served artifact: 25-ANN ensembles (every SPEC program but the
// target) fitted to the target's responses.
const std::string kArtifactTarget = "vpr";
constexpr std::uint64_t kArtifactSeed = 0xa27f'ac75;

constexpr std::uint64_t kExploreSamples = std::uint64_t{1} << 18;
constexpr std::size_t kServeQueries = std::size_t{1} << 15;
constexpr std::size_t kServeBatch = 256; // acdse-serve's default --batch
// setup_s is the median of several setups: three of the artifact
// workloads' (each trains 100 ANNs), nine of the cheap ones.
constexpr std::size_t kSetups = 3;
constexpr std::size_t kCheapSetups = 9;

// Open loop: the stepped rates, the latency limit, and the rates whose
// numbers are reported by name. One drainer thread runs 100 ANNs per
// request for this artifact (25 per metric), so capacity sat near
// 25-30k requests/s on the 4-vCPU Xeon VM it was tuned on; the ladder
// brackets it.
constexpr std::array<double, 9> kRates{5e3,  10e3, 15e3, 20e3, 25e3,
                                       30e3, 35e3, 40e3, 50e3};
constexpr double kLimitUs = 1000.0;
constexpr double kLowRate = 5e3;
constexpr double kRefRate = 15e3;
constexpr std::array<double, 3> kNamedRates{5e3, 15e3, 25e3};

/** Per-layer metrics, in BENCHMARK.json order, with their units. */
struct LayerDef
{
    const char *name;
    const char *unit;
};
constexpr LayerDef kLayerMetrics[] = {
    {"trace.gen_ms", "ms"},
    {"sim.fill_ms", "ms"},
    {"sim.cells_per_s", "1/s"},
    {"sim.minstr_per_core_s", "Minstr/s"},
    {"sim.fill_share", "share"},
    {"sim.lane_occupancy", "share"},
    {"sim.cacti_hit_ratio", "share"},
    {"ml.train_ms", "ms"},
    {"ml.anns_per_s", "1/s"},
    {"ml.ann_ms.p50", "ms"},
    {"ml.ann_ms.max", "ms"},
    {"ml.train_parallel_eff", "share"},
    {"ml.infer_pts_per_s", "pts/s"},
    {"explore.pts_per_s", "pts/s"},
    {"explore.tilegen_ms", "ms"},
    {"explore.valid_ratio", "share"},
    {"explore.reduce_ms", "ms"},
    {"core.fit_ms", "ms"},
    {"core.score_ms", "ms"},
    {"core.cache_io_ms", "ms"},
    {"serve.sync_pts_per_s", "pts/s"},
    {"serve.drain_batch_pts.mean", "pts"},
    {"serve.in_service_us.p50", "us"},
    {"serve.in_service_us.p99", "us"},
    {"serve.p50_us", "us"},
    {"serve.p99_us.5k", "us"},
    {"serve.p99_us.15k", "us"},
    {"serve.p99_us.25k", "us"},
    {"serve.max_rps", "1/s"},
    {"serve.gen_late_us.p99", "us"},
    {"serve.shed", "count"},
    {"base.pool_wait_us.p99", "us"},
    {"obs.overhead_pct", "%"},
    {"obs.remainder_ms", "ms"},
};

std::uint64_t
mix(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

const char *
shortName(Metric metric)
{
    switch (metric) {
      case Metric::Cycles: return "cycles";
      case Metric::Energy: return "energy";
      case Metric::Ed: return "ed";
      default: return "edd";
    }
}

double
secondsSince(std::uint64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) / 1e9;
}

/** rmae and correlation per metric, in kAllMetrics order. */
struct Quality
{
    std::array<double, kNumMetrics> rmae{};
    std::array<double, kNumMetrics> corr{};

    std::uint64_t digest() const
    {
        std::vector<double> all(rmae.begin(), rmae.end());
        all.insert(all.end(), corr.begin(), corr.end());
        return fnv1aDoubles(all);
    }
};

/** Per-occurrence samples of the per-layer metrics; reported as medians. */
class LayerSamples
{
  public:
    void add(const std::string &name, double value)
    {
        samples_[name].push_back(value);
    }

    /** Median of the samples; 0 when the layer never did this work. */
    double value(const std::string &name) const
    {
        const auto it = samples_.find(name);
        return it == samples_.end() ? 0.0 : median(it->second);
    }

  private:
    std::map<std::string, std::vector<double>> samples_;
};

/** Difference of the global obs registry across a region. */
class ObsWindow
{
  public:
    ObsWindow() : before_(obs::Registry::global().snapshot()) {}

    obs::Snapshot delta() const
    {
        return obs::diff(before_, obs::Registry::global().snapshot());
    }

  private:
    obs::Snapshot before_;
};

std::uint64_t
counterOf(const obs::Snapshot &snap, const std::string &name)
{
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

obs::StageSnapshot
stageOf(const obs::Snapshot &snap, const std::string &name)
{
    const auto it = snap.stages.find(name);
    return it == snap.stages.end() ? obs::StageSnapshot{} : it->second;
}

obs::HistogramSnapshot
histogramOf(const obs::Snapshot &snap, const std::string &name)
{
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? obs::HistogramSnapshot{}
                                       : it->second;
}

/** Values separated by spaces, for info lines. */
std::string
joined(const std::vector<double> &values)
{
    std::string out;
    for (double v : values)
        out += (out.empty() ? "" : " ") + std::to_string(v);
    return out;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** State shared by one run's workload code. */
struct Ctx
{
    Ctx(const RunOptions &options, Report &out) : opt(options), report(out)
    {
    }

    const RunOptions &opt;
    Report &report;
    TraceLog log{false};
    LayerSamples layers;
    std::size_t threads = ThreadPool::global().threads();
    /** Per output: the first digest seen, and whether all repeats matched. */
    std::map<std::string, std::pair<std::string, bool>> digests;

    /** Record the digest of one output; every repeat must match it. */
    void digest(const std::string &name, std::uint64_t value)
    {
        const std::string hex = hex64(value);
        const auto [it, fresh] = digests.try_emplace(name, hex, true);
        if (fresh)
            report.info("digest." + name, hex);
        it->second.second = it->second.second && it->second.first == hex;
    }

    /** One check per digested output: identical on every repetition. */
    void checkDigests()
    {
        for (const auto &[name, first] : digests) {
            report.check("identical " + name + " on every repetition",
                         first.second);
        }
    }
};

/**
 * Timed repetitions: call rep(traced) until @p seconds of repetitions
 * have run and at least @p minReps did. rep returns its timed seconds.
 * A traced run alternates untraced and traced repetitions so the
 * tracing overhead compares like with like. Returns the untraced
 * repetitions' times.
 */
std::vector<double>
repeat(Ctx &ctx, double seconds, std::size_t minReps,
       const std::function<double(bool)> &rep)
{
    const bool tracing = ctx.opt.trace;
    if (tracing)
        minReps = std::max<std::size_t>(minReps, 4);
    std::vector<double> plain, traced, cpu;
    const std::uint64_t start = nowNs();
    for (std::size_t i = 0;
         i < minReps || secondsSince(start) < seconds; ++i) {
        const bool on = tracing && i % 2 == 1;
        ctx.log.setEnabled(on);
        const double cpu0 = processCpuSeconds();
        (on ? traced : plain).push_back(rep(on));
        if (!on)
            cpu.push_back(processCpuSeconds() - cpu0);
        ctx.log.setEnabled(tracing);
    }
    if (tracing) {
        ctx.layers.add("obs.overhead_pct",
                       100.0 * (median(traced) / median(plain) - 1.0));
    }
    ctx.report.info("repetition walls (s)", joined(plain));
    ctx.report.info("repetition wall", describe(plain, "s"));
    ctx.report.info("repetition cpu (s)", joined(cpu));
    ctx.report.operations(plain.size() + traced.size(), 0);
    return plain;
}

/** Reconcile the layers' self time inside one root span. */
void
reconcile(Ctx &ctx, int root)
{
    if (root < 0)
        return;
    const auto self = ctx.log.selfMsByLayer(root);
    const double wall = ctx.log.ms(root);
    std::string line = ctx.log.spans()[static_cast<std::size_t>(root)].name +
                       " " + std::to_string(wall) + " ms =";
    double sum = 0.0;
    for (const auto &[layer, ms] : self) {
        sum += ms;
        line += " " + layer + " " + std::to_string(ms);
    }
    line += " (sum " + std::to_string(sum) + ")";
    ctx.report.info("reconcile", line);
    const auto bench = self.find("bench");
    ctx.layers.add("obs.remainder_ms",
                   bench == self.end() ? 0.0 : bench->second);
}

int
lastSpan(const Ctx &ctx, const std::string &name)
{
    const auto found = ctx.log.find(name);
    return found.empty() ? -1 : found.back();
}

double
lastSpanMs(const Ctx &ctx, const std::string &name)
{
    const int at = lastSpan(ctx, name);
    return at < 0 ? 0.0 : ctx.log.ms(at);
}

// ---------------------------------------------------------------------
// Layer recorders (traced repetitions only).

void
recordSim(Ctx &ctx, const obs::Snapshot &d, double fillMs)
{
    const auto batch = stageOf(d, "sim/batch");
    const double hits = static_cast<double>(counterOf(d, "sim/cacti-hit"));
    const double misses =
        static_cast<double>(counterOf(d, "sim/cacti-miss"));
    ctx.layers.add("sim.fill_ms", fillMs);
    ctx.layers.add("sim.cells_per_s",
                   ratio(static_cast<double>(
                             counterOf(d, "campaign/sims-run")),
                         fillMs / 1e3));
    ctx.layers.add("sim.minstr_per_core_s",
                   ratio(static_cast<double>(
                             counterOf(d, "sim/instructions")) /
                             1e6,
                         static_cast<double>(batch.totalNs) / 1e9));
    ctx.layers.add(
        "sim.lane_occupancy",
        ratio(static_cast<double>(counterOf(d, "sim/lanes-occupied")),
              static_cast<double>(batch.count * kSimLanes)));
    ctx.layers.add("sim.cacti_hit_ratio", ratio(hits, hits + misses));
}

void
recordPool(Ctx &ctx, const obs::Snapshot &d)
{
    ctx.layers.add("base.pool_wait_us.p99",
                   histogramOf(d, "pool/queue-wait-ns").quantile(0.99) /
                       1e3);
}

void
recordTraining(Ctx &ctx, double trainMs, double cpuS, std::size_t anns,
               const std::vector<double> &annMs)
{
    ctx.layers.add("ml.train_ms", trainMs);
    ctx.layers.add("ml.anns_per_s",
                   ratio(static_cast<double>(anns), trainMs / 1e3));
    ctx.layers.add("ml.train_parallel_eff",
                   ratio(cpuS, trainMs / 1e3 *
                                   static_cast<double>(ctx.threads)));
    if (!annMs.empty()) {
        ctx.layers.add("ml.ann_ms.p50", median(annMs));
        ctx.layers.add("ml.ann_ms.max",
                       *std::max_element(annMs.begin(), annMs.end()));
    }
}

/**
 * Offline-train one ensemble through trainOffline and return it. When
 * traced, the per-ANN times come from the library's train/program/<i>
 * stages, which trainOffline records once per ANN.
 */
ArchitectureCentricPredictor
trainEnsemble(const std::vector<ProgramTrainingSet> &sets,
              const ArchCentricOptions &options, bool traced,
              std::vector<double> &annMs)
{
    std::optional<ObsWindow> window;
    if (traced)
        window.emplace();
    ArchitectureCentricPredictor predictor(options);
    predictor.trainOffline(sets);
    if (window) {
        const obs::Snapshot d = window->delta();
        for (std::size_t i = 0; i < sets.size(); ++i) {
            annMs.push_back(static_cast<double>(
                                stageOf(d, "train/program/" +
                                               std::to_string(i))
                                    .totalNs) /
                            1e6);
        }
    }
    return predictor;
}

/**
 * Metric-points per second of predictBatchFromFeatures on one thread,
 * over a fixed block of seeded design points: the inference kernel's
 * own rate, apart from tiling and queueing.
 */
double
probeInference(const std::vector<const ArchitectureCentricPredictor *> &ps,
               std::uint64_t seed)
{
    constexpr std::size_t kBlock = 8192;
    const auto configs = DesignSpace::sampleValidConfigs(kBlock, seed);
    std::vector<double> features(kBlock * kNumParams);
    for (std::size_t i = 0; i < kBlock; ++i)
        configs[i].featuresInto(&features[i * kNumParams]);
    std::vector<double> out(kBlock);
    BatchPredictScratch scratch;
    std::vector<double> rates;
    for (int round = 0; round < 4; ++round) {
        const std::uint64_t start = nowNs();
        for (const auto *p : ps)
            p->predictBatchFromFeatures(features.data(), kBlock,
                                        out.data(), scratch);
        if (round > 0) { // round 0 warms the scratch buffers
            rates.push_back(static_cast<double>(ps.size() * kBlock) /
                            secondsSince(start));
        }
    }
    return median(rates);
}

/**
 * Tile generation and reduction of one explore pass. Generation is the
 * time one thread takes to regenerate every tile of the pass through
 * TileGenerator::generate; the reduction is the library's serial
 * explore/reduce stage in @p d, the obs delta around the pass.
 */
void
recordExplore(Ctx &ctx, const explore::ExploreOptions &options,
              const explore::ExploreResult &result, const obs::Snapshot &d)
{
    const explore::TileGenerator generator(options.space, options.mode,
                                           options.tileSize,
                                           options.samples, options.seed);
    std::vector<explore::PointValues> values;
    std::vector<double> features;
    const std::uint64_t start = nowNs();
    for (std::size_t t = 0; t < generator.tiles(); ++t)
        generator.generate(t, values, features);
    ctx.layers.add("explore.tilegen_ms", secondsSince(start) * 1e3);
    ctx.layers.add("explore.reduce_ms",
                   static_cast<double>(
                       stageOf(d, "explore/reduce").totalNs) /
                       1e6);
    ctx.layers.add("explore.valid_ratio",
                   ratio(static_cast<double>(result.stats.predicted),
                         static_cast<double>(result.stats.generated)));
}

// ---------------------------------------------------------------------
// Output checks.

std::uint64_t
campaignDigest(const Campaign &campaign)
{
    std::vector<double> values;
    values.reserve(campaign.numCells() * 2);
    for (std::size_t cell = 0; cell < campaign.numCells(); ++cell) {
        values.push_back(campaign.cellResult(cell).cycles);
        values.push_back(campaign.cellResult(cell).energyNj);
    }
    return fnv1aDoubles(values);
}

/** Frontier ascending in x and strictly descending in y; top-k sorted. */
void
checkExplore(Ctx &ctx, const explore::ExploreResult &result)
{
    const auto &front = result.frontier;
    bool nonDominated = !front.empty();
    for (std::size_t i = 1; i < front.size(); ++i) {
        nonDominated = nonDominated && front[i].x > front[i - 1].x &&
                       front[i].y < front[i - 1].y;
    }
    bool sorted = true;
    for (const auto &list : result.topk) {
        sorted = sorted && !list.empty() &&
                 std::is_sorted(list.begin(), list.end(),
                                [](const auto &a, const auto &b) {
                                    return a.predicted < b.predicted;
                                });
    }
    ctx.report.check("explore frontier is non-dominated", nonDominated,
                     std::to_string(front.size()) + " points");
    ctx.report.check("explore top-k lists are sorted", sorted);

    std::string bytes;
    for (const auto &point : front) {
        bytes += point.config.key();
        bytes.append(reinterpret_cast<const char *>(&point.x),
                     sizeof(point.x));
        bytes.append(reinterpret_cast<const char *>(&point.y),
                     sizeof(point.y));
    }
    ctx.digest("frontier", fnv1a64(bytes));
}

/** The artifact reloaded from its bytes predicts bit-identically. */
void
checkReload(Ctx &ctx, const ModelArtifact &artifact,
            const std::string &bytes,
            const std::vector<MicroarchConfig> &probes)
{
    const ModelArtifact loaded = decodeArtifact(bytes);
    std::vector<double> features(probes.size() * kNumParams);
    for (std::size_t i = 0; i < probes.size(); ++i)
        probes[i].featuresInto(&features[i * kNumParams]);
    bool same = loaded.metrics() == artifact.metrics();
    BatchPredictScratch scratch;
    for (Metric metric : artifact.metrics()) {
        std::vector<double> a(probes.size()), b(probes.size());
        artifact.predictor(metric).predictBatchFromFeatures(
            features.data(), probes.size(), a.data(), scratch);
        loaded.predictor(metric).predictBatchFromFeatures(
            features.data(), probes.size(), b.data(), scratch);
        same = same && std::memcmp(a.data(), b.data(),
                                    a.size() * sizeof(double)) == 0;
    }
    ctx.report.check("reloaded artifact predicts bit-identically", same,
                     std::to_string(probes.size()) + " points x " +
                         std::to_string(artifact.metrics().size()) +
                         " metrics");
    ctx.digest("artifact", fnv1a64(bytes));
}

void
emitEndToEnd(Ctx &ctx, const std::vector<double> &setups, double wallS,
             const Quality &quality)
{
    Report &r = ctx.report;
    r.info("setup times (s)", joined(setups));
    r.metric("setup_s", median(setups), "s");
    r.metric("wall_s", wallS, "s");
    r.metric("peak_rss_mb", peakRssMb(), "MB");
    for (std::size_t k = 0; k < kNumMetrics; ++k) {
        r.metric(std::string("rmae_pct.") + shortName(kAllMetrics[k]),
                 quality.rmae[k], "%");
    }
    r.metric("corr.cycles", quality.corr[0], "r");
    r.metric("corr.edd", quality.corr[3], "r");
}

void
emitLayers(Ctx &ctx)
{
    for (const LayerDef &def : kLayerMetrics)
        ctx.report.metric(def.name, ctx.layers.value(def.name), def.unit);
}

std::vector<std::size_t>
iota(std::size_t begin, std::size_t end)
{
    std::vector<std::size_t> out(end - begin);
    std::iota(out.begin(), out.end(), begin);
    return out;
}

std::vector<ProgramTrainingSet>
trainingSets(const Campaign &campaign,
             const std::vector<std::string> &programs, Metric metric,
             const std::vector<std::size_t> &idx)
{
    const auto configs = campaign.configsAt(idx);
    std::vector<ProgramTrainingSet> sets;
    for (const auto &name : programs) {
        ProgramTrainingSet set;
        set.name = name;
        set.configs = configs;
        set.values =
            campaign.metricAt(campaign.programIndex(name), metric, idx);
        sets.push_back(std::move(set));
    }
    return sets;
}

/** One predictor per metric, trained, fitted and scored for a target. */
struct Fitted
{
    std::vector<ArchitectureCentricPredictor> predictors; //!< kAllMetrics
    Quality quality;
};

/**
 * The paper's two phases for one target: offline-train an ensemble per
 * metric on @p training (T = trainIdx), fit the target's responses
 * (respIdx), then score every metric on testIdx.
 */
Fitted
trainFitScore(Ctx &ctx, const Campaign &campaign,
              const std::vector<std::string> &training,
              const std::string &target, const ArchCentricOptions &options,
              const std::vector<std::size_t> &trainIdx,
              const std::vector<std::size_t> &respIdx,
              const std::vector<std::size_t> &testIdx)
{
    const bool traced = ctx.log.enabled();
    const std::size_t row = campaign.programIndex(target);
    Fitted out;
    std::vector<double> annMs;
    const double cpu0 = processCpuSeconds();
    {
        const Span span(ctx.log, "ml.train");
        for (Metric metric : kAllMetrics) {
            out.predictors.push_back(trainEnsemble(
                trainingSets(campaign, training, metric, trainIdx), options,
                traced, annMs));
        }
    }
    if (traced) {
        recordTraining(ctx, lastSpanMs(ctx, "ml.train"),
                       processCpuSeconds() - cpu0,
                       training.size() * kNumMetrics, annMs);
    }
    {
        const Span span(ctx.log, "core.fit");
        const auto configs = campaign.configsAt(respIdx);
        for (std::size_t k = 0; k < kNumMetrics; ++k) {
            out.predictors[k].fitResponses(
                configs, campaign.metricAt(row, kAllMetrics[k], respIdx));
        }
    }
    {
        const Span span(ctx.log, "core.score");
        for (std::size_t k = 0; k < kNumMetrics; ++k) {
            const PredictionQuality q = scorePredictionsBatched(
                campaign, row, kAllMetrics[k], testIdx, out.predictors[k]);
            out.quality.rmae[k] = q.rmaePercent;
            out.quality.corr[k] = q.correlation;
        }
    }
    if (traced) {
        ctx.layers.add("core.fit_ms", lastSpanMs(ctx, "core.fit"));
        ctx.layers.add("core.score_ms", lastSpanMs(ctx, "core.score"));
    }
    return out;
}

// ---------------------------------------------------------------------
// new_program: nothing -> predicted frontier for one new program.

void
newProgram(Ctx &ctx)
{
    const std::uint64_t seed = ctx.opt.seed;
    std::vector<std::string> programs = kNpTraining;
    programs.push_back(kNpTarget);
    CampaignOptions co;
    co.numConfigs = kNpT + kNpR + kNpHeld;
    co.configSeed = kNpConfigSeed;
    co.cacheDir = ctx.opt.workDir; // never read: computeCells skips it
    co.quiet = true;
    ArchCentricOptions ao;
    ao.programModel.mlp.seed = kNpTrainSeed;
    explore::ExploreOptions eo;
    eo.samples = kNpExploreSamples;
    eo.seed = mix(seed, 3);

    // The configurations are a uniform sample, so a prefix split is a
    // random split: T training points, R responses, the rest held out.
    const auto trainIdx = iota(0, kNpT);
    const auto respIdx = iota(kNpT, kNpT + kNpR);
    const auto heldIdx = iota(kNpT + kNpR, co.numConfigs);

    std::vector<double> setups;
    Quality quality;
    const auto rep = [&](bool traced) {
        // Setup: read the programs (generate their traces).
        const std::uint64_t t0 = nowNs();
        std::optional<Campaign> campaign;
        {
            const Span setup(ctx.log, "bench.setup");
            const Span span(ctx.log, "trace.gen");
            campaign.emplace(programs, co);
            for (std::size_t p = 0; p < programs.size(); ++p)
                campaign->trace(p);
        }
        setups.push_back(secondsSince(t0));
        if (traced)
            ctx.layers.add("trace.gen_ms", lastSpanMs(ctx, "trace.gen"));

        Fitted fitted;
        explore::ExploreResult explored;
        double exploreS = 0.0;
        std::optional<ObsWindow> repWindow;
        if (traced)
            repWindow.emplace();
        const std::uint64_t t1 = nowNs();
        {
            const Span root(ctx.log, "bench.rep");
            {
                std::optional<ObsWindow> window;
                if (traced)
                    window.emplace();
                {
                    const Span span(ctx.log, "sim.fill");
                    campaign->computeCells(iota(0, campaign->numCells()));
                }
                if (window)
                    recordSim(ctx, window->delta(),
                              lastSpanMs(ctx, "sim.fill"));
            }
            fitted = trainFitScore(ctx, *campaign, kNpTraining, kNpTarget,
                                   ao, trainIdx, respIdx, heldIdx);
            {
                const Span span(ctx.log, "explore.run");
                std::vector<explore::MetricEnsemble> ensembles;
                for (std::size_t k = 0; k < kNumMetrics; ++k) {
                    ensembles.push_back(
                        {kAllMetrics[k], &fitted.predictors[k]});
                }
                const std::uint64_t e0 = nowNs();
                explored = explore::explore(ensembles, eo);
                exploreS = secondsSince(e0);
            }
        }
        const double wall = secondsSince(t1);

        if (traced) {
            const obs::Snapshot d = repWindow->delta();
            recordPool(ctx, d);
            ctx.layers.add("sim.fill_share",
                           lastSpanMs(ctx, "sim.fill") /
                               lastSpanMs(ctx, "bench.rep"));
            reconcile(ctx, lastSpan(ctx, "bench.rep"));
            std::vector<const ArchitectureCentricPredictor *> ps;
            for (const auto &p : fitted.predictors)
                ps.push_back(&p);
            const double infer = probeInference(ps, mix(seed, 9));
            ctx.layers.add("ml.infer_pts_per_s", infer);
            recordExplore(ctx, eo, explored, d);
            ctx.layers.add("explore.pts_per_s",
                           static_cast<double>(explored.stats.predicted) /
                               exploreS);
        }

        // Checks and digests, outside the timed region.
        ctx.digest("campaign", campaignDigest(*campaign));
        quality = fitted.quality;
        ctx.digest("quality", quality.digest());
        ModelArtifact artifact;
        artifact.setTag("pipebench new_program");
        for (std::size_t k = 0; k < kNumMetrics; ++k)
            artifact.add(kAllMetrics[k], fitted.predictors[k]);
        checkReload(ctx, artifact, encodeArtifact(artifact),
                    campaign->configsAt(heldIdx));
        checkExplore(ctx, explored);
        return wall;
    };

    const auto walls = repeat(ctx, ctx.opt.seconds, 3, rep);
    if (!ctx.opt.trace)
        emitEndToEnd(ctx, setups, median(walls), quality);
}

// ---------------------------------------------------------------------
// The paper-shaped campaign and artifact.

/** The 26-program campaign over @p workDir's cache. */
std::unique_ptr<Campaign>
makeSpecCampaign(const std::string &workDir)
{
    CampaignOptions co;
    co.numConfigs = kSpecConfigs;
    co.configSeed = kSpecConfigSeed;
    co.cacheDir = workDir;
    co.quiet = true;
    return std::make_unique<Campaign>(programNames(Suite::SpecCpu2000), co);
}

/**
 * The 26-program campaign, loaded from its cache. prepareWorkload()
 * fills the cache in a process of its own, so the fill is never timed
 * and never counts in a measured process's peak RSS.
 */
std::unique_ptr<Campaign>
specCampaign(Ctx &ctx)
{
    auto campaign = makeSpecCampaign(ctx.opt.workDir);
    if (!std::filesystem::exists(campaign->cachePath())) {
        throw std::runtime_error("no campaign cache at " +
                                 campaign->cachePath() +
                                 "; run with --prepare first");
    }
    {
        const Span span(ctx.log, "core.cache_io");
        campaign->ensureComputed();
    }
    if (ctx.log.enabled())
        ctx.layers.add("core.cache_io_ms", lastSpanMs(ctx, "core.cache_io"));
    ctx.digest("campaign", campaignDigest(*campaign));
    return campaign;
}

struct PaperArtifact
{
    ModelArtifact artifact;
    std::string bytes;
    Quality quality;
};

/**
 * Train and fit the served artifact: per metric, 25 ANNs (every SPEC
 * program but the target) at T = 512 and an R = 32 response fit;
 * quality is measured on every target configuration that was not a
 * response, as the paper's methodology does.
 */
PaperArtifact
paperArtifact(Ctx &ctx, const Campaign &campaign)
{
    const auto perm = sampleIndices(kSpecConfigs, kSpecConfigs,
                                    kArtifactSeed);
    const std::vector<std::size_t> trainIdx(perm.begin(),
                                            perm.begin() + kT);
    const std::vector<std::size_t> respIdx(perm.begin() + kT,
                                           perm.begin() + kT + kR);
    std::vector<std::size_t> testIdx(perm.begin(), perm.begin() + kT);
    testIdx.insert(testIdx.end(), perm.begin() + kT + kR, perm.end());
    std::sort(testIdx.begin(), testIdx.end());

    std::vector<std::string> training;
    for (const auto &name : campaign.programs()) {
        if (name != kArtifactTarget)
            training.push_back(name);
    }
    ArchCentricOptions ao;
    ao.programModel.mlp.seed = kArtifactSeed;
    Fitted fitted = trainFitScore(ctx, campaign, training, kArtifactTarget,
                                  ao, trainIdx, respIdx, testIdx);

    PaperArtifact out;
    out.artifact.setTag("pipebench " + kArtifactTarget + " T=512 R=32");
    for (std::size_t k = 0; k < kNumMetrics; ++k)
        out.artifact.add(kAllMetrics[k], std::move(fitted.predictors[k]));
    out.quality = fitted.quality;
    out.bytes = encodeArtifact(out.artifact);
    checkReload(ctx, out.artifact, out.bytes, campaign.configsAt(testIdx));
    ctx.digest("quality", out.quality.digest());
    return out;
}

/**
 * Set the artifact workloads up kSetups times (setup_s is the median)
 * and keep the last.
 */
PaperArtifact
setUpArtifact(Ctx &ctx, std::vector<double> &setups)
{
    PaperArtifact kept;
    for (std::size_t i = 0; i < kSetups; ++i) {
        const std::uint64_t start = nowNs();
        const Span span(ctx.log, "bench.setup");
        const auto campaign = specCampaign(ctx);
        kept = paperArtifact(ctx, *campaign);
        setups.push_back(secondsSince(start));
    }
    return kept;
}

// ---------------------------------------------------------------------
// loo_train: the paper's leave-one-out accuracy experiment.

void
looTrain(Ctx &ctx)
{
    std::vector<double> setups;
    std::unique_ptr<Campaign> campaign;
    for (std::size_t i = 0; i < kCheapSetups; ++i) {
        const std::uint64_t start = nowNs();
        const Span span(ctx.log, "bench.setup");
        campaign = specCampaign(ctx);
        setups.push_back(secondsSince(start));
    }
    const auto all = iota(0, campaign->programs().size());

    Quality quality;
    std::unique_ptr<Evaluator> trained; // the last repetition's models
    const auto rep = [&](bool traced) {
        std::optional<ObsWindow> window;
        if (traced)
            window.emplace();
        std::vector<double> folds;
        double cpuS = 0.0;
        const std::uint64_t t0 = nowNs();
        auto evaluator = std::make_unique<Evaluator>(*campaign);
        {
            const Span root(ctx.log, "bench.rep");
            const double cpu0 = processCpuSeconds();
            {
                const Span span(ctx.log, "ml.train");
                for (Metric metric : kAllMetrics)
                    evaluator->warmProgramModels(all, metric, kT, kLooSeed);
            }
            cpuS = processCpuSeconds() - cpu0;
            const Span span(ctx.log, "core.loo");
            for (std::size_t k = 0; k < kNumMetrics; ++k) {
                const auto results = evaluator->evaluateArchCentricSweep(
                    all, kAllMetrics[k], kT, kR, kLooSeed);
                double rmae = 0.0, corr = 0.0;
                for (const auto &q : results) {
                    rmae += q.rmaePercent;
                    corr += q.correlation;
                    folds.push_back(q.rmaePercent);
                    folds.push_back(q.correlation);
                }
                const auto n = static_cast<double>(results.size());
                quality.rmae[k] = rmae / n;
                quality.corr[k] = corr / n;
            }
        }
        const double wall = secondsSince(t0);
        if (traced) {
            const obs::Snapshot d = window->delta();
            recordPool(ctx, d);
            recordTraining(ctx, lastSpanMs(ctx, "ml.train"), cpuS,
                           all.size() * kNumMetrics, {});
            // Fits run on pool workers inside the sweep: thread time.
            ctx.layers.add("core.fit_ms",
                           static_cast<double>(
                               stageOf(d, "fit/responses").totalNs) /
                               1e6);
            ctx.layers.add("core.score_ms", lastSpanMs(ctx, "core.loo"));
            reconcile(ctx, lastSpan(ctx, "bench.rep"));
        }
        ctx.digest("loo_folds", fnv1aDoubles(folds));
        trained = std::move(evaluator);
        return wall;
    };
    const auto walls = repeat(ctx, ctx.opt.seconds, 3, rep);

    if (ctx.opt.trace) {
        // The kernel rate of the first fold's fitted ensembles, built
        // from the models the last repetition trained.
        const auto respIdx = sampleIndices(kSpecConfigs, kR, kLooSeed);
        std::vector<ArchitectureCentricPredictor> fitted;
        for (Metric metric : kAllMetrics) {
            auto p = trained->makeOfflinePredictor(
                trained->leaveOneOut(0), metric, kT, kLooSeed);
            p.fitResponses(campaign->configsAt(respIdx),
                           campaign->metricAt(0, metric, respIdx));
            fitted.push_back(std::move(p));
        }
        std::vector<const ArchitectureCentricPredictor *> ps;
        for (const auto &p : fitted)
            ps.push_back(&p);
        ctx.layers.add("ml.infer_pts_per_s",
                       probeInference(ps, mix(ctx.opt.seed, 9)));
    } else {
        emitEndToEnd(ctx, setups, median(walls), quality);
    }
}

// ---------------------------------------------------------------------
// explore_space: sampled exploration of the full valid space.

void
exploreSpace(Ctx &ctx)
{
    std::vector<double> setups;
    const PaperArtifact paper = setUpArtifact(ctx, setups);
    std::vector<explore::MetricEnsemble> ensembles;
    for (const auto &entry : paper.artifact.entries())
        ensembles.push_back({entry.metric, &entry.predictor});
    explore::ExploreOptions eo;
    eo.samples = kExploreSamples;
    eo.seed = mix(ctx.opt.seed, 6);

    const auto rep = [&](bool traced) {
        std::optional<ObsWindow> window;
        if (traced)
            window.emplace();
        explore::ExploreResult result;
        const std::uint64_t t0 = nowNs();
        {
            const Span root(ctx.log, "bench.rep");
            const Span span(ctx.log, "explore.run");
            result = explore::explore(ensembles, eo);
        }
        const double wall = secondsSince(t0);
        if (traced) {
            ctx.layers.add("explore.pts_per_s",
                           static_cast<double>(result.stats.predicted) /
                               wall);
            const obs::Snapshot d = window->delta();
            recordPool(ctx, d);
            reconcile(ctx, lastSpan(ctx, "bench.rep"));
            recordExplore(ctx, eo, result, d);
        }
        checkExplore(ctx, result);
        return wall;
    };
    const auto walls = repeat(ctx, ctx.opt.seconds, 3, rep);
    if (ctx.opt.trace) {
        std::vector<const ArchitectureCentricPredictor *> ps;
        for (const auto &e : ensembles)
            ps.push_back(e.predictor);
        ctx.layers.add("ml.infer_pts_per_s",
                       probeInference(ps, mix(ctx.opt.seed, 9)));
    } else {
        emitEndToEnd(ctx, setups, median(walls), paper.quality);
    }
}

// ---------------------------------------------------------------------
// serve_queries: closed-loop predict() batches, then an open-loop
// submit() sweep at stepped rates.

struct SpinClock
{
    std::uint64_t now() const { return nowNs(); }

    void waitUntil(std::uint64_t t) const
    {
        for (;;) {
            const std::uint64_t n = nowNs();
            if (n >= t)
                return;
            // Sleep through long gaps; spin the last 100 us, which a
            // sleep cannot hit.
            if (t - n > 200'000)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(t - n - 100'000));
        }
    }
};

struct StepResult
{
    std::size_t sent = 0;
    std::size_t shed = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    std::string latency;     //!< median and tail, by the percentile rule
    double tailMeanUs = 0.0; //!< mean latency of the last fifth
    double lateP99 = 0.0;    //!< generator lateness
    bool pass = false;
    obs::Snapshot serveDelta;
};

/**
 * One open-loop step: a seeded Poisson schedule at @p rate, sent by one
 * generator thread; this thread collects completions in order. Every
 * request has its own AsyncBatch, so its completion time is its own.
 */
StepResult
openLoopStep(PredictionService &service,
             const std::vector<MicroarchConfig> &queries, double rate,
             std::uint64_t durationNs, std::uint64_t seed)
{
    StepResult out;
    const auto due = poissonSchedule(rate, durationNs, seed);
    const std::size_t n = due.size();
    std::vector<std::unique_ptr<AsyncBatch>> slots(n);
    for (auto &slot : slots)
        slot = std::make_unique<AsyncBatch>(1);
    std::vector<std::uint8_t> accepted(n, 0);
    std::vector<std::uint64_t> sent, done(n, 0);
    std::atomic<std::size_t> published{0};
    std::exception_ptr error;

    const obs::Snapshot before = service.statsSnapshot();
    const std::uint64_t origin = nowNs() + 2'000'000;
    std::thread generator([&] {
        try {
            SpinClock clock;
            runSchedule(
                due, origin, clock,
                [&](std::size_t i) {
                    accepted[i] = service.submit(
                                      *slots[i],
                                      queries[i % queries.size()]) ==
                                  SubmitStatus::Accepted;
                    published.store(i + 1, std::memory_order_release);
                    published.notify_one();
                },
                sent);
        } catch (...) {
            error = std::current_exception();
            published.store(n, std::memory_order_release);
            published.notify_one();
        }
    });
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t seen = published.load(std::memory_order_acquire);
             seen <= i; seen = published.load(std::memory_order_acquire))
            published.wait(seen, std::memory_order_acquire);
        if (!accepted[i])
            continue;
        slots[i]->wait();
        done[i] = nowNs();
    }
    generator.join();
    if (error)
        std::rethrow_exception(error);
    out.serveDelta = obs::diff(before, service.statsSnapshot());

    out.sent = n;
    out.shed = static_cast<std::size_t>(
        std::count(accepted.begin(), accepted.end(), 0));
    const auto lat = dueTimeLatenciesUs(due, origin, done);
    std::vector<double> late(n);
    for (std::size_t i = 0; i < n; ++i)
        late[i] = static_cast<double>(sent[i] - (origin + due[i])) / 1e3;
    out.latency = describe(lat, "us");
    out.p50 = median(lat);
    out.p99 = quantile(lat, 0.99);
    out.lateP99 = quantile(late, 0.99);
    const std::size_t tail = lat.size() - lat.size() / 5;
    double sum = 0.0;
    for (std::size_t i = tail; i < lat.size(); ++i)
        sum += lat[i];
    out.tailMeanUs = ratio(sum, static_cast<double>(lat.size() - tail));
    out.pass = out.shed == 0 && out.p99 <= kLimitUs &&
               out.tailMeanUs <= kLimitUs;
    return out;
}

std::string
rateLabel(double rate)
{
    return std::to_string(static_cast<long>(rate / 1e3)) + "k";
}

void
serveQueries(Ctx &ctx)
{
    std::vector<double> setups;
    const PaperArtifact paper = setUpArtifact(ctx, setups);
    // One serving thread: predict() then runs each 256-point batch on
    // the caller. With pool workers, every batch wakes idle threads,
    // and on a shared VM a wake-up costs up to milliseconds when the
    // host is busy: the same repetition measured 0.5 s on a calm host
    // and 1.5-2.7 s on a busy one, with CPU time equal to wall time.
    // The metric would time the host's scheduler, not the service.
    ServeOptions options;
    options.threads = 1;
    PredictionService service(decodeArtifact(paper.bytes), options);

    const auto queries =
        DesignSpace::sampleValidConfigs(kServeQueries, mix(ctx.opt.seed, 7));

    // Async rows equal sync rows for the same queries and model version.
    {
        const std::vector<MicroarchConfig> probe(queries.begin(),
                                                 queries.begin() + 512);
        const auto syncRows = service.predict(probe);
        AsyncBatch batch(probe.size());
        std::size_t refused = 0;
        for (const auto &q : probe)
            refused += service.submit(batch, q) != SubmitStatus::Accepted;
        batch.wait();
        bool same = refused == 0;
        for (std::size_t i = 0; same && i < probe.size(); ++i) {
            same = std::memcmp(&syncRows[i].values,
                               &batch.rows()[i].values,
                               sizeof(syncRows[i].values)) == 0 &&
                   batch.versions()[i] == service.currentVersion();
        }
        ctx.report.check("async rows equal sync predict() rows", same,
                         std::to_string(probe.size()) + " queries");
        ctx.report.operations(2 * probe.size(), refused);
    }

    // Closed loop: one caller, acdse-serve's batch size, back to back.
    const auto rep = [&](bool traced) {
        std::optional<ObsWindow> window;
        if (traced)
            window.emplace();
        std::vector<double> values;
        values.reserve(queries.size() * kNumMetrics);
        const std::uint64_t t0 = nowNs();
        {
            const Span root(ctx.log, "bench.rep");
            for (std::size_t b = 0; b < queries.size(); b += kServeBatch) {
                const std::vector<MicroarchConfig> batch(
                    queries.begin() + static_cast<std::ptrdiff_t>(b),
                    queries.begin() + static_cast<std::ptrdiff_t>(
                                          b + kServeBatch));
                const Span span(ctx.log, "serve.predict");
                for (const auto &row : service.predict(batch))
                    values.insert(values.end(), row.values.begin(),
                                  row.values.end());
            }
        }
        const double wall = secondsSince(t0);
        if (traced) {
            ctx.layers.add("serve.sync_pts_per_s",
                           static_cast<double>(queries.size()) / wall);
            recordPool(ctx, window->delta());
            reconcile(ctx, lastSpan(ctx, "bench.rep"));
        }
        ctx.digest("sync_rows", fnv1aDoubles(values));
        return wall;
    };
    // Every open-loop number is per-layer, so an untraced run gives the
    // closed loop all of --seconds and sweeps nothing.
    const auto walls =
        repeat(ctx, (ctx.opt.trace ? 0.4 : 1.0) * ctx.opt.seconds, 3, rep);
    if (!ctx.opt.trace) {
        emitEndToEnd(ctx, setups, median(walls), paper.quality);
        return;
    }

    // Open loop: stepped rates until two in a row fail the limit (one
    // failure can be a host stall); the named rates always run. The
    // capacity is the highest passing rate below that point.
    const auto stepNs = static_cast<std::uint64_t>(
        std::clamp(0.05 * ctx.opt.seconds, 0.2, 1.0) * 1e9);
    // A short unreported step first wakes the drainer and faults in the
    // ingest path, so the first measured rate does not pay for it.
    openLoopStep(service, queries, kRates[0], 100'000'000,
                 mix(ctx.opt.seed, 99));
    double maxRps = 0.0;
    bool failed = false;     // two failures in a row seen
    bool lastFailed = false;
    std::size_t shed = 0;
    const Span sweep(ctx.log, "serve.open");
    for (std::size_t s = 0; s < kRates.size(); ++s) {
        const double rate = kRates[s];
        const bool named =
            std::find(kNamedRates.begin(), kNamedRates.end(), rate) !=
            kNamedRates.end();
        if (failed && !named)
            continue;
        const StepResult step = openLoopStep(service, queries, rate, stepNs,
                                             mix(ctx.opt.seed, 100 + s));
        shed += step.shed;
        if (step.pass && !failed)
            maxRps = rate;
        failed = failed || (lastFailed && !step.pass);
        lastFailed = !step.pass;
        ctx.report.info(
            "open loop " + rateLabel(rate) + "/s",
            "sent " + std::to_string(step.sent) + " shed " +
                std::to_string(step.shed) + "; " + step.latency +
                "; p99 " + std::to_string(step.p99) + " us; tail-mean " +
                std::to_string(step.tailMeanUs) + " us gen-late p99 " +
                std::to_string(step.lateP99) + " us " +
                (step.pass ? "pass" : "FAIL"));
        if (named) {
            ctx.layers.add("serve.p99_us." + rateLabel(rate), step.p99);
        }
        if (rate == kLowRate)
            ctx.layers.add("serve.p50_us", step.p50);
        if (rate == kRefRate) {
            // The async path records submit-to-completion per request
            // and one serve/drain span per drained batch.
            const auto inService = histogramOf(step.serveDelta,
                                               "serve/request-latency-ns");
            ctx.layers.add("serve.in_service_us.p50",
                           inService.quantile(0.5) / 1e3);
            ctx.layers.add("serve.in_service_us.p99",
                           inService.quantile(0.99) / 1e3);
            ctx.layers.add(
                "serve.drain_batch_pts.mean",
                ratio(static_cast<double>(
                          counterOf(step.serveDelta, "serve/points")),
                      static_cast<double>(
                          stageOf(step.serveDelta, "serve/drain").count)));
            ctx.layers.add("serve.gen_late_us.p99", step.lateP99);
        }
    }
    ctx.layers.add("serve.max_rps", maxRps);
    ctx.layers.add("serve.shed", static_cast<double>(shed));
    ctx.report.info("open loop max rate meeting p99 <= 1 ms (req/s)",
                    std::to_string(maxRps));

    std::vector<const ArchitectureCentricPredictor *> ps;
    for (const auto &e : paper.artifact.entries())
        ps.push_back(&e.predictor);
    ctx.layers.add("ml.infer_pts_per_s",
                   probeInference(ps, mix(ctx.opt.seed, 9)));
}

/**
 * Median milliseconds of a fixed single-thread floating-point recurrence:
 * a probe of host speed, printed so drift between runs shows.
 */
double
hostProbeMs()
{
    std::vector<double> rounds;
    volatile double sink = 0.0;
    for (int round = 0; round < 5; ++round) {
        const std::uint64_t start = nowNs();
        double x = 0.5;
        for (int i = 0; i < (1 << 22); ++i)
            x = 3.9 * x * (1.0 - x);
        sink = x;
        rounds.push_back(secondsSince(start) * 1e3);
    }
    (void)sink;
    return median(rounds);
}

} // namespace

void
prepareWorkload(const RunOptions &options)
{
    if (options.workload == "new_program")
        return; // its campaign is simulated cold, inside the timed region
    if (options.workload != "loo_train" &&
        options.workload != "explore_space" &&
        options.workload != "serve_queries")
        throw std::invalid_argument("unknown workload " + options.workload);
    std::filesystem::create_directories(options.workDir);
    makeSpecCampaign(options.workDir)->ensureComputed();
}

void
runWorkload(const RunOptions &options, Report &report)
{
    std::filesystem::create_directories(options.workDir);
    Ctx ctx(options, report);
    ctx.log.setEnabled(options.trace);
    report.info("workload", options.workload);
    report.info("seed", std::to_string(options.seed));
    report.info("host", hostJson());
    report.info("threads", std::to_string(ctx.threads));
    report.info("host probe before (ms)", std::to_string(hostProbeMs()));

    const std::uint64_t start = nowNs();
    if (options.workload == "new_program")
        newProgram(ctx);
    else if (options.workload == "loo_train")
        looTrain(ctx);
    else if (options.workload == "explore_space")
        exploreSpace(ctx);
    else if (options.workload == "serve_queries")
        serveQueries(ctx);
    else
        throw std::invalid_argument("unknown workload " + options.workload);
    report.info("run wall (s)", std::to_string(secondsSince(start)));
    report.info("host probe after (ms)", std::to_string(hostProbeMs()));
    ctx.checkDigests();

    if (options.trace) {
        emitLayers(ctx);
        const std::string path = options.workDir + "/spans-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
        ctx.log.write(path);
        report.info("span log", path);
    }
}

} // namespace pipebench
