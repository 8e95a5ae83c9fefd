/**
 * @file
 * The streaming exploration engine -- what the paper's predictor is
 * *for*: "the identification of sweet spots where performance and
 * power are optimally balanced" over the ~18-billion-point valid
 * design space (Section 1), without simulating it.
 *
 * A TileGenerator cuts the space into fixed-size tiles of valid design
 * points -- deterministic enumeration of a (reduced) grid, or seeded
 * uniform sampling of the full space -- with the validity rules fused
 * into production so invalid points are never materialised. Each tile
 * is pushed through every requested metric ensemble with one shared
 * transpose per SIMD block (ArchitectureCentricPredictor::
 * predictEnsembles, the kernel the prediction service also runs), and
 * folded into streaming reducers: an exact cycles-vs-energy Pareto
 * frontier and a bounded top-k per metric. Tiles run in parallel on
 * the shared ThreadPool; per-tile RNG derivation and index-ordered
 * merges keep the result bit-identical at any thread count.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/microarch_config.hh"
#include "core/architecture_centric_predictor.hh"
#include "explore/reducers.hh"
#include "explore/subspace.hh"
#include "sim/metrics.hh"

namespace acdse
{
class ThreadPool;
} // namespace acdse

namespace acdse::explore
{

/** How the generator produces design points. */
enum class Mode
{
    Enumerate, //!< visit every valid point of the sub-space once
    Sample,    //!< seeded uniform draws from the valid sub-space
};

/** One scored design point. */
struct ScoredConfig
{
    MicroarchConfig config; //!< the design point
    double predicted;       //!< the predicted metric (lower is better)
};

/** One point of a predicted Pareto frontier. */
struct FrontierConfig
{
    MicroarchConfig config; //!< the design point
    double x;               //!< predicted first objective
    double y;               //!< predicted second objective
};

/** One (metric, fitted predictor) pair the engine scores points with. */
struct MetricEnsemble
{
    Metric metric;                                //!< what it predicts
    const ArchitectureCentricPredictor *predictor; //!< fitted ensemble
};

/** Options for explore(). */
struct ExploreOptions
{
    Mode mode = Mode::Sample;          //!< enumeration vs sampling
    SubSpace space = SubSpace::full(); //!< the grid to explore
    std::uint64_t samples = 1u << 20;  //!< valid draws (Sample mode)
    std::uint64_t seed = 0xd5e5eedULL; //!< sampling seed
    std::size_t tileSize = 2048;       //!< valid points per tile
    Metric paretoX = Metric::Cycles;   //!< frontier's first objective
    Metric paretoY = Metric::Energy;   //!< frontier's second objective
    std::size_t topK = 16;             //!< kept best points per metric
    ThreadPool *pool = nullptr;        //!< null: ThreadPool::global()
};

/** Stream accounting for one explore() run. */
struct ExploreStats
{
    std::uint64_t generated = 0; //!< raw points visited or drawn
    std::uint64_t filtered = 0;  //!< rejected by the validity rules
    std::uint64_t predicted = 0; //!< valid points scored and reduced
    std::uint64_t tiles = 0;     //!< tiles processed
};

/** Result of one explore() run. */
struct ExploreResult
{
    /** Predicted paretoX-vs-paretoY frontier, ascending in x. */
    std::vector<FrontierConfig> frontier;
    /** The scored metrics, in the order the ensembles were given. */
    std::vector<Metric> metrics;
    /** Per metric (parallel to metrics): the top-k points, best first. */
    std::vector<std::vector<ScoredConfig>> topk;
    ExploreStats stats; //!< stream accounting

    /** The top-k list of one metric; panics if it was not scored. */
    const std::vector<ScoredConfig> &topkFor(Metric metric) const;
};

/**
 * Tiled producer of valid design points. Exposed separately from
 * explore() so reduced-space exactness tests can audit the stream
 * itself: in Enumerate mode the tiles partition the raw mixed-radix
 * index range of the sub-space and together visit every valid point
 * exactly once; in Sample mode every tile holds exactly tileSize valid
 * uniform draws (the last tile takes the remainder) from an RNG
 * derived from (seed, tile index), so tile contents are independent of
 * the thread that produces them. Sampling is with replacement, across
 * and within tiles.
 */
class TileGenerator
{
  public:
    TileGenerator(const SubSpace &space, Mode mode, std::size_t tileSize,
                  std::uint64_t samples, std::uint64_t seed);

    /** Number of tiles. */
    std::size_t tiles() const { return tiles_; }

    /** Raw points of the sub-space (Enumerate-mode stream length). */
    std::uint64_t rawPoints() const { return raw_; }

    /** Production accounting for one tile. */
    struct TileStats
    {
        std::uint64_t generated = 0; //!< raw points visited or drawn
        std::uint64_t valid = 0;     //!< points emitted
    };

    /**
     * Produce tile @p tile: @p values receives the raw parameter
     * values of each valid point and @p features the matching
     * row-major feature rows (kNumParams per point, bit-identical to
     * MicroarchConfig::featuresInto). Both are cleared first.
     */
    TileStats generate(std::size_t tile, std::vector<PointValues> &values,
                       std::vector<double> &features) const;

  private:
    void emit(const std::array<std::size_t, kNumParams> &idx,
              std::vector<PointValues> &values,
              std::vector<double> &features) const;

    SubSpace space_;
    Mode mode_;
    std::size_t tileSize_;
    std::uint64_t samples_;
    std::uint64_t seed_;
    std::uint64_t raw_ = 0;
    std::size_t tiles_ = 0;
    /** Per (param, selected-value index): the feature-space value. */
    std::array<std::vector<double>, kNumParams> featureOf_;
};

/**
 * Stream the sub-space through every given metric ensemble and reduce.
 * All ensembles must be ready() and share the kNumParams feature
 * width; options.paretoX/paretoY must be among the given metrics.
 * Bit-identical at any thread count and pool.
 */
ExploreResult explore(std::span<const MetricEnsemble> ensembles,
                      const ExploreOptions &options = {});

} // namespace acdse::explore
