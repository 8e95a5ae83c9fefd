/**
 * @file
 * A single point in the microarchitectural design space: concrete values
 * for all 13 varied parameters.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/parameter.hh"

namespace acdse
{

/**
 * One microarchitectural configuration.
 *
 * A configuration is the 13-vector fed to the predictors (paper Section
 * 5.2: the baseline encodes as (4, 96, 32, 48, 96, 8, 4, 16, 4, 16, 32,
 * 32, 2) -- we keep L2 in KB rather than MB so all entries are
 * integers; predictors standardise the inputs so the unit is
 * irrelevant to them).
 */
class MicroarchConfig
{
  public:
    /** Construct the baseline configuration of Table 1. */
    MicroarchConfig();

    /** Construct from explicit per-parameter values (Param order). */
    explicit MicroarchConfig(const std::array<int, kNumParams> &values);

    /** Value of one parameter. */
    int get(Param p) const { return values_[static_cast<std::size_t>(p)]; }

    /** Set one parameter; the value must be legal for that parameter. */
    void set(Param p, int value);

    /** @name Named accessors for readability at call sites. */
    /** @{ */
    int width() const { return get(Param::Width); }
    int robSize() const { return get(Param::RobSize); }
    int iqSize() const { return get(Param::IqSize); }
    int lsqSize() const { return get(Param::LsqSize); }
    int rfSize() const { return get(Param::RfSize); }
    int rfReadPorts() const { return get(Param::RfReadPorts); }
    int rfWritePorts() const { return get(Param::RfWritePorts); }
    int bpredEntries() const { return get(Param::BpredSize) * 1024; }
    int btbEntries() const { return get(Param::BtbSize) * 1024; }
    int maxBranches() const { return get(Param::MaxBranches); }
    int il1Bytes() const { return get(Param::Il1Size) * 1024; }
    int dl1Bytes() const { return get(Param::Dl1Size) * 1024; }
    int l2Bytes() const { return get(Param::L2Size) * 1024; }
    /** @} */

    /** The raw 13-vector used as predictor input. */
    std::vector<double> asVector() const;

    /**
     * The 13-vector with log2 applied to the power-of-two-spaced
     * parameters (predictor tables and caches): the response surface
     * is close to linear in the *exponent* of those structures, which
     * conditions the ANN fit better than raw byte counts.
     */
    std::vector<double> asFeatureVector() const;

    /**
     * Write asFeatureVector() into out[0 .. kNumParams) without
     * allocating -- the batched predict paths fill contiguous
     * row-major feature matrices with this. Values are bit-identical
     * to asFeatureVector().
     */
    void featuresInto(double *out) const;

    /** All 13 values in Param order. */
    const std::array<int, kNumParams> &raw() const { return values_; }

    /**
     * Stable textual key, e.g. "4/96/32/..." -- used for the on-disk
     * campaign cache and for deduplicating samples.
     */
    std::string key() const;

    /** Equality on all 13 values. */
    bool operator==(const MicroarchConfig &other) const = default;

    /** Hash for use in unordered containers. */
    std::uint64_t hash() const;

  private:
    std::array<int, kNumParams> values_;
};

} // namespace acdse

