/**
 * @file
 * Set-associative LRU caches and the two-level hierarchy used by the
 * core model (L1I + L1D backed by a unified L2, then main memory).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "arch/microarch_config.hh"

namespace acdse
{

/** Outcome of a single cache access. */
struct CacheAccessResult
{
    bool hit;           //!< whether the line was present
    bool writebackDirty; //!< whether a dirty victim was evicted
};

/** One set-associative write-back cache with true-LRU replacement. */
class Cache
{
  public:
    /**
     * @param sizeBytes total capacity (power of two).
     * @param assoc     associativity.
     * @param lineBytes line size (power of two).
     */
    Cache(int sizeBytes, int assoc, int lineBytes);

    /**
     * Re-shape this cache for a new geometry, invalidating all
     * contents and statistics. Equivalent to constructing a fresh
     * Cache but reuses the line storage -- the decoded replay
     * (sim/batch.hh) recycles one Cache per worker thread across
     * thousands of simulations, and re-allocating + zeroing a multi-megabyte L2
     * line array per simulation would dominate short campaign runs.
     */
    void reconfigure(int sizeBytes, int assoc, int lineBytes);

    /** Access one address; fills the line on a miss. */
    CacheAccessResult access(std::uint64_t addr, bool write);

    /** Whether the address would hit, without changing any state. */
    bool probe(std::uint64_t addr) const;

    /** @name Statistics. */
    /** @{ */
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    /** @} */

    /** Forget all contents and statistics. */
    void reset();

  private:
    /**
     * One cache line. Validity is epoch-based: a line is present iff
     * its epoch matches the cache's current epoch, so reset() and
     * reconfigure() invalidate every line by bumping epoch_ in O(1)
     * instead of clearing the array. Value-initialised lines carry
     * epoch 0, which is never current (epoch_ starts at 1), so freshly
     * grown storage is invalid without touching it.
     */
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        std::uint32_t epoch = 0;
        bool dirty = false;
    };

    int sets_;
    int assoc_;
    int lineShift_;
    std::vector<Line> lines_;
    std::uint32_t epoch_ = 1;
    std::uint64_t useCounter_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

/** Event counts produced by hierarchy traversals, for energy accounting. */
struct HierarchyAccessEvents
{
    int il1 = 0;    //!< L1I accesses
    int dl1 = 0;    //!< L1D accesses
    int l2 = 0;     //!< L2 accesses (including fills/writebacks)
    int mem = 0;    //!< main-memory accesses
};

/**
 * The memory hierarchy of one simulated core: split L1s over a unified
 * L2 over flat-latency main memory, all sized from the configuration.
 */
class CacheHierarchy
{
  public:
    /** Build the hierarchy for a configuration. */
    explicit CacheHierarchy(const MicroarchConfig &config);

    /**
     * Re-shape all three caches for a new configuration, invalidating
     * contents and statistics but reusing line storage (see
     * Cache::reconfigure). Leaves the hierarchy exactly as a fresh
     * CacheHierarchy(config) would.
     */
    void reconfigure(const MicroarchConfig &config);

    /**
     * Data access (load or store). Returns total latency in cycles and
     * accumulates energy events into @p events.
     */
    int dataAccess(std::uint64_t addr, bool write,
                   HierarchyAccessEvents &events);

    /**
     * Instruction-fetch access for one I-cache line. Returns latency
     * (1 on a hit).
     */
    int instAccess(std::uint64_t pc, HierarchyAccessEvents &events);

    /** @name Component access for statistics/tests. */
    /** @{ */
    const Cache &il1() const { return il1_; }
    const Cache &dl1() const { return dl1_; }
    const Cache &l2() const { return l2_; }
    /** @} */

    /** @name Latencies derived from the Cacti model. */
    /** @{ */
    int dl1Latency() const { return dl1Latency_; }
    int l2Latency() const { return l2Latency_; }
    int memLatency() const { return memLatency_; }
    /** @} */

  private:
    Cache il1_;
    Cache dl1_;
    Cache l2_;
    int il1Latency_;
    int dl1Latency_;
    int l2Latency_;
    int memLatency_;
};

} // namespace acdse

