/**
 * @file
 * Cycle-level out-of-order superscalar core model.
 *
 * Trace-driven analogue of the paper's SimpleScalar/Wattch setup: a
 * fetch/rename-dispatch/issue/execute/writeback/commit pipeline in
 * which every one of the 13 varied parameters is a structural limit:
 *
 *  - width bounds fetch, dispatch, issue and commit bandwidth and sets
 *    the functional-unit pool (Table 2b);
 *  - ROB / IQ / LSQ occupancy stalls dispatch when full;
 *  - physical-register-file size bounds renaming, read ports bound
 *    operand reads at issue, write ports arbitrate writeback;
 *  - the gshare predictor and BTB drive front-end redirects, and the
 *    in-flight-branch limit stalls fetch;
 *  - the I-cache gates fetch, the D-cache/L2 set load latencies.
 *
 * Standard trace-driven simplifications (documented in DESIGN.md): no
 * wrong-path execution (a mispredict stalls fetch until the branch
 * resolves plus a redirect penalty) and perfect store-to-load
 * disambiguation.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "arch/microarch_config.hh"
#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/energy.hh"
#include "trace/trace.hh"

namespace acdse
{

/** Ring size for per-cycle event counters; must exceed any latency. */
constexpr std::size_t kCoreRingSize = 1024;

/** Result-not-ready sentinel for in-flight instructions. */
constexpr std::uint64_t kCoreNotReady = ~std::uint64_t{0};

/**
 * Reusable storage for the pipeline structures one timed run needs
 * (ROB slots, fetch queue, issue queue, per-cycle rings, divider busy
 * timers). OooCore::run() historically allocated these per call; a
 * campaign runs hundreds of thousands of short simulations, so callers
 * that loop (the decoded replay path in sim/batch.hh, through each
 * worker's SimScratch) own one scratch and hand it to every run.
 * Contents are overwritten at the start of each run; only capacity
 * carries over.
 */
struct CoreScratch
{
    /** Per-in-flight-instruction bookkeeping (ROB ring slot). */
    struct RobSlot
    {
        std::uint64_t readyCycle;   //!< result availability cycle
        bool issued;                //!< left the issue queue
    };

    /** One fetched instruction waiting to dispatch (front-end depth). */
    struct Fetched
    {
        std::size_t idx;            //!< trace index
        std::uint64_t readyAt;      //!< cycle it becomes dispatchable
    };

    std::vector<RobSlot> rob;           //!< ROB ring, robSize slots
    std::vector<Fetched> fetchQueue;    //!< FIFO via head index
    std::vector<std::size_t> iq;        //!< age-ordered issue queue
    /**
     * Parallel to iq: the earliest cycle the entry's operands can be
     * ready, or 0 when unknown. A nonzero value is exact -- the max of
     * both producers' immutable readyCycle -- so the decoded replay
     * skips the entry without rescanning until the value expires. The
     * scalar core leaves this empty.
     */
    std::vector<std::uint64_t> iqSleep;
    std::vector<std::uint8_t> wbRing;   //!< write-port usage per cycle
    std::vector<std::uint8_t> resolveRing; //!< branch resolutions
    std::vector<std::uint64_t> divBusy; //!< per-divider busy-until
};

/** Statistics of one timed run. */
struct CoreStats
{
    std::uint64_t cycles = 0;           //!< total cycles
    std::uint64_t instructions = 0;     //!< committed instructions
    std::uint64_t branches = 0;         //!< committed branches
    std::uint64_t mispredicts = 0;      //!< direction mispredictions
    std::uint64_t btbMisses = 0;        //!< taken branches missing a target
    std::uint64_t il1Misses = 0;        //!< L1I misses
    std::uint64_t dl1Misses = 0;        //!< L1D misses
    std::uint64_t l2Misses = 0;         //!< L2 misses
    std::uint64_t dispatchStallRob = 0; //!< cycles dispatch blocked on ROB
    std::uint64_t dispatchStallIq = 0;  //!< ... on the issue queue
    std::uint64_t dispatchStallLsq = 0; //!< ... on the LSQ
    std::uint64_t dispatchStallRegs = 0; //!< ... on physical registers
    std::uint64_t fetchStallBranches = 0; //!< fetch blocked on branch limit

    /** Committed instructions per cycle. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles : 0.0;
    }
};

/** One core instance: build per configuration, run once per trace. */
class OooCore
{
  public:
    /**
     * @param config the design point to model.
     * @param energy event sink for Wattch-style accounting (may outlive
     *               several runs; counts accumulate).
     */
    OooCore(const MicroarchConfig &config, EnergyModel &energy);

    /**
     * Run the pipeline over trace instructions [begin, end) and return
     * the timing statistics. Microarchitectural state (caches,
     * predictors) persists across calls, enabling warm-up runs and
     * SimPoint-style interval simulation.
     */
    CoreStats run(const Trace &trace, std::size_t begin = 0,
                  std::size_t end = SIZE_MAX);

    /**
     * As run(), but borrowing @p scratch for the pipeline structures
     * instead of allocating them -- callers that simulate in a loop
     * reuse one scratch across runs (results are identical either
     * way; the scratch is storage, never state).
     */
    CoreStats run(const Trace &trace, std::size_t begin, std::size_t end,
                  CoreScratch &scratch);

    /**
     * Functional warming (SMARTS-style): stream instructions [begin,
     * end) through the caches and branch predictor without modelling
     * timing and without recording energy events. Orders of magnitude
     * cheaper than run(); used between detailed measurement units.
     */
    void warm(const Trace &trace, std::size_t begin, std::size_t end);

    /** The memory hierarchy (for statistics). */
    const CacheHierarchy &hierarchy() const { return hierarchy_; }

  private:
    const MicroarchConfig config_;
    EnergyModel &energy_;
    CacheHierarchy hierarchy_;
    GsharePredictor bpred_;
    Btb btb_;
};

} // namespace acdse

