/**
 * @file
 * The simulator engine: decoded-trace replay of the out-of-order core.
 *
 * This is the library's one transcription of the pipeline described in
 * sim/core.hh. Every simulation runs through it -- simulate(), the
 * campaign fill, the SimPoint/SMARTS estimators -- one configuration
 * to completion at a time:
 *
 *  - DecodedTrace precomputes per-instruction properties (latency,
 *    functional-unit pool, energy event, class flags) once per trace
 *    instead of re-deriving them per config per instruction.
 *  - SimScratch owns one set of simulator components (caches,
 *    predictors, energy model, pipeline storage) that is
 *    *reconfigured* -- not reallocated -- for each configuration, so
 *    steady-state replay performs no heap allocation (bench_campaign
 *    asserts this).
 *  - Issue is event-driven: a result wakes its waiting consumers, and
 *    each cycle visits only the instructions whose operands are ready,
 *    in age order. Cycles in which nothing changes are skipped in one
 *    step (see batch.cc). Neither shortcut is visible in the results.
 *
 * Two levels of API: simulateBatch() runs whole simulations (warm-up,
 * timed run, metrics); configure(), replay() and warm() expose the
 * interval steps for callers that time only parts of a trace.
 *
 * Contract: results are BIT-IDENTICAL to the straightforward
 * cycle-by-cycle loop kept in tests/reference_sim.cc.
 * tests/test_batch_sim.cc compares every result field with EXPECT_EQ
 * against it and pins golden digests; the shared tables in
 * sim/core_ops.hh keep the two from drifting.
 *
 * Observability: simulateBatch() runs under a "sim/batch" trace span
 * and feeds "sim/instructions" (instructions committed through this
 * path), "sim/lanes-occupied" (configurations simulated) and, summed
 * over the call's results, one counter per CoreStats event: cache
 * misses ("sim/il1-misses", "sim/dl1-misses", "sim/l2-misses"),
 * "sim/mispredicts", "sim/btb-misses", the dispatch stall cycles
 * ("sim/stall-rob", "sim/stall-iq", "sim/stall-lsq", "sim/stall-regs")
 * and "sim/stall-branches" (fetch stalled on the in-flight branch
 * limit). Counters are bumped once per call, never per cycle.
 */

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "arch/microarch_config.hh"
#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/core.hh"
#include "sim/energy.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace acdse
{

/**
 * Configurations one engine replays at a time. The engine runs each
 * configuration to completion, so this is 1; it is kept only as the
 * divisor of the benchmark's lane-occupancy metric
 * (sim/lanes-occupied over sim/batch calls), which therefore reads
 * 1.0 when every call carries one configuration.
 */
constexpr std::size_t kSimLanes = 1;

/**
 * A trace decoded for replay: per-instruction properties the core
 * model would otherwise re-derive per config per instruction,
 * precomputed once. Immutable after construction and therefore safe to
 * share across threads (campaign workers decode each program's trace
 * once and replay it from every worker).
 */
class DecodedTrace
{
  public:
    /** @name Op::flags bits. */
    /** @{ */
    static constexpr std::uint8_t kOpLoad = 1u << 0;     //!< memory load
    static constexpr std::uint8_t kOpStore = 1u << 1;    //!< memory store
    static constexpr std::uint8_t kOpBranch = 1u << 2;   //!< control
    static constexpr std::uint8_t kOpCond = 1u << 3;     //!< conditional
    static constexpr std::uint8_t kOpTaken = 1u << 4;    //!< outcome
    static constexpr std::uint8_t kOpProduces = 1u << 5; //!< writes a reg
    static constexpr std::uint8_t kOpFpDiv = 1u << 6;    //!< unpipelined
    /** Mask: either memory-class bit. */
    static constexpr std::uint8_t kOpMem = kOpLoad | kOpStore;
    /** @} */

    /**
     * One decoded instruction (32 bytes). addrOrTarget holds the
     * effective address for loads/stores and the branch target for
     * branches -- no instruction uses both.
     */
    struct Op
    {
        std::uint64_t pc;           //!< instruction address
        std::uint64_t addrOrTarget; //!< data address / branch target
        std::uint32_t srcDist1;     //!< distance to first producer
        std::uint32_t srcDist2;     //!< distance to second producer
        std::uint8_t latency;       //!< execLatency(cls)
        std::uint8_t pool;          //!< fuPoolFor(cls) index
        std::uint8_t fuEvent;       //!< fuEnergyFor(cls) index
        std::uint8_t flags;         //!< kOp* bits
    };

    /** Decode @p trace; keeps a reference (trace must outlive this). */
    explicit DecodedTrace(const Trace &trace);

    /** The trace this was decoded from. */
    const Trace &source() const { return *source_; }

    /** Benchmark name (forwarded from the source trace). */
    const std::string &name() const { return source_->name(); }

    /** Number of dynamic instructions. */
    std::size_t size() const { return ops_.size(); }

    /** The decoded stream. */
    const Op *ops() const { return ops_.data(); }

  private:
    const Trace *source_;
    std::vector<Op> ops_;
};

/**
 * One set of simulator components, owned by the caller and recycled
 * across simulations. configure() constructs each component on first
 * use and reconfigures it in place afterwards (O(1) invalidation via
 * epochs -- see Cache::reconfigure), so steady-state replay allocates
 * nothing. One scratch serves one thread.
 *
 * Caches and predictors carry state from one replay()/warm() call to
 * the next until the next configure(), which leaves them exactly as
 * freshly built ones; the pipeline storage is only storage, rewritten
 * at the start of every replay().
 */
struct SimScratch
{
    /** Largest ROB ring replay() supports (the ROB parameter tops out
     *  at 160, padded to the next power of two). */
    static constexpr std::size_t kMaxRobSlots = 256;
    /** 64-bit words of a mask with one bit per ROB slot. */
    static constexpr std::size_t kSlotWords = kMaxRobSlots / 64;
    /** One bit per ROB slot (ready set, wheel bucket). */
    using SlotMask = std::array<std::uint64_t, kSlotWords>;
    /** Wake-list terminator. */
    static constexpr std::uint16_t kNoLink = 0xffff;

    /**
     * Per-in-flight-instruction bookkeeping (ROB ring slot). An
     * unissued entry is in exactly one of three states: blocked
     * (pending > 0: linked into the wake list of each unissued
     * producer), timed (parked in the wheel at operandsAt) or ready (a
     * bit in replay()'s ready mask).
     */
    struct RobSlot
    {
        std::uint64_t readyCycle = kCoreNotReady; //!< result cycle, once issued
        /**
         * Earliest cycle the operands allow issue: the max of the
         * dispatch cycle + 1 and the result cycles of the producers
         * that have issued so far.
         */
        std::uint64_t operandsAt = 0;
        /**
         * Head of the list of consumers waiting on this result. A link
         * is (consumer slot << 1 | source operand), so one consumer can
         * wait on two producers through its two wakeNext fields.
         */
        std::uint16_t wakeHead = kNoLink;
        std::uint16_t wakeNext[2] = {kNoLink, kNoLink}; //!< per source
        std::uint8_t pending = 0;   //!< producers not yet issued
        bool issued = false;        //!< left the issue queue
    };

    /** One fetched instruction waiting to dispatch (front-end depth). */
    struct Fetched
    {
        std::size_t idx;            //!< trace index
        std::uint64_t readyAt;      //!< cycle it becomes dispatchable
    };

    /**
     * Build or reconfigure every component for @p design and record
     * it in config: cold caches and predictors, zero energy counts.
     * Returns the energy model, which accumulates the events of every
     * replay() until the next configure() or
     * EnergyModel::resetCounts().
     */
    EnergyModel &configure(const MicroarchConfig &design);

    MicroarchConfig config;                  //!< set by configure()
    std::optional<EnergyModel> energy;       //!< event accounting
    std::optional<CacheHierarchy> hierarchy; //!< L1I/L1D/L2
    std::optional<GsharePredictor> bpred;    //!< direction predictor
    std::optional<Btb> btb;                  //!< target buffer

    std::vector<RobSlot> rob;           //!< ROB ring
    std::vector<Fetched> fetchQueue;    //!< FIFO via head index
    /**
     * Timing wheel of kCoreRingSize buckets, indexed by cycle modulo
     * the ring: the ROB slots whose operands all become ready in that
     * cycle. A bucket is only meaningful while replay() marks it
     * occupied, so stale contents need no clearing.
     */
    std::vector<SlotMask> wheel;
    std::vector<std::uint8_t> wbRing;   //!< write-port usage per cycle
    std::vector<std::uint8_t> resolveRing; //!< branch resolutions
    std::vector<std::uint64_t> divBusy; //!< per-divider busy-until
};

/**
 * Timed run over decoded instructions [begin, end) of @p trace (end is
 * clamped to the trace size) on the configuration and components of
 * @p scratch, which must have been configured. Caches and predictors
 * keep their state across calls, so warm-up runs, functional warming
 * and several timed intervals can follow each other; energy events
 * accumulate into the scratch's energy model.
 *
 * @return the interval's timing statistics.
 */
CoreStats replay(const DecodedTrace &trace, std::size_t begin,
                 std::size_t end, SimScratch &scratch);

/**
 * Functional warming (SMARTS-style): stream decoded instructions
 * [begin, end) through the caches, branch predictor and BTB of
 * @p scratch (already configured) without modelling timing and
 * without recording energy events. Orders of magnitude cheaper than
 * replay(); used between detailed measurement intervals.
 */
void warm(const DecodedTrace &trace, std::size_t begin, std::size_t end,
          SimScratch &scratch);

/**
 * Replay @p trace against every configuration in @p configs, one after
 * another, and write one SimulationResult per config into @p results:
 * configure(), an untimed replay() over the warm-up prefix whose energy
 * events are discarded, then the timed replay() over the rest.
 *
 * @param configs the design points (results follow this order).
 * @param trace   the decoded trace, shared read-only.
 * @param options warmup control (SimulationOptions).
 * @param results output span, at least configs.size() entries.
 * @param scratch caller-owned components (reused across calls).
 */
void simulateBatch(std::span<const MicroarchConfig> configs,
                   const DecodedTrace &trace,
                   const SimulationOptions &options,
                   std::span<SimulationResult> results,
                   SimScratch &scratch);

/** Convenience overload: decodes, allocates scratch + results. */
std::vector<SimulationResult>
simulateBatch(std::span<const MicroarchConfig> configs, const Trace &trace,
              const SimulationOptions &options = {});

} // namespace acdse
