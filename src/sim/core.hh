/**
 * @file
 * Cycle-level out-of-order superscalar core model: its statistics and
 * shared constants. The pipeline itself is the decoded-trace engine in
 * sim/batch.hh (replay()).
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

#include <cstddef>
#include <cstdint>

namespace acdse
{

/** Ring size for per-cycle event counters; must exceed any latency. */
constexpr std::size_t kCoreRingSize = 1024;

/** Result-not-ready sentinel for in-flight instructions. */
constexpr std::uint64_t kCoreNotReady = ~std::uint64_t{0};

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

} // namespace acdse

