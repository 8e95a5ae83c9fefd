#include "sim/batch.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "base/check.hh"
#include "base/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "sim/core_ops.hh"
#include "trace/simpoint.hh"

namespace acdse
{

DecodedTrace::DecodedTrace(const Trace &trace) : source_(&trace)
{
    ops_.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceInstruction &inst = trace[i];
        Op op;
        op.pc = inst.pc;
        op.addrOrTarget =
            inst.cls == InstClass::Branch ? inst.target : inst.addr;
        op.srcDist1 = inst.srcDist1;
        op.srcDist2 = inst.srcDist2;
        const int latency = execLatency(inst.cls);
        ACDSE_CHECK(latency >= 1 && latency <= 255,
                     "execution latency does not fit the decode field");
        op.latency = static_cast<std::uint8_t>(latency);
        op.pool = static_cast<std::uint8_t>(fuPoolFor(inst.cls));
        op.fuEvent = static_cast<std::uint8_t>(fuEnergyFor(inst.cls));
        std::uint8_t flags = 0;
        switch (inst.cls) {
          case InstClass::Load: flags |= kOpLoad; break;
          case InstClass::Store: flags |= kOpStore; break;
          case InstClass::FpDiv: flags |= kOpFpDiv; break;
          case InstClass::Branch:
            flags |= kOpBranch;
            if (inst.conditional)
                flags |= kOpCond;
            if (inst.taken)
                flags |= kOpTaken;
            break;
          default: break;
        }
        if (producesResult(inst.cls))
            flags |= kOpProduces;
        op.flags = flags;
        ops_.push_back(op);
    }
}

namespace
{

/**
 * Cycles one lane advances before rotating to the next. With the
 * idle-cycle skip a quantum collapses to a few hundred executed
 * iterations, so a large value amortises swapping lane state in and
 * out of registers while lanes still stay within a few KB of each
 * other in the decoded trace and share its working set.
 */
constexpr std::uint64_t kLaneQuantum = 16384;

/**
 * The lane engine: up to kSimLanes one-config pipelines advancing
 * through one decoded trace in interleaved quanta. Per-lane hot state
 * is kept struct-of-arrays in cache-line-aligned members; the bulky
 * storage (ROB/IQ/ring vectors, cache line arrays, predictor tables)
 * lives in the caller's SimScratch and is reconfigured per batch.
 *
 * stepLane() is a faithful transcription of the scalar pipeline loop
 * in OooCore::run() -- every structural limit, stall and energy event
 * in the same order. Any edit there needs a mirror here; the
 * bit-identity suite (tests/test_batch_sim.cc) catches drift.
 *
 * On top of the transcription sit two provably invisible shortcuts,
 * the source of the batched path's speedup:
 *
 *  - Idle-cycle skipping: a cycle in which no stage changed any
 *    pipeline, cache or predictor state replays identically until the
 *    next scheduled event (a writeback, a fetch-queue arrival, a
 *    block expiring, a branch resolving). The skip block jumps there
 *    in one step and credits the per-cycle stall counters -- the only
 *    observable effect of the skipped cycles -- in bulk.
 *
 *  - An operand wake cache (CoreScratch::iqSleep): an IQ entry whose
 *    operands provably cannot be ready before a known cycle is
 *    skipped by the issue scan without touching its producers until
 *    that bound expires. Bounds propagate down dependency chains by
 *    publishing each blocked entry's earliest-result cycle through
 *    the readyCycle field of its still-unissued ROB slot, and a
 *    queue that is entirely asleep skips its scan outright. All
 *    bounds are conservative, so they can only stop the idle skip
 *    early, never carry it past an event.
 */
class BatchSimulator
{
  public:
    BatchSimulator(std::span<const MicroarchConfig> configs,
                   const DecodedTrace &trace, SimScratch &scratch)
        : trace_(trace), lanes_(configs.size())
    {
        ACDSE_CHECK(lanes_ >= 1 && lanes_ <= kSimLanes,
                     "lane group larger than kSimLanes");
        const FixedParams &fp = fixedParams();
        lineMask_ = ~static_cast<std::uint64_t>(fp.l1LineBytes - 1);
        frontEndStages_ = static_cast<std::uint64_t>(fp.frontEndStages);
        redirectPenalty_ =
            static_cast<std::uint64_t>(fp.mispredictRedirect);
        fpDivLatency_ = static_cast<std::uint64_t>(fp.fpDivLatency);
        for (std::size_t l = 0; l < lanes_; ++l) {
            const MicroarchConfig &config = configs[l];
            SimScratch::Lane &lane = scratch.lanes[l];
            if (lane.energy)
                lane.energy->reconfigure(config);
            else
                lane.energy.emplace(config);
            if (lane.hierarchy)
                lane.hierarchy->reconfigure(config);
            else
                lane.hierarchy.emplace(config);
            if (lane.bpred)
                lane.bpred->reconfigure(config.bpredEntries());
            else
                lane.bpred.emplace(config.bpredEntries());
            if (lane.btb)
                lane.btb->reconfigure(config.btbEntries());
            else
                lane.btb.emplace(config.btbEntries());
            energy_[l] = &*lane.energy;
            hierarchy_[l] = &*lane.hierarchy;
            bpred_[l] = &*lane.bpred;
            btb_[l] = &*lane.btb;
            core_[l] = &lane.core;

            width_[l] = static_cast<std::size_t>(config.width());
            robSize_[l] = static_cast<std::size_t>(config.robSize());
            iqSize_[l] = static_cast<std::size_t>(config.iqSize());
            lsqSize_[l] = static_cast<std::size_t>(config.lsqSize());
            rdPorts_[l] = config.rfReadPorts();
            wrPorts_[l] = config.rfWritePorts();
            maxBranches_[l] =
                static_cast<std::size_t>(config.maxBranches());
            const FunctionalUnitCounts fus =
                functionalUnitsForWidth(config.width());
            fuCounts_[l] = {fus.intAlu, fus.intMul, fus.fpAlu,
                            fus.fpMulDiv};
            numDividers_[l] = static_cast<std::size_t>(fus.fpMulDiv);
            renameRegs_[l] = static_cast<std::size_t>(
                std::max(1, config.rfSize() - fp.archRegs));
            fqCap_[l] =
                width_[l] *
                (static_cast<std::size_t>(fp.frontEndStages) + 2);
        }
    }

    /** Occupied lanes in this group. */
    std::size_t lanes() const { return lanes_; }

    /** Lane @p l's energy accumulator. */
    EnergyModel &energy(std::size_t l) { return *energy_[l]; }

    /**
     * Timed run of instructions [begin, end) on every lane; writes one
     * CoreStats per lane into @p stats. Mirrors OooCore::run() exactly.
     */
    void
    run(std::size_t begin, std::size_t end, CoreStats *stats)
    {
        end = std::min(end, trace_.size());
        ACDSE_CHECK(begin < end, "empty simulation interval");
        runBegin_ = begin;
        runEnd_ = end;
        cycleLimit_ =
            static_cast<std::uint64_t>(end - begin) * 600 + 200000;
        stats_ = stats;

        for (std::size_t l = 0; l < lanes_; ++l) {
            stats[l] = CoreStats{};
            il1Miss0_[l] = hierarchy_[l]->il1().misses();
            dl1Miss0_[l] = hierarchy_[l]->dl1().misses();
            l2Miss0_[l] = hierarchy_[l]->l2().misses();
            memEvents_[l] = HierarchyAccessEvents{};

            // The ROB array is padded to a power of two so slot lookup
            // is an AND instead of an integer division. Any injective
            // mapping of the <= robSize in-flight instructions to
            // distinct slots gives identical results; occupancy is
            // still limited by robSize below.
            std::size_t rob_alloc = 1;
            while (rob_alloc < robSize_[l])
                rob_alloc <<= 1;
            robMask_[l] = rob_alloc - 1;
            CoreScratch &cs = *core_[l];
            cs.rob.assign(rob_alloc, CoreScratch::RobSlot{});
            cs.fetchQueue.clear();
            cs.iq.clear();
            cs.iq.reserve(iqSize_[l]);
            cs.iqSleep.clear();
            cs.iqSleep.reserve(iqSize_[l]);
            cs.wbRing.assign(kCoreRingSize, 0);
            cs.resolveRing.assign(kCoreRingSize, 0);
            cs.divBusy.assign(numDividers_[l], 0);

            commitIdx_[l] = begin;
            dispatchIdx_[l] = begin;
            fetchIdx_[l] = begin;
            robCount_[l] = 0;
            lsqCount_[l] = 0;
            regsUsed_[l] = 0;
            fqHead_[l] = 0;
            cycle_[l] = 0;
            fetchBlockedUntil_[l] = 0;
            fetchWaitBranch_[l] = 0;
            waitBranchIdx_[l] = 0;
            inflightBranches_[l] = 0;
            lastFetchLine_[l] =
                std::numeric_limits<std::uint64_t>::max();
        }

        std::size_t remaining = lanes_;
        std::array<std::uint8_t, kSimLanes> active{};
        for (std::size_t l = 0; l < lanes_; ++l)
            active[l] = 1;
        while (remaining > 0) {
            for (std::size_t l = 0; l < lanes_; ++l) {
                if (!active[l])
                    continue;
                if (stepLane(l, kLaneQuantum)) {
                    active[l] = 0;
                    --remaining;
                    finishLane(l);
                }
            }
        }
    }

    /**
     * Functional warming of instructions [begin, end) on every lane.
     * Mirrors OooCore::warm() exactly (per-call fetch-line tracking).
     */
    void
    warm(std::size_t begin, std::size_t end)
    {
        end = std::min(end, trace_.size());
        const DecodedTrace::Op *ops = trace_.ops();
        HierarchyAccessEvents discard;
        // The line sequence is config-independent, so one tracker
        // serves every lane (each still performs its own accesses).
        std::uint64_t last_line =
            std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = begin; i < end; ++i) {
            const DecodedTrace::Op &op = ops[i];
            const std::uint64_t line = op.pc & lineMask_;
            if (line != last_line) {
                for (std::size_t l = 0; l < lanes_; ++l)
                    hierarchy_[l]->instAccess(op.pc, discard);
                last_line = line;
            }
            if (op.flags & DecodedTrace::kOpMem) {
                const bool write =
                    (op.flags & DecodedTrace::kOpStore) != 0;
                for (std::size_t l = 0; l < lanes_; ++l) {
                    hierarchy_[l]->dataAccess(op.addrOrTarget, write,
                                              discard);
                }
            } else if (op.flags & DecodedTrace::kOpBranch) {
                const bool taken =
                    (op.flags & DecodedTrace::kOpTaken) != 0;
                for (std::size_t l = 0; l < lanes_; ++l) {
                    bpred_[l]->update(op.pc, taken);
                    if (taken && !btb_[l]->lookup(op.pc))
                        btb_[l]->update(op.pc, op.addrOrTarget);
                }
            }
        }
    }

  private:
    /**
     * Advance lane @p l by up to @p quantum cycles; true when the lane
     * committed its whole interval. Transcribed from OooCore::run().
     */
    bool
    stepLane(std::size_t l, std::uint64_t quantum)
    {
        const DecodedTrace::Op *ops = trace_.ops();
        const std::size_t begin = runBegin_;
        const std::size_t end = runEnd_;
        const std::size_t width = width_[l];
        const std::size_t rob_size = robSize_[l];
        const std::size_t rob_mask = robMask_[l];
        const std::size_t iq_size = iqSize_[l];
        const std::size_t lsq_size = lsqSize_[l];
        const int rd_ports = rdPorts_[l];
        const int wr_ports = wrPorts_[l];
        const std::size_t max_branches = maxBranches_[l];
        const std::array<int, kNumFuPools> fu_counts = fuCounts_[l];
        const std::size_t rename_regs = renameRegs_[l];
        const std::size_t fq_cap = fqCap_[l];
        EnergyModel &energy = *energy_[l];
        CacheHierarchy &hierarchy = *hierarchy_[l];
        GsharePredictor &bpred = *bpred_[l];
        Btb &btb = *btb_[l];
        CoreStats &stats = stats_[l];
        HierarchyAccessEvents &mem_events = memEvents_[l];
        CoreScratch &cs = *core_[l];
        auto &rob = cs.rob;
        auto &fetch_queue = cs.fetchQueue;
        auto &iq = cs.iq;
        auto &iq_sleep = cs.iqSleep;
        auto &wb_ring = cs.wbRing;
        auto &resolve_ring = cs.resolveRing;
        auto &div_busy = cs.divBusy;

        // Hot scalars live in locals for the quantum; the SoA members
        // are only touched at the boundaries.
        std::size_t commit_idx = commitIdx_[l];
        std::size_t dispatch_idx = dispatchIdx_[l];
        std::size_t fetch_idx = fetchIdx_[l];
        std::size_t rob_count = robCount_[l];
        std::size_t lsq_count = lsqCount_[l];
        std::size_t regs_used = regsUsed_[l];
        std::size_t fq_head = fqHead_[l];
        std::uint64_t cycle = cycle_[l];
        std::uint64_t fetch_blocked_until = fetchBlockedUntil_[l];
        bool fetch_wait_branch = fetchWaitBranch_[l] != 0;
        std::size_t wait_branch_idx = waitBranchIdx_[l];
        std::size_t inflight_branches = inflightBranches_[l];
        std::uint64_t last_fetch_line = lastFetchLine_[l];
        // True when every IQ entry carries a nonzero sleep bound; the
        // min of those bounds. While the min lies in the future the
        // whole issue scan is provably a no-op (no entry's operands can
        // be ready) and is skipped outright. Conservatively rebuilt by
        // the first full scan of each quantum.
        bool iq_all_cached = false;
        std::uint64_t iq_min_sleep = 0;

        auto slot = [&](std::size_t idx) -> CoreScratch::RobSlot & {
            return rob[idx & rob_mask];
        };

        // When does this source operand allow issue? 0 = ready now;
        // kCoreNotReady = blocked on an unissued producer; otherwise
        // the producer's completion cycle. The issue loop treats 0 as
        // "ready" (matching the scalar path's src_ready) and the
        // idle-skip block min-folds the rest into its wake bound.
        auto src_wake = [&](std::size_t idx,
                            std::uint32_t dist) -> std::uint64_t {
            if (!dist)
                return 0;
            const std::size_t producer = idx - dist;
            if (producer < commit_idx ||
                dist > static_cast<std::uint32_t>(idx - begin))
                return 0; // committed, or before the interval
            const CoreScratch::RobSlot &p = slot(producer);
            if (!p.issued)
                // While unissued, readyCycle carries a published lower
                // bound on the eventual result cycle (see the issue
                // scan) or kCoreNotReady when none is known; an expired
                // bound means "unknown" again.
                return p.readyCycle > cycle ? p.readyCycle
                                            : kCoreNotReady;
            return p.readyCycle <= cycle ? 0 : p.readyCycle;
        };

        // Find the first cycle at or after `from` with a free write
        // port.
        auto writeback_slot = [&](std::uint64_t from) {
            std::uint64_t c = std::max(from, cycle + 1);
            for (std::size_t hops = 0; hops < kCoreRingSize - 1;
                 ++hops, ++c) {
                if (wb_ring[c % kCoreRingSize] <
                    static_cast<std::uint8_t>(wr_ports)) {
                    ++wb_ring[c % kCoreRingSize];
                    return c;
                }
            }
            return c;
        };

        const std::uint64_t stop_cycle = cycle + quantum;
        while (commit_idx < end && cycle < stop_cycle) {
            // Free the write-port ring slot for this cycle so it can
            // be reused a full ring period later; resolve branches due
            // now.
            const std::uint8_t resolved =
                resolve_ring[cycle % kCoreRingSize];
            inflight_branches -= resolved;
            resolve_ring[cycle % kCoreRingSize] = 0;

            // Idle-cycle tracking: a cycle where no stage changes any
            // pipeline, cache or predictor state is "frozen" -- only
            // per-cycle stall counters tick -- and every following
            // cycle replays identically until the next scheduled event.
            // The skip block at the bottom of the loop jumps over such
            // stretches in one step; these flags record what this cycle
            // actually did so the jump knows what repeats.
            bool progress = resolved != 0;
            std::uint64_t *dispatch_stall = nullptr;
            bool fetch_stalled = false;
            // Earliest cycle an IQ entry could become issuable,
            // accumulated for free during the issue scan below.
            std::uint64_t iq_wake = kCoreNotReady;

            // ---- Commit -----------------------------------------------
            for (std::size_t c = 0; c < width && commit_idx < end;
                 ++c) {
                if (commit_idx >= dispatch_idx)
                    break; // nothing dispatched
                CoreScratch::RobSlot &e = slot(commit_idx);
                if (!e.issued || e.readyCycle > cycle)
                    break;
                const DecodedTrace::Op &op = ops[commit_idx];
                if (op.flags & DecodedTrace::kOpStore) {
                    // Stores drain to the D-cache at commit.
                    hierarchy.dataAccess(op.addrOrTarget, true,
                                         mem_events);
                    --lsq_count;
                } else if (op.flags & DecodedTrace::kOpLoad) {
                    --lsq_count;
                }
                if (op.flags & DecodedTrace::kOpProduces)
                    --regs_used;
                if (op.flags & DecodedTrace::kOpBranch) {
                    ++stats.branches;
                    energy.add(EnergyEvent::BpredUpdate);
                }
                energy.add(EnergyEvent::RobRead);
                --rob_count;
                ++commit_idx;
                ++stats.instructions;
                progress = true;
            }

            // ---- Issue ------------------------------------------------
            if (iq.empty()) {
                // nothing to scan
            } else if (iq_all_cached && iq_min_sleep > cycle) {
                // Every entry carries an exact future wake bound, so
                // the scan would keep them all and contribute exactly
                // the min of the bounds -- take that without scanning.
                iq_wake = iq_min_sleep;
            } else {
                std::size_t issued = 0;
                int rd_left = rd_ports;
                std::array<int, kNumFuPools> fu_left = fu_counts;
                std::size_t kept = 0;
                bool scan_all_cached = true;
                std::uint64_t scan_min = kCoreNotReady;
                for (std::size_t pos = 0; pos < iq.size(); ++pos) {
                    const std::size_t idx = iq[pos];
                    // Cached fast path: operands provably not ready
                    // before `sleep` (both producers issued, bound is
                    // their max readyCycle, immutable), so the faithful
                    // scan would fail the entry and fold `sleep` into
                    // iq_wake -- reproduce that without touching the
                    // producers' slots.
                    const std::uint64_t sleep = iq_sleep[pos];
                    if (sleep > cycle) {
                        iq_wake = std::min(iq_wake, sleep);
                        scan_min = std::min(scan_min, sleep);
                        iq[kept] = idx;
                        iq_sleep[kept] = sleep;
                        ++kept;
                        continue;
                    }
                    bool can_issue = issued < width;
                    const DecodedTrace::Op &op = ops[idx];
                    const auto pool =
                        static_cast<std::size_t>(op.pool);
                    int srcs = (op.srcDist1 ? 1 : 0) +
                               (op.srcDist2 ? 1 : 0);
                    std::uint64_t next_sleep = 0;
                    if (can_issue && fu_left[pool] > 0 &&
                        rd_left >= srcs) {
                        const std::uint64_t w1 =
                            src_wake(idx, op.srcDist1);
                        const std::uint64_t w2 =
                            src_wake(idx, op.srcDist2);
                        can_issue = w1 == 0 && w2 == 0;
                        if (!can_issue) {
                            // Issue needs BOTH operands, so the max of
                            // the KNOWN per-operand bounds is a valid
                            // lower bound on this entry's issue even if
                            // the other operand's wake is unknown
                            // (kCoreNotReady). Bounds only ever make
                            // the idle skip stop earlier, which is
                            // always safe.
                            std::uint64_t w = 0;
                            if (w1 != kCoreNotReady)
                                w = w1;
                            if (w2 != kCoreNotReady)
                                w = std::max(w, w2);
                            if (w) {
                                iq_wake = std::min(iq_wake, w);
                                next_sleep = w;
                            }
                        }
                    } else {
                        can_issue = false;
                    }
                    if (can_issue &&
                        (op.flags & DecodedTrace::kOpFpDiv)) {
                        // Non-pipelined: need a divider idle right now.
                        can_issue = false;
                        std::uint64_t div_free = kCoreNotReady;
                        for (auto &busy : div_busy) {
                            if (busy <= cycle) {
                                busy = cycle + fpDivLatency_;
                                can_issue = true;
                                break;
                            }
                            div_free = std::min(div_free, busy);
                        }
                        if (!can_issue) {
                            iq_wake = std::min(iq_wake, div_free);
                            // Busy-until values only grow, so no
                            // divider frees before div_free: also an
                            // exact lower bound on this entry's issue.
                            next_sleep = div_free;
                        }
                    }
                    if (!can_issue) {
                        if (next_sleep) {
                            scan_min = std::min(scan_min, next_sleep);
                            // Chain propagation: no issue before
                            // next_sleep means no result before
                            // next_sleep + execution latency. Publish
                            // that through the unissued slot's
                            // readyCycle so consumers later in this
                            // same scan inherit a bound too. Bounds
                            // are permanent truths (derived from
                            // immutable schedules), so stale ones need
                            // no invalidation -- they merely expire.
                            slot(idx).readyCycle =
                                next_sleep +
                                static_cast<std::uint64_t>(op.latency);
                        } else {
                            scan_all_cached = false;
                        }
                        iq[kept] = idx;
                        iq_sleep[kept] = next_sleep;
                        ++kept;
                        continue;
                    }

                    ++issued;
                    progress = true;
                    rd_left -= srcs;
                    --fu_left[pool];
                    energy.add(EnergyEvent::IqIssue);
                    energy.add(EnergyEvent::RfRead,
                               static_cast<std::uint64_t>(srcs));

                    int latency = op.latency;
                    if (op.flags & DecodedTrace::kOpLoad) {
                        latency += hierarchy.dataAccess(
                            op.addrOrTarget, false, mem_events);
                        energy.add(EnergyEvent::LsqSearch);
                    }
                    const std::uint64_t done =
                        cycle + static_cast<std::uint64_t>(latency);

                    CoreScratch::RobSlot &e = slot(idx);
                    e.issued = true;
                    if (op.flags & DecodedTrace::kOpProduces) {
                        e.readyCycle = writeback_slot(done);
                        energy.add(EnergyEvent::RfWrite);
                        energy.add(EnergyEvent::ResultBus);
                        energy.add(EnergyEvent::IqWakeup);
                    } else {
                        e.readyCycle = done;
                    }
                    energy.add(static_cast<EnergyEvent>(op.fuEvent));

                    if (op.flags & DecodedTrace::kOpBranch) {
                        // Resolution: the branch count drops and, if
                        // this is the branch fetch is stalled on, fetch
                        // restarts after the redirect penalty.
                        const std::uint64_t resolve = done;
                        ++resolve_ring[resolve % kCoreRingSize];
                        if (fetch_wait_branch &&
                            wait_branch_idx == idx) {
                            fetch_wait_branch = false;
                            fetch_blocked_until = std::max(
                                fetch_blocked_until,
                                resolve + redirectPenalty_);
                        }
                    }
                }
                iq.resize(kept);
                iq_sleep.resize(kept);
                iq_all_cached = scan_all_cached;
                iq_min_sleep = scan_min;
            }

            // ---- Dispatch ---------------------------------------------
            for (std::size_t d = 0; d < width; ++d) {
                if (fq_head >= fetch_queue.size())
                    break;
                const CoreScratch::Fetched &f = fetch_queue[fq_head];
                if (f.readyAt > cycle)
                    break;
                const DecodedTrace::Op &op = ops[f.idx];
                if (rob_count == rob_size) {
                    ++stats.dispatchStallRob;
                    dispatch_stall = &stats.dispatchStallRob;
                    break;
                }
                if (iq.size() == iq_size) {
                    ++stats.dispatchStallIq;
                    dispatch_stall = &stats.dispatchStallIq;
                    break;
                }
                if ((op.flags & DecodedTrace::kOpMem) &&
                    lsq_count == lsq_size) {
                    ++stats.dispatchStallLsq;
                    dispatch_stall = &stats.dispatchStallLsq;
                    break;
                }
                if ((op.flags & DecodedTrace::kOpProduces) &&
                    regs_used == rename_regs) {
                    ++stats.dispatchStallRegs;
                    dispatch_stall = &stats.dispatchStallRegs;
                    break;
                }

                CoreScratch::RobSlot &e = slot(f.idx);
                e.readyCycle = kCoreNotReady;
                e.issued = false;
                progress = true;
                ++rob_count;
                iq.push_back(f.idx);
                // Seed the wake cache from the producers' published
                // schedules so a dispatch into an otherwise-sleeping
                // queue does not force a full rescan next cycle.
                {
                    const std::uint64_t w1 =
                        src_wake(f.idx, op.srcDist1);
                    const std::uint64_t w2 =
                        src_wake(f.idx, op.srcDist2);
                    std::uint64_t sleep = 0;
                    if (w1 != kCoreNotReady)
                        sleep = w1;
                    if (w2 != kCoreNotReady)
                        sleep = std::max(sleep, w2);
                    iq_sleep.push_back(sleep);
                    if (sleep) {
                        iq_min_sleep =
                            std::min(iq_min_sleep, sleep);
                        slot(f.idx).readyCycle =
                            sleep +
                            static_cast<std::uint64_t>(op.latency);
                    } else {
                        iq_all_cached = false;
                    }
                }
                if (op.flags & DecodedTrace::kOpMem) {
                    ++lsq_count;
                    energy.add(EnergyEvent::LsqWrite);
                }
                if (op.flags & DecodedTrace::kOpProduces)
                    ++regs_used;
                energy.add(EnergyEvent::RenameLookup);
                energy.add(EnergyEvent::RobWrite);
                energy.add(EnergyEvent::IqWrite);
                ++dispatch_idx;
                ++fq_head;
            }
            if (fq_head > 2 * fq_cap) {
                fetch_queue.erase(
                    fetch_queue.begin(),
                    fetch_queue.begin() +
                        static_cast<std::ptrdiff_t>(fq_head));
                fq_head = 0;
            }

            // ---- Fetch ------------------------------------------------
            if (!fetch_wait_branch && cycle >= fetch_blocked_until) {
                for (std::size_t f = 0; f < width && fetch_idx < end;
                     ++f) {
                    if (fetch_queue.size() - fq_head >= fq_cap)
                        break;
                    const DecodedTrace::Op &op = ops[fetch_idx];

                    // I-cache: access once per new line.
                    const std::uint64_t line = op.pc & lineMask_;
                    if (line != last_fetch_line) {
                        const int lat =
                            hierarchy.instAccess(op.pc, mem_events);
                        progress = true;
                        last_fetch_line = line;
                        if (lat > 1) {
                            fetch_blocked_until =
                                cycle +
                                static_cast<std::uint64_t>(lat);
                            break;
                        }
                    }

                    bool stop_after = false;
                    if (op.flags & DecodedTrace::kOpBranch) {
                        if (inflight_branches >= max_branches) {
                            ++stats.fetchStallBranches;
                            fetch_stalled = true;
                            break;
                        }
                        ++inflight_branches;
                        energy.add(EnergyEvent::BpredLookup);
                        energy.add(EnergyEvent::BtbLookup);
                        const bool taken =
                            (op.flags & DecodedTrace::kOpTaken) != 0;
                        const bool pred =
                            (op.flags & DecodedTrace::kOpCond)
                                ? bpred.predict(op.pc)
                                : true;
                        bpred.update(op.pc, taken);
                        const bool btb_hit = btb.lookup(op.pc);
                        if (taken && !btb_hit) {
                            btb.update(op.pc, op.addrOrTarget);
                            energy.add(EnergyEvent::BtbUpdate);
                            ++stats.btbMisses;
                        }
                        if (pred != taken) {
                            // Direction mispredict: fetch stops until
                            // the branch resolves.
                            ++stats.mispredicts;
                            fetch_wait_branch = true;
                            wait_branch_idx = fetch_idx;
                            stop_after = true;
                        } else if (taken) {
                            if (!btb_hit) {
                                // Correct direction but unknown
                                // target: decode-time redirect bubble.
                                fetch_blocked_until =
                                    cycle + redirectPenalty_;
                            }
                            // Cannot fetch past a taken branch this
                            // cycle.
                            stop_after = true;
                            last_fetch_line = std::numeric_limits<
                                std::uint64_t>::max();
                        }
                    }

                    fetch_queue.push_back(
                        {fetch_idx, cycle + frontEndStages_});
                    ++fetch_idx;
                    progress = true;
                    if (stop_after)
                        break;
                }
            }

            // This cycle's write-port slot can never be referenced
            // again (writebacks are always scheduled at cycle+1 or
            // later), so clear it for reuse one ring period from now.
            wb_ring[cycle % kCoreRingSize] = 0;

            if (progress) {
                ++cycle;
            } else {
                // Frozen cycle: the pipeline replays it unchanged until
                // the next scheduled event, so jump straight there.
                // This is where the batched path beats the scalar
                // reference -- stall-bound stretches (memory latency,
                // unresolved branches) collapse to one iteration.
                // Identity is preserved because a frozen cycle's only
                // observable effects are the stall counters recorded
                // above, which are credited per skipped cycle below.
                std::uint64_t wake = cycleLimit_;
                // Commit: the oldest in-flight instruction completes.
                if (commit_idx < dispatch_idx) {
                    const CoreScratch::RobSlot &e = slot(commit_idx);
                    if (e.issued && e.readyCycle > cycle)
                        wake = std::min(wake, e.readyCycle);
                }
                // Issue: an IQ entry's sources all become ready (or a
                // divider frees up) -- already accumulated by the scan
                // above.
                wake = std::min(wake, iq_wake);
                // Dispatch: the front-end head leaves the fetch
                // pipeline. (A resource-stalled head is freed by a
                // commit or issue event, already bounded above.)
                if (fq_head < fetch_queue.size() &&
                    fetch_queue[fq_head].readyAt > cycle)
                    wake = std::min(wake, fetch_queue[fq_head].readyAt);
                // Fetch: a miss or redirect block expires.
                if (!fetch_wait_branch && fetch_blocked_until > cycle &&
                    fetch_idx < end)
                    wake = std::min(wake, fetch_blocked_until);
                // Branch resolution: inflight_branches drops. Scan the
                // resolve ring for the first pending resolution in
                // (cycle, horizon), eight counters per load: the ring
                // is almost entirely zero during a stall, so testing a
                // whole word at a time beats the byte loop.
                if (inflight_branches > 0) {
                    const std::uint64_t horizon =
                        std::min(wake, cycle + kCoreRingSize);
                    std::uint64_t c = cycle + 1;
                    while (c < horizon) {
                        const std::size_t at = c % kCoreRingSize;
                        const std::uint64_t run = std::min(
                            horizon - c,
                            static_cast<std::uint64_t>(kCoreRingSize -
                                                       at));
                        const std::uint8_t *base =
                            resolve_ring.data() + at;
                        std::uint64_t i = 0;
                        while (i + 8 <= run) {
                            std::uint64_t word;
                            std::memcpy(&word, base + i, 8);
                            if (word)
                                break;
                            i += 8;
                        }
                        const std::uint64_t stop =
                            std::min(run, i + 8);
                        bool found = false;
                        for (; i < stop; ++i) {
                            if (base[i]) {
                                wake = c + i;
                                found = true;
                                break;
                            }
                        }
                        if (found)
                            break;
                        c += run;
                    }
                }
                wake = std::max(wake, cycle + 1);
                wake = std::min({wake, stop_cycle, cycleLimit_});
                const std::uint64_t skipped = wake - cycle - 1;
                if (skipped > 0) {
                    // Each skipped cycle repeats this cycle's stall
                    // accounting and clears its own write-port slot,
                    // exactly as the per-cycle loop would have.
                    if (dispatch_stall)
                        *dispatch_stall += skipped;
                    if (fetch_stalled)
                        stats.fetchStallBranches += skipped;
                    if (skipped >= kCoreRingSize) {
                        std::fill(wb_ring.begin(), wb_ring.end(), 0);
                    } else {
                        for (std::uint64_t c = cycle + 1; c < wake; ++c)
                            wb_ring[c % kCoreRingSize] = 0;
                    }
                }
                cycle = wake;
            }
            ACDSE_CHECK(cycle < cycleLimit_,
                         "pipeline deadlock detected in ",
                         trace_.name(), " at instruction ", commit_idx);
        }

        commitIdx_[l] = commit_idx;
        dispatchIdx_[l] = dispatch_idx;
        fetchIdx_[l] = fetch_idx;
        robCount_[l] = rob_count;
        lsqCount_[l] = lsq_count;
        regsUsed_[l] = regs_used;
        fqHead_[l] = fq_head;
        cycle_[l] = cycle;
        fetchBlockedUntil_[l] = fetch_blocked_until;
        fetchWaitBranch_[l] = fetch_wait_branch ? 1 : 0;
        waitBranchIdx_[l] = wait_branch_idx;
        inflightBranches_[l] = inflight_branches;
        lastFetchLine_[l] = last_fetch_line;
        return commit_idx >= end;
    }

    /** Final accounting for a lane that committed its interval. */
    void
    finishLane(std::size_t l)
    {
        CoreStats &stats = stats_[l];
        stats.cycles = cycle_[l];
        stats.il1Misses = hierarchy_[l]->il1().misses() - il1Miss0_[l];
        stats.dl1Misses = hierarchy_[l]->dl1().misses() - dl1Miss0_[l];
        stats.l2Misses = hierarchy_[l]->l2().misses() - l2Miss0_[l];

        EnergyModel &energy = *energy_[l];
        const HierarchyAccessEvents &events = memEvents_[l];
        energy.add(EnergyEvent::Il1Access,
                   static_cast<std::uint64_t>(events.il1));
        energy.add(EnergyEvent::Dl1Access,
                   static_cast<std::uint64_t>(events.dl1));
        energy.add(EnergyEvent::L2Access,
                   static_cast<std::uint64_t>(events.l2));
        energy.add(EnergyEvent::MemAccess,
                   static_cast<std::uint64_t>(events.mem));
    }

    const DecodedTrace &trace_;
    const std::size_t lanes_;

    // Shared fixed parameters, hoisted out of the cycle loop.
    std::uint64_t lineMask_;
    std::uint64_t frontEndStages_;
    std::uint64_t redirectPenalty_;
    std::uint64_t fpDivLatency_;

    // Per-lane components (storage owned by the SimScratch).
    std::array<EnergyModel *, kSimLanes> energy_;
    std::array<CacheHierarchy *, kSimLanes> hierarchy_;
    std::array<GsharePredictor *, kSimLanes> bpred_;
    std::array<Btb *, kSimLanes> btb_;
    std::array<CoreScratch *, kSimLanes> core_;

    // Per-lane structural limits (SoA, set once per batch).
    alignas(64) std::array<std::size_t, kSimLanes> width_;
    std::array<std::size_t, kSimLanes> robSize_;
    std::array<std::size_t, kSimLanes> robMask_;
    std::array<std::size_t, kSimLanes> iqSize_;
    std::array<std::size_t, kSimLanes> lsqSize_;
    std::array<int, kSimLanes> rdPorts_;
    std::array<int, kSimLanes> wrPorts_;
    std::array<std::size_t, kSimLanes> maxBranches_;
    std::array<std::array<int, kNumFuPools>, kSimLanes> fuCounts_;
    std::array<std::size_t, kSimLanes> numDividers_;
    std::array<std::size_t, kSimLanes> renameRegs_;
    std::array<std::size_t, kSimLanes> fqCap_;

    // Per-lane run state (SoA, reset per run()).
    alignas(64) std::array<std::size_t, kSimLanes> commitIdx_;
    std::array<std::size_t, kSimLanes> dispatchIdx_;
    std::array<std::size_t, kSimLanes> fetchIdx_;
    std::array<std::size_t, kSimLanes> robCount_;
    std::array<std::size_t, kSimLanes> lsqCount_;
    std::array<std::size_t, kSimLanes> regsUsed_;
    std::array<std::size_t, kSimLanes> fqHead_;
    alignas(64) std::array<std::uint64_t, kSimLanes> cycle_;
    std::array<std::uint64_t, kSimLanes> fetchBlockedUntil_;
    std::array<std::uint8_t, kSimLanes> fetchWaitBranch_;
    std::array<std::size_t, kSimLanes> waitBranchIdx_;
    std::array<std::size_t, kSimLanes> inflightBranches_;
    std::array<std::uint64_t, kSimLanes> lastFetchLine_;
    std::array<std::uint64_t, kSimLanes> il1Miss0_;
    std::array<std::uint64_t, kSimLanes> dl1Miss0_;
    std::array<std::uint64_t, kSimLanes> l2Miss0_;
    std::array<HierarchyAccessEvents, kSimLanes> memEvents_;

    // Per-run interval and output.
    std::size_t runBegin_ = 0;
    std::size_t runEnd_ = 0;
    std::uint64_t cycleLimit_ = 0;
    CoreStats *stats_ = nullptr;
};

/** One lane group: warmup + timed run + result assembly. */
void
runGroup(std::span<const MicroarchConfig> configs,
         const DecodedTrace &trace, const SimulationOptions &options,
         SimulationResult *results, SimScratch &scratch)
{
    BatchSimulator sim(configs, trace, scratch);
    const std::size_t n = configs.size();
    std::array<CoreStats, kSimLanes> stats;

    std::size_t begin = 0;
    if (options.warmupInstructions > 0 && trace.size() > 2) {
        // Warm microarchitectural state with an untimed run over the
        // prefix; discard its statistics and energy events.
        begin = std::min(options.warmupInstructions, trace.size() / 2);
        sim.run(0, begin, stats.data());
        for (std::size_t l = 0; l < n; ++l)
            sim.energy(l).resetCounts();
    }

    sim.run(begin, trace.size(), stats.data());
    for (std::size_t l = 0; l < n; ++l) {
        SimulationResult &result = results[l];
        result.stats = stats[l];
        result.dynamicNj = sim.energy(l).dynamicEnergyNj();
        result.staticNj =
            sim.energy(l).staticEnergyNj(stats[l].cycles);
        result.metrics = Metrics::fromCyclesEnergy(
            static_cast<double>(stats[l].cycles),
            result.dynamicNj + result.staticNj);
        ACDSE_CHECK_FINITE(result.metrics.cycles, "simulated cycles");
        ACDSE_CHECK_FINITE(result.metrics.energyNj, "simulated energy");
        ACDSE_CHECK(result.metrics.cycles > 0.0,
                     "simulation produced no cycles");
    }
}

} // namespace

void
simulateBatch(std::span<const MicroarchConfig> configs,
              const DecodedTrace &trace, const SimulationOptions &options,
              std::span<SimulationResult> results, SimScratch &scratch)
{
    ACDSE_CHECK(results.size() >= configs.size(),
                 "result span smaller than the config batch");
    const obs::TraceSpan span(obs::Registry::global(), "sim/batch");
    for (std::size_t first = 0; first < configs.size();
         first += kSimLanes) {
        const std::size_t n =
            std::min(kSimLanes, configs.size() - first);
        runGroup(configs.subspan(first, n), trace, options,
                 results.data() + first, scratch);
    }
    std::uint64_t instructions = 0;
    for (std::size_t i = 0; i < configs.size(); ++i)
        instructions += results[i].stats.instructions;
    obs::Registry &registry = obs::Registry::global();
    registry.counter("sim/instructions").add(instructions);
    registry.counter("sim/lanes-occupied").add(configs.size());
}

std::vector<SimulationResult>
simulateBatch(std::span<const MicroarchConfig> configs, const Trace &trace,
              const SimulationOptions &options)
{
    const DecodedTrace decoded(trace);
    SimScratch scratch;
    std::vector<SimulationResult> results(configs.size());
    simulateBatch(configs, decoded, options, results, scratch);
    return results;
}

std::vector<SampledResult>
simulateWithSimPointsBatch(std::span<const MicroarchConfig> configs,
                           const Trace &trace,
                           const SimPointOptions &options)
{
    std::vector<SampledResult> results(configs.size());
    // One analysis serves every lane: simpointAnalyze() is a pure
    // function of (trace, options), so sharing it preserves
    // bit-identity with the scalar path, which recomputes it per
    // config.
    const SimPointResult analysis = simpointAnalyze(trace, options);
    ACDSE_CHECK(!analysis.points.empty(), "no simulation points");
    const std::size_t len = options.intervalLength;

    const DecodedTrace decoded(trace);
    SimScratch scratch;
    std::vector<double> cycles_per_interval(analysis.numIntervals);
    std::vector<double> energy_per_interval(analysis.numIntervals);
    std::array<CoreStats, kSimLanes> stats;

    for (std::size_t first = 0; first < configs.size();
         first += kSimLanes) {
        const std::size_t n =
            std::min(kSimLanes, configs.size() - first);
        // Per-lane interval estimates for this group.
        std::array<std::vector<double>, kSimLanes> lane_cycles;
        std::array<std::vector<double>, kSimLanes> lane_energy;
        std::array<std::uint64_t, kSimLanes> timed{};
        for (std::size_t l = 0; l < n; ++l) {
            lane_cycles[l].assign(analysis.numIntervals, 0.0);
            lane_energy[l].assign(analysis.numIntervals, 0.0);
        }

        for (const auto &point : analysis.points) {
            const std::size_t begin = point.intervalIndex * len;
            const std::size_t end =
                std::min(begin + len, trace.size());
            // Fresh per-point state, as the scalar path constructs a
            // fresh core per point.
            BatchSimulator sim(configs.subspan(first, n), decoded,
                               scratch);
            if (begin >= len)
                sim.warm(begin - len, begin);
            sim.run(begin, end, stats.data());
            for (std::size_t l = 0; l < n; ++l) {
                timed[l] += stats[l].instructions;
                lane_cycles[l][point.intervalIndex] =
                    static_cast<double>(stats[l].cycles);
                lane_energy[l][point.intervalIndex] =
                    sim.energy(l).totalEnergyNj(stats[l].cycles);
            }
        }

        for (std::size_t l = 0; l < n; ++l) {
            SampledResult &result = results[first + l];
            result.metrics = Metrics::fromCyclesEnergy(
                simpointWeightedSum(analysis, lane_cycles[l]),
                simpointWeightedSum(analysis, lane_energy[l]));
            result.simulatedInstructions = timed[l];
            result.detailFraction = static_cast<double>(timed[l]) /
                                    static_cast<double>(trace.size());
        }
    }
    return results;
}

std::vector<SampledResult>
simulateWithSmartsBatch(std::span<const MicroarchConfig> configs,
                        const Trace &trace, const SmartsOptions &options)
{
    std::vector<SampledResult> results(configs.size());
    ACDSE_CHECK(options.unitInstructions > 0, "empty measurement unit");
    ACDSE_CHECK(options.samplingPeriod > 0,
                 "sampling period must be >0");
    const std::size_t unit = options.unitInstructions;
    const std::size_t num_units = (trace.size() + unit - 1) / unit;

    const DecodedTrace decoded(trace);
    SimScratch scratch;
    std::array<CoreStats, kSimLanes> stats;

    for (std::size_t first = 0; first < configs.size();
         first += kSimLanes) {
        const std::size_t n =
            std::min(kSimLanes, configs.size() - first);
        // Persistent per-group state: caches and predictors stay warm
        // across units, exactly like the scalar path's long-lived core.
        BatchSimulator sim(configs.subspan(first, n), decoded, scratch);
        std::array<double, kSimLanes> measured_cycles{};
        std::array<double, kSimLanes> measured_energy{};
        std::array<std::uint64_t, kSimLanes> timed{};
        std::size_t measured_units = 0;

        for (std::size_t u = 0; u < num_units; ++u) {
            const std::size_t begin = u * unit;
            const std::size_t end =
                std::min(begin + unit, trace.size());
            const bool measure =
                (u % options.samplingPeriod) ==
                (options.offset % options.samplingPeriod);
            if (measure) {
                for (std::size_t l = 0; l < n; ++l)
                    sim.energy(l).resetCounts();
                sim.run(begin, end, stats.data());
                for (std::size_t l = 0; l < n; ++l) {
                    measured_cycles[l] +=
                        static_cast<double>(stats[l].cycles);
                    measured_energy[l] +=
                        sim.energy(l).dynamicEnergyNj() +
                        sim.energy(l).staticEnergyNj(stats[l].cycles);
                    timed[l] += stats[l].instructions;
                }
                ++measured_units;
            } else {
                // Functional warming only: caches and predictors stay
                // hot, no timing is modelled.
                sim.warm(begin, end);
            }
        }
        ACDSE_CHECK(measured_units > 0, "no units were measured");

        const double scale = static_cast<double>(num_units) /
                             static_cast<double>(measured_units);
        for (std::size_t l = 0; l < n; ++l) {
            SampledResult &result = results[first + l];
            result.metrics = Metrics::fromCyclesEnergy(
                measured_cycles[l] * scale,
                measured_energy[l] * scale);
            result.simulatedInstructions = timed[l];
            result.detailFraction = static_cast<double>(timed[l]) /
                                    static_cast<double>(trace.size());
        }
    }
    return results;
}

} // namespace acdse
