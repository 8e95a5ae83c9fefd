#include "sim/batch.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

#include "base/check.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "sim/core_ops.hh"

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
 * Reconfigure the component in @p slot in place, or construct it on
 * first use.
 */
template <typename T, typename... Args>
T &
recycle(std::optional<T> &slot, const Args &...args)
{
    if (slot)
        slot->reconfigure(args...);
    else
        slot.emplace(args...);
    return *slot;
}

/**
 * Timed run of @p config over decoded instructions [begin, end), with
 * the components in @p scratch (already configured for @p config).
 * Caches and predictors keep their state across calls, so a warm-up
 * run followed by a timed one matches simulate(). All pipeline state
 * lives in locals for the whole interval; the bulky storage (ROB/IQ
 * and ring vectors) is the scratch's, reused across calls.
 *
 * The loop is a faithful transcription of the scalar pipeline loop in
 * OooCore::run() -- every structural limit, stall and energy event in
 * the same order. Any edit there needs a mirror here; the bit-identity
 * suite (tests/test_batch_sim.cc) catches drift.
 *
 * On top of the transcription sit two provably invisible shortcuts,
 * the source of this path's speedup over the scalar reference:
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
CoreStats
replay(const MicroarchConfig &config, const DecodedTrace &trace,
       std::size_t begin, std::size_t end, SimScratch &scratch)
{
    end = std::min(end, trace.size());
    ACDSE_CHECK(begin < end, "empty simulation interval");
    const DecodedTrace::Op *ops = trace.ops();

    const FixedParams &fp = fixedParams();
    const std::size_t width = static_cast<std::size_t>(config.width());
    const std::size_t rob_size =
        static_cast<std::size_t>(config.robSize());
    const std::size_t iq_size = static_cast<std::size_t>(config.iqSize());
    const std::size_t lsq_size =
        static_cast<std::size_t>(config.lsqSize());
    const int rd_ports = config.rfReadPorts();
    const int wr_ports = config.rfWritePorts();
    const std::size_t max_branches =
        static_cast<std::size_t>(config.maxBranches());
    const FunctionalUnitCounts fus =
        functionalUnitsForWidth(config.width());
    const std::array<int, kNumFuPools> fu_counts = {
        fus.intAlu, fus.intMul, fus.fpAlu, fus.fpMulDiv};
    const std::size_t rename_regs = static_cast<std::size_t>(
        std::max(1, config.rfSize() - fp.archRegs));
    const std::size_t fq_cap =
        width * (static_cast<std::size_t>(fp.frontEndStages) + 2);
    const std::uint64_t line_mask =
        ~static_cast<std::uint64_t>(fp.l1LineBytes - 1);
    const std::uint64_t front_end_stages =
        static_cast<std::uint64_t>(fp.frontEndStages);
    const std::uint64_t redirect_penalty =
        static_cast<std::uint64_t>(fp.mispredictRedirect);
    const std::uint64_t fp_div_latency =
        static_cast<std::uint64_t>(fp.fpDivLatency);
    const std::uint64_t cycle_limit =
        static_cast<std::uint64_t>(end - begin) * 600 + 200000;

    EnergyModel &energy = *scratch.energy;
    CacheHierarchy &hierarchy = *scratch.hierarchy;
    GsharePredictor &bpred = *scratch.bpred;
    Btb &btb = *scratch.btb;
    CoreStats stats;
    HierarchyAccessEvents mem_events;
    const std::uint64_t il1_miss0 = hierarchy.il1().misses();
    const std::uint64_t dl1_miss0 = hierarchy.dl1().misses();
    const std::uint64_t l2_miss0 = hierarchy.l2().misses();

    // The ROB array is padded to a power of two so slot lookup is an
    // AND instead of an integer division. Any injective mapping of the
    // <= rob_size in-flight instructions to distinct slots gives
    // identical results; occupancy is still limited by rob_size below.
    std::size_t rob_alloc = 1;
    while (rob_alloc < rob_size)
        rob_alloc <<= 1;
    const std::size_t rob_mask = rob_alloc - 1;
    CoreScratch &cs = scratch.core;
    auto &rob = cs.rob;
    rob.assign(rob_alloc, CoreScratch::RobSlot{});
    auto &fetch_queue = cs.fetchQueue;
    fetch_queue.clear();
    auto &iq = cs.iq;
    iq.clear();
    iq.reserve(iq_size);
    auto &iq_sleep = cs.iqSleep;
    iq_sleep.clear();
    iq_sleep.reserve(iq_size);
    auto &wb_ring = cs.wbRing;
    wb_ring.assign(kCoreRingSize, 0);
    auto &resolve_ring = cs.resolveRing;
    resolve_ring.assign(kCoreRingSize, 0);
    auto &div_busy = cs.divBusy;
    div_busy.assign(static_cast<std::size_t>(fus.fpMulDiv), 0);

    std::size_t commit_idx = begin;
    std::size_t dispatch_idx = begin;
    std::size_t fetch_idx = begin;
    std::size_t rob_count = 0;
    std::size_t lsq_count = 0;
    std::size_t regs_used = 0;
    std::size_t fq_head = 0;
    std::uint64_t cycle = 0;
    std::uint64_t fetch_blocked_until = 0;
    bool fetch_wait_branch = false;
    std::size_t wait_branch_idx = 0;
    std::size_t inflight_branches = 0;
    std::uint64_t last_fetch_line =
        std::numeric_limits<std::uint64_t>::max();
    // True when every IQ entry carries a nonzero sleep bound; the min
    // of those bounds. While the min lies in the future the whole issue
    // scan is provably a no-op (no entry's operands can be ready) and
    // is skipped outright. Conservatively rebuilt by the first full
    // scan.
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

    while (commit_idx < end) {
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
                            busy = cycle + fp_div_latency;
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
                            resolve + redirect_penalty);
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
                const std::uint64_t line = op.pc & line_mask;
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
                                cycle + redirect_penalty;
                        }
                        // Cannot fetch past a taken branch this
                        // cycle.
                        stop_after = true;
                        last_fetch_line = std::numeric_limits<
                            std::uint64_t>::max();
                    }
                }

                fetch_queue.push_back(
                    {fetch_idx, cycle + front_end_stages});
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
            std::uint64_t wake = cycle_limit;
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
            wake = std::min(wake, cycle_limit);
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
        ACDSE_CHECK(cycle < cycle_limit,
                     "pipeline deadlock detected in ",
                     trace.name(), " at instruction ", commit_idx);
    }

    stats.cycles = cycle;
    stats.il1Misses = hierarchy.il1().misses() - il1_miss0;
    stats.dl1Misses = hierarchy.dl1().misses() - dl1_miss0;
    stats.l2Misses = hierarchy.l2().misses() - l2_miss0;
    energy.add(EnergyEvent::Il1Access,
               static_cast<std::uint64_t>(mem_events.il1));
    energy.add(EnergyEvent::Dl1Access,
               static_cast<std::uint64_t>(mem_events.dl1));
    energy.add(EnergyEvent::L2Access,
               static_cast<std::uint64_t>(mem_events.l2));
    energy.add(EnergyEvent::MemAccess,
               static_cast<std::uint64_t>(mem_events.mem));
    return stats;
}

/** One configuration: warm-up + timed run + result assembly. */
SimulationResult
simulateOne(const MicroarchConfig &config, const DecodedTrace &trace,
            const SimulationOptions &options, SimScratch &scratch)
{
    EnergyModel &energy = recycle(scratch.energy, config);
    recycle(scratch.hierarchy, config);
    recycle(scratch.bpred, config.bpredEntries());
    recycle(scratch.btb, config.btbEntries());

    std::size_t begin = 0;
    if (options.warmupInstructions > 0 && trace.size() > 2) {
        // Warm microarchitectural state with an untimed run over the
        // prefix; discard its statistics and energy events.
        begin = std::min(options.warmupInstructions, trace.size() / 2);
        replay(config, trace, 0, begin, scratch);
        energy.resetCounts();
    }

    SimulationResult result;
    result.stats = replay(config, trace, begin, trace.size(), scratch);
    result.dynamicNj = energy.dynamicEnergyNj();
    result.staticNj = energy.staticEnergyNj(result.stats.cycles);
    result.metrics = Metrics::fromCyclesEnergy(
        static_cast<double>(result.stats.cycles),
        result.dynamicNj + result.staticNj);
    ACDSE_CHECK_FINITE(result.metrics.cycles, "simulated cycles");
    ACDSE_CHECK_FINITE(result.metrics.energyNj, "simulated energy");
    ACDSE_CHECK(result.metrics.cycles > 0.0,
                "simulation produced no cycles");
    return result;
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
    std::uint64_t instructions = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        results[i] = simulateOne(configs[i], trace, options, scratch);
        instructions += results[i].stats.instructions;
    }
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

} // namespace acdse
