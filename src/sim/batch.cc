#include "sim/batch.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>

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

} // namespace

EnergyModel &
SimScratch::configure(const MicroarchConfig &design)
{
    config = design;
    EnergyModel &model = recycle(energy, design);
    recycle(hierarchy, design);
    recycle(bpred, design.bpredEntries());
    recycle(btb, design.btbEntries());
    return model;
}

void
warm(const DecodedTrace &trace, std::size_t begin, std::size_t end,
     SimScratch &scratch)
{
    ACDSE_DCHECK(scratch.hierarchy, "warm() on an unconfigured scratch");
    end = std::min(end, trace.size());
    const DecodedTrace::Op *ops = trace.ops();
    CacheHierarchy &hierarchy = *scratch.hierarchy;
    GsharePredictor &bpred = *scratch.bpred;
    Btb &btb = *scratch.btb;
    HierarchyAccessEvents discard;
    const std::uint64_t line_mask =
        ~static_cast<std::uint64_t>(fixedParams().l1LineBytes - 1);
    std::uint64_t last_line = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = begin; i < end; ++i) {
        const DecodedTrace::Op &op = ops[i];
        const std::uint64_t line = op.pc & line_mask;
        if (line != last_line) {
            hierarchy.instAccess(op.pc, discard);
            last_line = line;
        }
        if (op.flags & DecodedTrace::kOpMem) {
            hierarchy.dataAccess(op.addrOrTarget,
                                 (op.flags & DecodedTrace::kOpStore) != 0,
                                 discard);
        } else if (op.flags & DecodedTrace::kOpBranch) {
            const bool taken = (op.flags & DecodedTrace::kOpTaken) != 0;
            bpred.update(op.pc, taken);
            if (taken && !btb.lookup(op.pc))
                btb.update(op.pc, op.addrOrTarget);
        }
    }
}

/*
 * The timed run. All pipeline state lives in locals for the whole
 * interval; the bulky storage (ROB, wheel and ring vectors) is the
 * scratch's, reused across calls.
 *
 * The loop is the cycle-by-cycle pipeline of the reference simulator
 * (tests/reference_sim.cc) -- every structural limit, stall and energy
 * event in the same order. The bit-identity suites
 * (tests/test_batch_sim.cc) compare the two on random and extreme
 * configurations.
 *
 * Two shortcuts make it fast, and neither is visible in the results:
 *
 *  - Event-driven issue. The reference walks the whole issue queue
 *    every cycle and tests each entry's operands. Here every
 *    dispatched, unissued instruction is in exactly one of three
 *    states (SimScratch::RobSlot):
 *      blocked -- it waits on a producer that has not issued, and is
 *                 linked into that producer's wake list;
 *      timed   -- every producer has issued, so the cycle its operands
 *                 are ready is known; it is parked in the wheel bucket
 *                 of that cycle;
 *      ready   -- a bit in a mask over ROB slots.
 *    A producer's issue walks its wake list, and a consumer whose last
 *    producer issued is parked at the latest of their result cycles --
 *    always a later cycle, as no result lands in its issue cycle. Each
 *    cycle first moves its wheel bucket into the ready mask, then
 *    walks the ready bits in age order (count-trailing-zeros from the
 *    oldest in-flight slot) and applies the reference's greedy checks
 *    unchanged: issue width, functional units per pool, register read
 *    ports and the non-pipelined dividers. The reference's scan
 *    visits the same entries in the same order; the ones it skips
 *    are exactly those whose operands are not ready.
 *
 *  - Idle-cycle skipping. A cycle in which no stage changed any
 *    pipeline, cache or predictor state replays identically until the
 *    next scheduled event (a commit, a wheel bucket, a divider
 *    freeing, a fetch-queue arrival, a block expiring, a branch
 *    resolving). The skip block jumps there in one step and credits
 *    the per-cycle stall counters -- the only observable effect of the
 *    skipped cycles -- in bulk.
 */
CoreStats
replay(const DecodedTrace &trace, std::size_t begin, std::size_t end,
       SimScratch &scratch)
{
    using SlotMask = SimScratch::SlotMask;
    ACDSE_DCHECK(scratch.energy, "replay() on an unconfigured scratch");
    const MicroarchConfig &config = scratch.config;
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
    // In-flight instructions are consecutive trace indices, so walking
    // the slots circularly from the oldest one's visits them in age
    // order.
    std::size_t rob_alloc = 1;
    while (rob_alloc < rob_size)
        rob_alloc <<= 1;
    ACDSE_CHECK(rob_alloc <= SimScratch::kMaxRobSlots,
                "ROB size ", rob_size, " exceeds the simulator's ",
                SimScratch::kMaxRobSlots, " slots");
    const std::size_t rob_mask = rob_alloc - 1;
    const std::size_t slot_words = std::max<std::size_t>(1, rob_alloc / 64);
    auto &rob = scratch.rob;
    rob.assign(rob_alloc, SimScratch::RobSlot{});
    auto &fetch_queue = scratch.fetchQueue;
    fetch_queue.clear();
    auto &wheel = scratch.wheel;
    wheel.resize(kCoreRingSize);
    auto &wb_ring = scratch.wbRing;
    wb_ring.assign(kCoreRingSize, 0);
    auto &resolve_ring = scratch.resolveRing;
    resolve_ring.assign(kCoreRingSize, 0);
    auto &div_busy = scratch.divBusy;
    div_busy.assign(static_cast<std::size_t>(fus.fpMulDiv), 0);

    static_assert((kCoreRingSize & (kCoreRingSize - 1)) == 0 &&
                      kCoreRingSize % 64 == 0,
                  "the wheel's occupancy scan needs a power-of-two ring");
    constexpr std::size_t kWheelWords = kCoreRingSize / 64;
    // Which wheel buckets hold parked entries.
    std::array<std::uint64_t, kWheelWords> wheel_used{};
    // Slots whose operands are ready; the candidates for issue.
    SlotMask ready{};
    std::size_t iq_count = 0;

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

    auto slot = [&](std::size_t idx) -> SimScratch::RobSlot & {
        return rob[idx & rob_mask];
    };

    // Park slot `s` in the wheel bucket of cycle `at`, which must lie
    // in (cycle, cycle + kCoreRingSize). A bucket not marked used
    // holds stale bits from an earlier ring period, so the first entry
    // overwrites it.
    auto park = [&](std::size_t s, std::uint64_t at) {
        ACDSE_DCHECK(at > cycle && at - cycle < kCoreRingSize,
                     "wake-up outside the timing wheel");
        const std::size_t b = at % kCoreRingSize;
        const std::uint64_t used_bit = std::uint64_t{1} << (b % 64);
        SlotMask &bucket = wheel[b];
        if (!(wheel_used[b / 64] & used_bit)) {
            bucket = SlotMask{};
            wheel_used[b / 64] |= used_bit;
        }
        bucket[s / 64] |= std::uint64_t{1} << (s % 64);
    };

    auto any_ready = [&] {
        return std::any_of(ready.begin(), ready.end(),
                           [](std::uint64_t w) { return w != 0; });
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

        // ---- Commit -----------------------------------------------
        for (std::size_t c = 0; c < width && commit_idx < end;
             ++c) {
            if (commit_idx >= dispatch_idx)
                break; // nothing dispatched
            SimScratch::RobSlot &e = slot(commit_idx);
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
        // Entries whose operands become ready this cycle join the
        // ready set.
        {
            const std::size_t b = cycle % kCoreRingSize;
            const std::uint64_t used_bit = std::uint64_t{1} << (b % 64);
            if (wheel_used[b / 64] & used_bit) {
                wheel_used[b / 64] &= ~used_bit;
                for (std::size_t w = 0; w < slot_words; ++w)
                    ready[w] |= wheel[b][w];
            }
        }
        if (any_ready()) {
            std::size_t issued = 0;
            int rd_left = rd_ports;
            std::array<int, kNumFuPools> fu_left = fu_counts;
            // Visit the ready slots in age order: from the oldest
            // in-flight slot to the end of its word and on through the
            // later words, then wrap around to the slots before it.
            const std::size_t oldest = commit_idx & rob_mask;
            const std::size_t first_word = oldest / 64;
            for (std::size_t k = 0; k <= slot_words && issued < width;
                 ++k) {
                const std::size_t w = (first_word + k) & (slot_words - 1);
                std::uint64_t bits = ready[w];
                if (k == 0)
                    bits &= ~std::uint64_t{0} << (oldest % 64);
                else if (k == slot_words)
                    bits &= (std::uint64_t{1} << (oldest % 64)) - 1;
                while (bits) {
                    const std::size_t s =
                        w * 64 +
                        static_cast<std::size_t>(std::countr_zero(bits));
                    bits &= bits - 1;
                    const std::size_t idx =
                        commit_idx + ((s - oldest) & rob_mask);
                    const DecodedTrace::Op &op = ops[idx];
                    const auto pool = static_cast<std::size_t>(op.pool);
                    const int srcs = (op.srcDist1 ? 1 : 0) +
                                     (op.srcDist2 ? 1 : 0);
                    if (fu_left[pool] == 0 || rd_left < srcs)
                        continue;
                    if (op.flags & DecodedTrace::kOpFpDiv) {
                        // Non-pipelined: need a divider idle right now.
                        auto idle = std::find_if(
                            div_busy.begin(), div_busy.end(),
                            [&](std::uint64_t busy) {
                                return busy <= cycle;
                            });
                        if (idle == div_busy.end())
                            continue;
                        *idle = cycle + fp_div_latency;
                    }

                    ready[w] &= ~(std::uint64_t{1} << (s % 64));
                    --iq_count;
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

                    SimScratch::RobSlot &e = rob[s];
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

                    // Wake the consumers: one whose last producer this
                    // was is parked at its operands' ready cycle. A
                    // store or branch wakes its consumers too -- the
                    // model waits on any producer's readyCycle.
                    for (std::uint16_t link = e.wakeHead;
                         link != SimScratch::kNoLink;) {
                        const std::size_t c = link >> 1;
                        SimScratch::RobSlot &consumer = rob[c];
                        link = consumer.wakeNext[link & 1];
                        consumer.operandsAt =
                            std::max(consumer.operandsAt, e.readyCycle);
                        if (--consumer.pending == 0)
                            park(c, consumer.operandsAt);
                    }
                    e.wakeHead = SimScratch::kNoLink;

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
                    if (issued == width)
                        break;
                }
            }
        }

        // ---- Dispatch ---------------------------------------------
        for (std::size_t d = 0; d < width; ++d) {
            if (fq_head >= fetch_queue.size())
                break;
            const SimScratch::Fetched &f = fetch_queue[fq_head];
            if (f.readyAt > cycle)
                break;
            const DecodedTrace::Op &op = ops[f.idx];
            if (rob_count == rob_size) {
                ++stats.dispatchStallRob;
                dispatch_stall = &stats.dispatchStallRob;
                break;
            }
            if (iq_count == iq_size) {
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

            const std::size_t s = f.idx & rob_mask;
            SimScratch::RobSlot &e = rob[s];
            e.readyCycle = kCoreNotReady;
            e.issued = false;
            e.wakeHead = SimScratch::kNoLink;
            // Issue is next cycle at the earliest. A source whose
            // producer has committed, or lies before the interval, is
            // ready; an issued producer's result cycle is known; an
            // unissued producer will wake this entry when it issues.
            e.operandsAt = cycle + 1;
            e.pending = 0;
            // Branch-free: which of the three cases applies is data
            // dependent and mispredicts badly. A source that does not
            // wait links into a dummy list head instead.
            std::uint16_t no_wait_head = SimScratch::kNoLink;
            auto wait_for = [&](std::uint32_t dist, unsigned source) {
                const std::size_t producer = f.idx - dist;
                const bool live =
                    (dist != 0) & (producer >= commit_idx) &
                    (dist <= static_cast<std::uint32_t>(f.idx - begin));
                SimScratch::RobSlot &p = slot(producer);
                const bool issued = p.issued;
                e.operandsAt = std::max(
                    e.operandsAt, live & issued ? p.readyCycle : 0);
                const bool waits = live & !issued;
                std::uint16_t &head = waits ? p.wakeHead : no_wait_head;
                e.wakeNext[source] = head;
                head = static_cast<std::uint16_t>(s << 1 | source);
                e.pending = static_cast<std::uint8_t>(e.pending + waits);
            };
            wait_for(op.srcDist1, 0);
            if (op.srcDist2 != op.srcDist1)
                wait_for(op.srcDist2, 1);
            if (e.pending == 0) {
                if (e.operandsAt == cycle + 1)
                    ready[s / 64] |= std::uint64_t{1} << (s % 64);
                else
                    park(s, e.operandsAt);
            }
            ++iq_count;
            progress = true;
            ++rob_count;
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
            // This is where the engine beats the reference loop --
            // stall-bound stretches (memory latency, unresolved
            // branches) collapse to one iteration.
            // Identity is preserved because a frozen cycle's only
            // observable effects are the stall counters recorded
            // above, which are credited per skipped cycle below.
            std::uint64_t wake = cycle_limit;
            // Commit: the oldest in-flight instruction completes.
            if (commit_idx < dispatch_idx) {
                const SimScratch::RobSlot &e = slot(commit_idx);
                if (e.issued && e.readyCycle > cycle)
                    wake = std::min(wake, e.readyCycle);
            }
            // Issue: the first occupied wheel bucket after this cycle
            // (every parked cycle lies within one ring period).
            {
                const std::size_t from = (cycle + 1) % kCoreRingSize;
                const std::size_t first_word = from / 64;
                for (std::size_t k = 0; k <= kWheelWords; ++k) {
                    const std::size_t w =
                        (first_word + k) % kWheelWords;
                    std::uint64_t bits = wheel_used[w];
                    if (k == 0)
                        bits &= ~std::uint64_t{0} << (from % 64);
                    else if (k == kWheelWords)
                        bits &= (std::uint64_t{1} << (from % 64)) - 1;
                    if (bits) {
                        const std::size_t b =
                            w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bits));
                        wake = std::min(
                            wake, cycle + 1 +
                                      ((b - from) & (kCoreRingSize - 1)));
                        break;
                    }
                }
            }
            // Issue: nothing issued, so every ready entry is a
            // division waiting for a divider -- the first to free
            // up. (Width, ports and units only run out when something
            // issues.)
            if (any_ready()) {
                const std::uint64_t div_free =
                    *std::min_element(div_busy.begin(), div_busy.end());
                wake = std::min(wake, std::max(div_free, cycle + 1));
            }
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

namespace
{

/** One configuration: warm-up + timed run + result assembly. */
SimulationResult
simulateOne(const MicroarchConfig &config, const DecodedTrace &trace,
            const SimulationOptions &options, SimScratch &scratch)
{
    EnergyModel &energy = scratch.configure(config);

    std::size_t begin = 0;
    if (options.warmupInstructions > 0 && trace.size() > 2) {
        // Warm microarchitectural state with an untimed run over the
        // prefix; discard its statistics and energy events.
        begin = std::min(options.warmupInstructions, trace.size() / 2);
        replay(trace, 0, begin, scratch);
        energy.resetCounts();
    }

    SimulationResult result;
    result.stats = replay(trace, begin, trace.size(), scratch);
    result.dynamicNj = energy.dynamicEnergyNj();
    result.staticNj = energy.staticEnergyNj(result.stats.cycles);
    result.metrics = Metrics::fromCyclesEnergy(
        static_cast<double>(result.stats.cycles),
        result.dynamicNj + result.staticNj);
    // Everything downstream (training sets, the campaign cache, served
    // predictions) assumes simulation output is finite and positive;
    // catch a broken energy/timing model here, not three layers later
    // as a NaN prediction.
    ACDSE_CHECK_FINITE(result.metrics.cycles, "simulated cycles");
    ACDSE_CHECK_FINITE(result.metrics.energyNj, "simulated energy");
    ACDSE_CHECK(result.metrics.cycles > 0.0,
                "simulation produced no cycles");
    return result;
}

} // namespace

namespace
{

/**
 * The CoreStats events simulateBatch() sums into obs counters: where
 * the simulated cycles went, per resource.
 */
constexpr std::pair<const char *, std::uint64_t CoreStats::*>
    kEventCounters[] = {
        {"sim/il1-misses", &CoreStats::il1Misses},
        {"sim/dl1-misses", &CoreStats::dl1Misses},
        {"sim/l2-misses", &CoreStats::l2Misses},
        {"sim/mispredicts", &CoreStats::mispredicts},
        {"sim/btb-misses", &CoreStats::btbMisses},
        {"sim/stall-rob", &CoreStats::dispatchStallRob},
        {"sim/stall-iq", &CoreStats::dispatchStallIq},
        {"sim/stall-lsq", &CoreStats::dispatchStallLsq},
        {"sim/stall-regs", &CoreStats::dispatchStallRegs},
        {"sim/stall-branches", &CoreStats::fetchStallBranches},
};

} // namespace

void
simulateBatch(std::span<const MicroarchConfig> configs,
              const DecodedTrace &trace, const SimulationOptions &options,
              std::span<SimulationResult> results, SimScratch &scratch)
{
    ACDSE_CHECK(results.size() >= configs.size(),
                 "result span smaller than the config batch");
    const obs::TraceSpan span(obs::Registry::global(), "sim/batch");
    CoreStats sum;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        results[i] = simulateOne(configs[i], trace, options, scratch);
        sum.instructions += results[i].stats.instructions;
        for (const auto &[name, field] : kEventCounters)
            sum.*field += results[i].stats.*field;
    }
    if constexpr (obs::kEnabled) {
        obs::Registry &registry = obs::Registry::global();
        registry.counter("sim/instructions").add(sum.instructions);
        registry.counter("sim/lanes-occupied").add(configs.size());
        for (const auto &[name, field] : kEventCounters)
            registry.counter(name).add(sum.*field);
    }
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
