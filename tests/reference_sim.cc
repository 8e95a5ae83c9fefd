#include "reference_sim.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "base/check.hh"
#include "base/logging.hh"
#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/core_ops.hh"
#include "sim/energy.hh"

namespace acdse
{
namespace
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

/** One core instance: build per configuration, run per interval. */
class ReferenceCore
{
  public:
    /**
     * @param config the design point to model.
     * @param energy event sink for Wattch-style accounting (counts
     *               accumulate across runs).
     */
    ReferenceCore(const MicroarchConfig &config, EnergyModel &energy)
        : config_(config), energy_(energy), hierarchy_(config),
          bpred_(config.bpredEntries()), btb_(config.btbEntries())
    {
    }

    /**
     * Run the pipeline over trace instructions [begin, end), one cycle
     * per loop iteration. Caches and predictors persist across calls,
     * so a warm-up run can precede the timed one.
     */
    CoreStats run(const Trace &trace, std::size_t begin, std::size_t end);

  private:
    const MicroarchConfig config_;
    EnergyModel &energy_;
    CacheHierarchy hierarchy_;
    GsharePredictor bpred_;
    Btb btb_;
};

CoreStats
ReferenceCore::run(const Trace &trace, std::size_t begin, std::size_t end)
{
    end = std::min(end, trace.size());
    ACDSE_CHECK(begin < end, "empty simulation interval");

    const std::size_t width = static_cast<std::size_t>(config_.width());
    const std::size_t rob_size =
        static_cast<std::size_t>(config_.robSize());
    const std::size_t iq_size = static_cast<std::size_t>(config_.iqSize());
    const std::size_t lsq_size =
        static_cast<std::size_t>(config_.lsqSize());
    const int rd_ports = config_.rfReadPorts();
    const int wr_ports = config_.rfWritePorts();
    const std::size_t max_branches =
        static_cast<std::size_t>(config_.maxBranches());
    const FixedParams &fp = fixedParams();
    const FunctionalUnitCounts fus = functionalUnitsForWidth(
        config_.width());
    const int fu_counts[4] = {fus.intAlu, fus.intMul, fus.fpAlu,
                              fus.fpMulDiv};
    const std::size_t rename_regs = static_cast<std::size_t>(std::max(
        1, config_.rfSize() - fp.archRegs));

    CoreStats stats;
    const std::uint64_t il1_miss0 = hierarchy_.il1().misses();
    const std::uint64_t dl1_miss0 = hierarchy_.dl1().misses();
    const std::uint64_t l2_miss0 = hierarchy_.l2().misses();

    // --- Pipeline state -----------------------------------------------
    std::vector<RobSlot> rob(rob_size, RobSlot{});
    std::size_t commit_idx = begin;   // oldest in-flight instruction
    std::size_t dispatch_idx = begin; // next to enter the ROB
    std::size_t fetch_idx = begin;    // next to fetch
    std::size_t rob_count = 0, lsq_count = 0, regs_used = 0;

    // Fetch queue: indices paired with the cycle they become
    // dispatchable (front-end depth).
    std::vector<Fetched> fetch_queue; // FIFO via head index
    std::size_t fq_head = 0;
    const std::size_t fq_cap = width * (static_cast<std::size_t>(
                                            fp.frontEndStages) + 2);

    // Issue queue: indices of dispatched, un-issued instructions
    // (age-ordered).
    std::vector<std::size_t> iq;
    iq.reserve(iq_size);

    // Per-cycle rings: writeback-port usage and branch resolutions.
    std::vector<std::uint8_t> wb_ring(kCoreRingSize, 0);
    std::vector<std::uint8_t> resolve_ring(kCoreRingSize, 0);

    // Non-pipelined FP dividers: busy-until cycles per unit.
    std::vector<std::uint64_t> div_busy(
        static_cast<std::size_t>(fus.fpMulDiv), 0);

    std::uint64_t cycle = 0;
    std::uint64_t fetch_blocked_until = 0;
    bool fetch_wait_branch = false;   // stalled on a mispredict
    std::size_t wait_branch_idx = 0;  // which branch we wait for
    std::size_t inflight_branches = 0;
    std::uint64_t last_fetch_line =
        std::numeric_limits<std::uint64_t>::max();

    auto slot = [&](std::size_t idx) -> RobSlot & {
        return rob[idx % rob_size];
    };

    auto src_ready = [&](std::size_t idx, std::uint32_t dist) {
        if (!dist)
            return true;
        const std::size_t producer = idx - dist;
        if (producer < commit_idx || dist > static_cast<std::uint32_t>(
                                                idx - begin))
            return true; // committed, or before the interval
        const RobSlot &p = slot(producer);
        return p.issued && p.readyCycle <= cycle;
    };

    // Find the first cycle at or after `from` with a free write port.
    auto writeback_slot = [&](std::uint64_t from) {
        std::uint64_t c = std::max(from, cycle + 1);
        for (std::size_t hops = 0; hops < kCoreRingSize - 1; ++hops, ++c) {
            if (wb_ring[c % kCoreRingSize] <
                static_cast<std::uint8_t>(wr_ports)) {
                ++wb_ring[c % kCoreRingSize];
                return c;
            }
        }
        return c;
    };

    const std::uint64_t line_mask =
        ~static_cast<std::uint64_t>(fp.l1LineBytes - 1);
    HierarchyAccessEvents mem_events;

    const std::uint64_t cycle_limit =
        static_cast<std::uint64_t>(end - begin) * 600 + 200000;
    while (commit_idx < end) {
        // Free the write-port ring slot for this cycle so it can be
        // reused a full ring period later; resolve branches due now.
        inflight_branches -= resolve_ring[cycle % kCoreRingSize];
        resolve_ring[cycle % kCoreRingSize] = 0;

        // ---- Commit -----------------------------------------------------
        for (std::size_t c = 0; c < width && commit_idx < end; ++c) {
            if (commit_idx >= dispatch_idx)
                break; // nothing dispatched
            RobSlot &e = slot(commit_idx);
            if (!e.issued || e.readyCycle > cycle)
                break;
            const TraceInstruction &inst = trace[commit_idx];
            if (inst.cls == InstClass::Store) {
                // Stores drain to the D-cache at commit.
                hierarchy_.dataAccess(inst.addr, true, mem_events);
                --lsq_count;
            } else if (inst.cls == InstClass::Load) {
                --lsq_count;
            }
            if (producesResult(inst.cls))
                --regs_used;
            if (inst.cls == InstClass::Branch) {
                ++stats.branches;
                energy_.add(EnergyEvent::BpredUpdate);
            }
            energy_.add(EnergyEvent::RobRead);
            --rob_count;
            ++commit_idx;
            ++stats.instructions;
        }

        // ---- Issue ------------------------------------------------------
        if (!iq.empty()) {
            std::size_t issued = 0;
            int rd_left = rd_ports;
            int fu_left[4] = {fu_counts[0], fu_counts[1], fu_counts[2],
                              fu_counts[3]};
            std::size_t kept = 0;
            for (std::size_t pos = 0; pos < iq.size(); ++pos) {
                const std::size_t idx = iq[pos];
                bool can_issue = issued < width;
                const TraceInstruction &inst = trace[idx];
                const FuPool pool = fuPoolFor(inst.cls);
                int srcs = (inst.srcDist1 ? 1 : 0) +
                           (inst.srcDist2 ? 1 : 0);
                if (can_issue) {
                    can_issue = fu_left[static_cast<std::size_t>(pool)] >
                                    0 &&
                                rd_left >= srcs &&
                                src_ready(idx, inst.srcDist1) &&
                                src_ready(idx, inst.srcDist2);
                }
                if (can_issue && inst.cls == InstClass::FpDiv) {
                    // Non-pipelined: need a divider idle right now.
                    can_issue = false;
                    for (auto &busy : div_busy) {
                        if (busy <= cycle) {
                            busy = cycle + static_cast<std::uint64_t>(
                                               fp.fpDivLatency);
                            can_issue = true;
                            break;
                        }
                    }
                }
                if (!can_issue) {
                    iq[kept++] = idx;
                    continue;
                }

                ++issued;
                rd_left -= srcs;
                --fu_left[static_cast<std::size_t>(pool)];
                energy_.add(EnergyEvent::IqIssue);
                energy_.add(EnergyEvent::RfRead,
                            static_cast<std::uint64_t>(srcs));

                int latency = execLatency(inst.cls);
                if (inst.cls == InstClass::Load) {
                    latency += hierarchy_.dataAccess(inst.addr, false,
                                                     mem_events);
                    energy_.add(EnergyEvent::LsqSearch);
                }
                const std::uint64_t done =
                    cycle + static_cast<std::uint64_t>(latency);

                RobSlot &e = slot(idx);
                e.issued = true;
                if (producesResult(inst.cls)) {
                    e.readyCycle = writeback_slot(done);
                    energy_.add(EnergyEvent::RfWrite);
                    energy_.add(EnergyEvent::ResultBus);
                    energy_.add(EnergyEvent::IqWakeup);
                } else {
                    e.readyCycle = done;
                }
                energy_.add(fuEnergyFor(inst.cls));

                if (inst.cls == InstClass::Branch) {
                    // Resolution: the branch count drops and, if this is
                    // the branch fetch is stalled on, fetch restarts
                    // after the redirect penalty.
                    const std::uint64_t resolve = done;
                    ++resolve_ring[resolve % kCoreRingSize];
                    if (fetch_wait_branch && wait_branch_idx == idx) {
                        fetch_wait_branch = false;
                        fetch_blocked_until = std::max(
                            fetch_blocked_until,
                            resolve + static_cast<std::uint64_t>(
                                          fp.mispredictRedirect));
                    }
                }
            }
            iq.resize(kept);
        }

        // ---- Dispatch ---------------------------------------------------
        for (std::size_t d = 0; d < width; ++d) {
            if (fq_head >= fetch_queue.size())
                break;
            const Fetched &f = fetch_queue[fq_head];
            if (f.readyAt > cycle)
                break;
            const TraceInstruction &inst = trace[f.idx];
            if (rob_count == rob_size) {
                ++stats.dispatchStallRob;
                break;
            }
            if (iq.size() == iq_size) {
                ++stats.dispatchStallIq;
                break;
            }
            if (isMemClass(inst.cls) && lsq_count == lsq_size) {
                ++stats.dispatchStallLsq;
                break;
            }
            if (producesResult(inst.cls) && regs_used == rename_regs) {
                ++stats.dispatchStallRegs;
                break;
            }

            RobSlot &e = slot(f.idx);
            e.readyCycle = kCoreNotReady;
            e.issued = false;
            // (mispredicted was set at fetch.)
            ++rob_count;
            iq.push_back(f.idx);
            if (isMemClass(inst.cls)) {
                ++lsq_count;
                energy_.add(EnergyEvent::LsqWrite);
            }
            if (producesResult(inst.cls))
                ++regs_used;
            energy_.add(EnergyEvent::RenameLookup);
            energy_.add(EnergyEvent::RobWrite);
            energy_.add(EnergyEvent::IqWrite);
            ++dispatch_idx;
            ++fq_head;
        }
        if (fq_head > 2 * fq_cap) {
            fetch_queue.erase(fetch_queue.begin(),
                              fetch_queue.begin() +
                                  static_cast<std::ptrdiff_t>(fq_head));
            fq_head = 0;
        }

        // ---- Fetch ------------------------------------------------------
        if (!fetch_wait_branch && cycle >= fetch_blocked_until) {
            for (std::size_t f = 0; f < width && fetch_idx < end; ++f) {
                if (fetch_queue.size() - fq_head >= fq_cap)
                    break;
                const TraceInstruction &inst = trace[fetch_idx];

                // I-cache: access once per new line.
                const std::uint64_t line = inst.pc & line_mask;
                if (line != last_fetch_line) {
                    const int lat =
                        hierarchy_.instAccess(inst.pc, mem_events);
                    last_fetch_line = line;
                    if (lat > 1) {
                        fetch_blocked_until =
                            cycle + static_cast<std::uint64_t>(lat);
                        break;
                    }
                }

                bool stop_after = false;
                if (inst.cls == InstClass::Branch) {
                    if (inflight_branches >= max_branches) {
                        ++stats.fetchStallBranches;
                        break;
                    }
                    ++inflight_branches;
                    energy_.add(EnergyEvent::BpredLookup);
                    energy_.add(EnergyEvent::BtbLookup);
                    const bool pred = inst.conditional
                                          ? bpred_.predict(inst.pc)
                                          : true;
                    bpred_.update(inst.pc, inst.taken);
                    const bool btb_hit = btb_.lookup(inst.pc);
                    if (inst.taken && !btb_hit) {
                        btb_.update(inst.pc, inst.target);
                        energy_.add(EnergyEvent::BtbUpdate);
                        ++stats.btbMisses;
                    }
                    if (pred != inst.taken) {
                        // Direction mispredict: fetch stops until the
                        // branch resolves.
                        ++stats.mispredicts;
                        fetch_wait_branch = true;
                        wait_branch_idx = fetch_idx;
                        stop_after = true;
                    } else if (inst.taken) {
                        if (!btb_hit) {
                            // Correct direction but unknown target:
                            // decode-time redirect bubble.
                            fetch_blocked_until =
                                cycle + static_cast<std::uint64_t>(
                                            fp.mispredictRedirect);
                        }
                        // Cannot fetch past a taken branch this cycle.
                        stop_after = true;
                        last_fetch_line =
                            std::numeric_limits<std::uint64_t>::max();
                    }
                }

                fetch_queue.push_back(
                    {fetch_idx,
                     cycle + static_cast<std::uint64_t>(
                                 fp.frontEndStages)});
                ++fetch_idx;
                if (stop_after)
                    break;
            }
        }

        // This cycle's write-port slot can never be referenced again
        // (writebacks are always scheduled at cycle+1 or later), so
        // clear it for reuse one ring period from now.
        wb_ring[cycle % kCoreRingSize] = 0;

        ++cycle;
        ACDSE_CHECK(cycle < cycle_limit,
                     "pipeline deadlock detected in ", trace.name(),
                     " at instruction ", commit_idx);
    }

    stats.cycles = cycle;
    stats.il1Misses = hierarchy_.il1().misses() - il1_miss0;
    stats.dl1Misses = hierarchy_.dl1().misses() - dl1_miss0;
    stats.l2Misses = hierarchy_.l2().misses() - l2_miss0;

    energy_.add(EnergyEvent::Il1Access,
                static_cast<std::uint64_t>(mem_events.il1));
    energy_.add(EnergyEvent::Dl1Access,
                static_cast<std::uint64_t>(mem_events.dl1));
    energy_.add(EnergyEvent::L2Access,
                static_cast<std::uint64_t>(mem_events.l2));
    energy_.add(EnergyEvent::MemAccess,
                static_cast<std::uint64_t>(mem_events.mem));
    return stats;
}

} // namespace

SimulationResult
referenceSimulate(const MicroarchConfig &config, const Trace &trace,
                  const SimulationOptions &options)
{
    EnergyModel energy(config);
    ReferenceCore core(config, energy);

    std::size_t begin = 0;
    if (options.warmupInstructions > 0 && trace.size() > 2) {
        // Warm microarchitectural state with an untimed run over the
        // prefix; discard its statistics and energy events.
        begin = std::min(options.warmupInstructions, trace.size() / 2);
        core.run(trace, 0, begin);
        energy.resetCounts();
    }

    SimulationResult result;
    result.stats = core.run(trace, begin, SIZE_MAX);
    result.dynamicNj = energy.dynamicEnergyNj();
    result.staticNj = energy.staticEnergyNj(result.stats.cycles);
    result.metrics = Metrics::fromCyclesEnergy(
        static_cast<double>(result.stats.cycles),
        result.dynamicNj + result.staticNj);
    return result;
}

} // namespace acdse
