/**
 * @file
 * The reference simulator the engine is tested against.
 *
 * referenceSimulate() is the out-of-order pipeline of sim/core.hh
 * written out plainly: one loop iteration per cycle, every
 * per-instruction property looked up from the trace, every IQ entry
 * rechecked every cycle -- no decoded trace, no idle-cycle skip, no
 * operand wake cache, no scratch reuse. The library's engine
 * (sim/batch.hh) must reproduce its results bit for bit, so the
 * exact-equality suites in test_batch_sim.cc compare the two on random
 * configurations, which a fixed golden digest cannot do. It is
 * compiled into the test binary only.
 */

#pragma once

#include "arch/microarch_config.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace acdse
{

/**
 * Simulate @p trace on @p config with the reference loop; same
 * contract as simulate() (warm-up prefix from @p options, then one
 * timed run over the rest).
 */
SimulationResult referenceSimulate(const MicroarchConfig &config,
                                   const Trace &trace,
                                   const SimulationOptions &options = {});

} // namespace acdse
