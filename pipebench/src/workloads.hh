/**
 * @file
 * The benchmark's four workloads. Each drives the acdse library from
 * outside, through its public functions, and records end-to-end
 * metrics (untraced run) or per-layer metrics (traced run) plus its
 * correctness checks into a Report. README.md says why each exists.
 */

#pragma once

#include <cstdint>
#include <string>

#include "report.hh"

namespace pipebench
{

/** What one run does. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;   //!< how long the timed repetitions run
    bool trace = false;      //!< per-layer run (spans + obs snapshots)
    std::string workDir;     //!< campaign cache and span logs
};

/**
 * Build what the workload reads but does not time: the 26-program
 * campaign cache of loo_train, explore_space and serve_queries. Run in a
 * process of its own before the measured one; a no-op once the cache
 * exists.
 */
void prepareWorkload(const RunOptions &options);

/** Run one workload into @p report; throws on a library failure. */
void runWorkload(const RunOptions &options, Report &report);

} // namespace pipebench
