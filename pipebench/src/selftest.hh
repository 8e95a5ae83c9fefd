/**
 * @file
 * Self-tests of the benchmark's own arithmetic: the percentile rule,
 * self-time subtraction, the metric-name charset and open-loop
 * due-time accounting.
 */

#pragma once

#include "report.hh"

namespace pipebench
{

/** Run every self-test, recording each as a check in @p report. */
void runSelfTests(Report &report);

} // namespace pipebench
