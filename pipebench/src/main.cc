// acdse_pipebench: run one benchmark workload and print its metrics.
//
//   acdse_pipebench --workload NAME --seed N --seconds S --trace 0|1
//                   [--work-dir DIR]
//   acdse_pipebench --prepare --workload NAME [--work-dir DIR]
//   acdse_pipebench --selftest
//
// --prepare builds, untimed, what the workload reads from the work
// directory (the campaign cache) and prints nothing. The last line of standard output is the result JSON; the lines
// before it (prefixed '#') are digests, checks and reconciliations.
// Exit 0 when a result was printed, 1 on a failure that prevented one,
// 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "base/parse.hh"
#include "report.hh"
#include "selftest.hh"
#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n"
                 "       %s --prepare --workload NAME [--work-dir DIR]\n"
                 "       %s --selftest\n",
                 argv0, argv0, argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pipebench;
    RunOptions options;
    options.workDir = ".bench_build/work";
    bool selftestOnly = false;
    bool prepare = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest" || flag == "--prepare") {
            (flag == "--selftest" ? selftestOnly : prepare) = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(argv[0]);
        const std::string value = argv[++i];
        const auto u64 = acdse::parseU64(value);
        const auto f64 = acdse::parseF64(value);
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed" && u64) {
            options.seed = *u64;
        } else if (flag == "--seconds" && f64 && *f64 > 0.0) {
            options.seconds = *f64;
        } else if (flag == "--trace" && (value == "0" || value == "1")) {
            options.trace = value == "1";
        } else if (flag == "--work-dir" && !value.empty()) {
            options.workDir = value;
        } else {
            usage(argv[0]);
        }
    }
    if (!selftestOnly && options.workload.empty())
        usage(argv[0]);
    if (prepare) {
        try {
            prepareWorkload(options);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "acdse_pipebench: %s\n", e.what());
            return 1;
        }
        return 0;
    }

    Report report;
    runSelfTests(report);
    if (selftestOnly) {
        report.print();
        return report.correct() ? 0 : 1;
    }
    try {
        runWorkload(options, report);
        report.print();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "acdse_pipebench: %s\n", e.what());
        return 1;
    }
    return 0;
}
