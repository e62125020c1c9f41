/**
 * @file
 * The repo benchmark's driver binary. See perfbench/README.md for
 * the workloads, the metrics and what each one should move.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--size full|tiny] [--expect HEX]
 *
 * --trace 0 prints the end-to-end metrics of the untraced run,
 * --trace 1 the per-layer metrics of the traced run. --expect is the
 * committed digest of this (workload, size, seed); a mismatch fails
 * the output check. The last stdout line is the result object.
 */

#include <cmath>

#include "common.hh"

using namespace perfbench;

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Report report;
    if (isServingWorkload(args.workload))
        report = args.trace ? runServingTraced(args) : runServing(args);
    else
        report = args.trace ? runFig8Traced(args) : runFig8(args);

    if (!args.expectDigest.empty())
        report.check(report.digest == args.expectDigest,
                     "digest " + report.digest +
                         " != committed " + args.expectDigest);
    for (const Metric &m : report.metrics)
        report.check(std::isfinite(m.value), "non-finite " + m.name);
    // A run whose output check fails has no trustworthy operation.
    if (!report.errors.empty())
        report.failed = report.attempted;

    printHostFacts(args, report);
    printResult(report);
    return 0;
}
