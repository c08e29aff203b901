/**
 * @file
 * Benchmark entry point: runs one named workload and ends with one
 * JSON line. perfbench/run.py builds this binary, runs it, and
 * selects the metrics BENCHMARK.json names for the run's mode.
 *
 *   perfbench --workload ler_d11 --seed 1 --seconds 20 --trace 0
 *
 * Exit codes: 0 when every correctness gate passed, 1 when one
 * failed (the JSON line still reports the metrics), 2 on bad
 * arguments or an unknown workload.
 */

#include <cstdio>
#include <exception>

#include "common.hpp"

int
main(int argc, char **argv)
{
    perfbench::Args args;
    if (!perfbench::parseArgs(argc, argv, args)) {
        return 2;
    }
    std::printf("host %s\n", perfbench::hostJson().c_str());
    std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    perfbench::Report report;
    int code = 2;
    try {
        if (args.workload.rfind("ler_", 0) == 0) {
            code = perfbench::runLer(args, report);
        } else if (args.workload == "serve_d11_p1e-3") {
            code = perfbench::runServe(args, report);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "workload %s threw: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
    if (code == 2) {
        std::fprintf(stderr, "unknown workload %s\n",
                     args.workload.c_str());
        return 2;
    }
    report.print();
    return report.correct() ? 0 : 1;
}
