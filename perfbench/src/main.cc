/**
 * @file
 * perfbench_runner: runs one workload of the end-to-end benchmark and
 * prints its result as the last line of standard output.
 *
 *   perfbench_runner --workload train_lang|serve_mixed|sweep_scan|sweep_ham
 *                    [--seed N] [--seconds S] [--trace 0|1]
 *                    [--workdir DIR]
 *
 * --workdir is where model files and the server socket go; the runner
 * works inside it. Errors print to stderr and exit non-zero without a
 * result line.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hh"
#include "workloads.hh"

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload "
                 "train_lang|serve_mixed|sweep_scan|sweep_ham [--seed N] "
                 "[--seconds S] [--trace 0|1] [--workdir DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunArgs args;
    args.seed = perfbench::kDefaultSeed;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            args.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--workdir")
            args.workdir = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || !(args.seconds > 0.0))
        return usage();
    if (::chdir(args.workdir.c_str()) != 0) {
        std::perror(args.workdir.c_str());
        return 1;
    }

    try {
        perfbench::Report report;
        if (args.workload == "train_lang")
            report = perfbench::runTrainLang(args);
        else if (args.workload == "serve_mixed")
            report = perfbench::runServeMixed(args);
        else if (args.workload == "sweep_scan")
            report = perfbench::runSweepScan(args);
        else if (args.workload == "sweep_ham")
            report = perfbench::runSweepHam(args);
        else
            return usage();
        perfbench::writeReport(std::cout, args, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench %s: %s\n", args.workload.c_str(),
                     e.what());
        return 1;
    }
    return 0;
}
