/**
 * @file
 * perfbench: the repo benchmark.
 *
 *   perfbench --workload {suites|serve-repeat|serve-distinct}
 *             --seed N --seconds S --trace {0|1}
 *             [--expected FILE] [--out-dir DIR]
 *   perfbench --write-expected FILE
 *   perfbench --self-test [--expected FILE]
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and the metrics (end-to-end with --trace 0, per-layer with
 * --trace 1). Notes and failures go to stderr.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.h"

using namespace nomap::perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{suites|serve-repeat|serve-distinct} --seed N "
                 "--seconds S --trace {0|1} [--expected FILE] "
                 "[--out-dir DIR]\n"
                 "       perfbench --write-expected FILE\n"
                 "       perfbench --self-test [--expected FILE]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.expectedPath = "perfbench/suites_expected.tsv";
    opts.outDir = ".";
    std::string write_expected;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        bool has_value = i + 1 < argc;
        if (flag == "--self-test") {
            self_test = true;
            continue;
        }
        if (!has_value)
            return usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end)
                return usage("--seed takes an integer");
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (*end || !(opts.seconds > 0))
                return usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            opts.trace = value == "1";
        } else if (flag == "--expected") {
            opts.expectedPath = value;
        } else if (flag == "--out-dir") {
            opts.outDir = value;
        } else if (flag == "--write-expected") {
            write_expected = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }

    try {
        if (!write_expected.empty())
            return writeSuitesExpected(write_expected);
        if (self_test)
            return runSelfTests(opts);

        Report report;
        if (opts.workload == "suites")
            runSuites(opts, report);
        else if (opts.workload == "serve-repeat")
            runServe(opts, false, report);
        else if (opts.workload == "serve-distinct")
            runServe(opts, true, report);
        else
            return usage(("unknown workload '" + opts.workload + "'").c_str());
        for (const std::string &note : report.notes)
            std::fprintf(stderr, "perfbench: %s\n", note.c_str());
        if (report.failed)
            std::fprintf(stderr, "perfbench: failed_frac %.6f (%llu of %llu)\n",
                         static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted),
                         static_cast<unsigned long long>(report.failed),
                         static_cast<unsigned long long>(report.attempted));
        std::printf("%s\n", report.json().c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
}
