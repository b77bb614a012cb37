/**
 * @file
 * Self-tests of the benchmark itself (run.py --self-test runs these,
 * then compares a held-out seed against the primary one).
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "engine/program_cache.h"
#include "perfbench.h"

namespace nomap::perfbench {

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    std::fprintf(stderr, "perfbench self-test: %s: %s\n",
                 ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

bool
sameScripts(const std::vector<Script> &a, const std::vector<Script> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].id != b[i].id || a[i].source != b[i].source)
            return false;
    }
    return true;
}

} // namespace

int
runSelfTests(const Options &opts)
{
    // Percentile helper (numpy's linear interpolation).
    check(near(percentile({}, 50), 0) && near(percentile({7}, 99), 7) &&
              near(percentile({4, 1, 3, 2}, 50), 2.5) &&
              near(percentile({1, 2, 3, 4}, 25), 1.75) &&
              near(percentile({1, 2, 3, 4}, 0), 1) &&
              near(percentile({1, 2, 3, 4}, 100), 4) &&
              near(percentile({10, 20, 30, 40, 50}, 99), 49.6),
          "percentile on known inputs");

    // Generators: a pure function of the seed.
    check(sameScripts(repeatPrograms(7), repeatPrograms(7)) &&
              !sameScripts(repeatPrograms(7), repeatPrograms(8)),
          "serve-repeat programs are deterministic per seed");
    check(sameScripts(distinctPrograms(7, 40), distinctPrograms(7, 40)) &&
              !sameScripts(distinctPrograms(7, 40), distinctPrograms(8, 40)),
          "serve-distinct scripts are deterministic per seed");

    // serve-distinct: pairwise distinct by the cache's own key, and
    // more of them than the cache holds (the smallest pool a run uses).
    size_t pool = 600;
    std::vector<Script> scripts = distinctPrograms(opts.seed, pool);
    std::set<uint64_t> hashes;
    for (const Script &s : scripts)
        hashes.insert(CompiledProgramCache::hashSource(s.source));
    check(hashes.size() == pool && pool > CompiledProgramCache().capacity(),
          "serve-distinct scripts are pairwise distinct by hashSource and "
          "outnumber the program cache");

    // The suites check passes with the committed expectations and
    // fails once one entry is corrupted.
    check(checkSuitesOnce(opts.expectedPath) == 0,
          "a suites pass matches the committed expectations");
    std::ifstream in(opts.expectedPath);
    std::stringstream text;
    text << in.rdbuf();
    std::string corrupted = text.str();
    size_t line = corrupted.find("\nS01\tBase\t");
    size_t digit = line == std::string::npos
                       ? std::string::npos
                       : corrupted.find_first_of("0123456789",
                                                 line + 10);
    if (digit != std::string::npos)
        corrupted[digit] = corrupted[digit] == '9' ? '8' : '9';
    std::string path = opts.outDir + "/corrupted_expected.tsv";
    std::ofstream(path) << corrupted;
    uint64_t mismatches = checkSuitesOnce(path);
    check(digit != std::string::npos && mismatches > 0 &&
              mismatches != ~0ull,
          "one corrupted expectation makes the suites check fail");

    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", failures);
    return failures ? 1 : 0;
}

} // namespace nomap::perfbench
