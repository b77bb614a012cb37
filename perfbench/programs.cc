/**
 * @file
 * Generated guest programs for the serving workloads. Each is a pure
 * function of (seed, index); the server only ever sees the text.
 *
 * Integer expressions stay below 2^31 (operands < 32749 times
 * constants < 64), so no run overflows into doubles and every request
 * takes the same path in every tier.
 */

#include <algorithm>
#include <cmath>

#include "perfbench.h"
#include "support/logging.h"

namespace nomap::perfbench {

namespace {

/**
 * The @p q-quantile of a Pareto(@p alpha) distribution starting at
 * @p lo, capped at @p hi: many small sizes, a fat tail.
 */
uint64_t
paretoQuantile(double q, uint64_t lo, uint64_t hi, double alpha)
{
    double x = static_cast<double>(lo) * std::pow(1.0 - q, -1.0 / alpha);
    return std::min<uint64_t>(hi, static_cast<uint64_t>(x));
}

/**
 * A program whose function `hot` is called `calls` times with an
 * `inner`-trip loop over an array: hotness passes the FTL threshold
 * (60) after a few dozen calls, the loop gets a NoMap transaction.
 */
std::string
hotProgram(Rng &rng, uint64_t calls)
{
    uint64_t len = 8 + rng.below(24);
    return strprintf(
        "function hot(v, n, k) {\n"
        "    var acc = %llu;\n"
        "    for (var j = 0; j < n; j++) {\n"
        "        acc = (acc * %llu + v[j %% %llu] + k) %% 32749;\n"
        "        v[j %% %llu] = acc & 1023;\n"
        "    }\n"
        "    return acc;\n"
        "}\n"
        "var data = [];\n"
        "for (var i = 0; i < %llu; i++) data[i] = (i * %llu) %% 97;\n"
        "var total = 0;\n"
        "for (var r = 0; r < %llu; r++)\n"
        "    total = (total + hot(data, 16, r)) %% 32749;\n"
        "result = total;\n",
        static_cast<unsigned long long>(rng.below(32749)),
        static_cast<unsigned long long>(3 + rng.below(60)),
        static_cast<unsigned long long>(len),
        static_cast<unsigned long long>(len),
        static_cast<unsigned long long>(len),
        static_cast<unsigned long long>(1 + rng.below(96)),
        static_cast<unsigned long long>(calls));
}

/**
 * A program that stays in the interpreter: its loop is top-level code
 * (never tiered) and its one function is called twice.
 */
std::string
coldProgram(Rng &rng, uint64_t iterations)
{
    return strprintf(
        "function mix(x) { return (x * %llu + %llu) %% 32749; }\n"
        "var acc = %llu;\n"
        "for (var i = 0; i < %llu; i++)\n"
        "    acc = (acc + (i * %llu) %% 977) %% 32749;\n"
        "result = mix(acc) + mix(acc + 1);\n",
        static_cast<unsigned long long>(3 + rng.below(60)),
        static_cast<unsigned long long>(rng.below(32749)),
        static_cast<unsigned long long>(rng.below(32749)),
        static_cast<unsigned long long>(iterations),
        static_cast<unsigned long long>(1 + rng.below(60)));
}

} // namespace

std::vector<Script>
repeatPrograms(uint64_t seed)
{
    // Sizes are the midpoints of 16 equal-probability strata of a
    // Pareto(1.2), so every seed has the same size mix (and the same
    // total work); the seed picks which program gets which size, which
    // half reaches FTL, and every constant.
    constexpr size_t kPrograms = 32;
    constexpr size_t kStrata = kPrograms / 2;
    Rng rng(seed ^ 0x7265706561740000ull);
    std::vector<size_t> strata[2];
    for (auto &order : strata) {
        for (size_t i = 0; i < kStrata; ++i)
            order.push_back(i);
        for (size_t i = kStrata; i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
    }
    uint64_t hot_parity = rng.below(2);
    std::vector<Script> out;
    for (size_t i = 0; i < kPrograms; ++i) {
        bool hot = i % 2 == hot_parity;
        double q = (static_cast<double>(strata[hot][i / 2]) + 0.5) /
                   static_cast<double>(kStrata);
        Script s;
        s.id = strprintf("repeat-%zu", i);
        s.source = hot ? hotProgram(rng, paretoQuantile(q, 200, 6000, 1.2))
                       : coldProgram(rng, paretoQuantile(q, 1600, 160000, 1.2));
        out.push_back(std::move(s));
    }
    return out;
}

Script
distinctProgram(uint64_t seed, size_t n)
{
    // Several functions with long straight-line bodies and short
    // loops, each called just past the FTL threshold: the front end
    // and the DFG/FTL compiles are most of a request.
    constexpr int kFunctions = 8;
    constexpr int kStatements = 28;
    constexpr int kCalls = 64;
    Rng rng(seed * 0x9e3779b97f4a7c15ull + n);
    // The tag makes every identifier unique to this script.
    std::string tag = strprintf(
        "s%llx_%zu", static_cast<unsigned long long>(rng.next() >> 40),
        n);
    std::string src;
    for (int f = 0; f < kFunctions; ++f) {
        std::string v = strprintf("%s_f%d_v", tag.c_str(), f);
        src += strprintf("function %s_f%d(a, b) {\n", tag.c_str(), f);
        src += strprintf("    var %s0 = (a + %llu) %% 32749;\n",
                         v.c_str(),
                         static_cast<unsigned long long>(
                             rng.below(32749)));
        for (int k = 1; k < kStatements; ++k) {
            int x = static_cast<int>(rng.below(static_cast<uint64_t>(k)));
            int y = static_cast<int>(rng.below(static_cast<uint64_t>(k)));
            unsigned long long c = 1 + rng.below(63);
            switch (rng.below(4)) {
              case 0:
                src += strprintf(
                    "    var %s%d = (%s%d * %llu + %s%d) %% 32749;\n",
                    v.c_str(), k, v.c_str(), x, c, v.c_str(), y);
                break;
              case 1:
                src += strprintf(
                    "    var %s%d = (%s%d + b + %llu) %% 32749;\n",
                    v.c_str(), k, v.c_str(), x, c * 511);
                break;
              case 2:
                src += strprintf(
                    "    var %s%d = (%s%d ^ %s%d) & 32767;\n",
                    v.c_str(), k, v.c_str(), x, v.c_str(), y);
                break;
              default:
                src += strprintf(
                    "    var %s%d = (%s%d - %s%d + 32749) %% 32749;\n",
                    v.c_str(), k, v.c_str(), x, v.c_str(), y);
                break;
            }
        }
        src += strprintf(
            "    for (var i = 0; i < 2; i++)\n"
            "        %s0 = (%s0 + %s%d * i) %% 32749;\n"
            "    return (%s0 + %s%d) %% 32749;\n}\n",
            v.c_str(), v.c_str(), v.c_str(), kStatements - 1,
            v.c_str(), v.c_str(), kStatements - 1);
    }
    src += strprintf("var %s_acc = %llu;\n", tag.c_str(),
                     static_cast<unsigned long long>(rng.below(32749)));
    src += strprintf("for (var i = 0; i < %d; i++) {\n", kCalls);
    for (int f = 0; f < kFunctions; ++f) {
        src += strprintf("    %s_acc = (%s_acc + %s_f%d(i, %s_acc)) "
                         "%% 32749;\n",
                         tag.c_str(), tag.c_str(), tag.c_str(), f,
                         tag.c_str());
    }
    src += strprintf("}\nresult = %s_acc;\n", tag.c_str());
    return {"distinct-" + std::to_string(n), std::move(src)};
}

std::vector<Script>
distinctPrograms(uint64_t seed, size_t count)
{
    std::vector<Script> out;
    out.reserve(count);
    for (size_t n = 0; n < count; ++n)
        out.push_back(distinctProgram(seed, n));
    return out;
}

} // namespace nomap::perfbench
