#include "perfbench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sys/resource.h>

#include "support/logging.h"

namespace nomap::perfbench {

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                  static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(rank));
    size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
median(const std::vector<double> &xs)
{
    return percentile(xs, 50);
}

double
mean(const std::vector<double> &xs)
{
    double sum = 0;
    for (double x : xs)
        sum += x;
    return xs.empty() ? 0 : sum / static_cast<double>(xs.size());
}

double
peakRssMb()
{
    rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

Digest
Digest::of(const std::string &result, const ExecutionStats &stats)
{
    Digest d;
    d.result = result;
    d.instructions = stats.totalInstructions();
    d.checks = stats.totalChecks();
    double cycles = stats.totalCycles();
    std::memcpy(&d.cyclesBits, &cycles, sizeof(cycles));
    d.commits = stats.txCommits;
    d.aborts = stats.txAborts;
    d.deopts = stats.deopts;
    return d;
}

EngineConfig
referenceConfig(Architecture arch)
{
    EngineConfig config;
    config.arch = arch;
    config.perOpAccounting = true;
    config.quickening = false;
    config.jitTier = false;
    return config;
}

// ---- Report ------------------------------------------------------------

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    if (!std::isfinite(value))
        value = 0;
    metrics.push_back({name, value, unit});
}

void
Report::fail(const std::string &why)
{
    correct = false;
    std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
}

std::string
Report::json() const
{
    std::string out = strprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         i ? ", " : "", m.name.c_str(), m.value,
                         m.unit.c_str());
    }
    out += "}}";
    return out;
}

// ---- Tracer ------------------------------------------------------------

uint32_t
Tracer::intern(const std::string &name)
{
    for (uint32_t i = 0; i < names.size(); ++i) {
        if (names[i] == name)
            return i;
    }
    names.push_back(name);
    return static_cast<uint32_t>(names.size() - 1);
}

int32_t
Tracer::add(const std::string &name, int64_t start_ns, int64_t end_ns,
            int32_t parent, uint64_t request, bool replay)
{
    spans.push_back({intern(name), start_ns, end_ns, parent, request,
                     replay});
    return static_cast<int32_t>(spans.size() - 1);
}

std::vector<std::pair<std::string, double>>
Tracer::selfSeconds() const
{
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].endNs - spans[i].startNs;
    for (const Span &s : spans) {
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.endNs - s.startNs;
    }
    std::vector<std::pair<std::string, double>> out;
    for (const std::string &name : names)
        out.emplace_back(name, 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
        out[spans[i].name].second +=
            static_cast<double>(std::max<int64_t>(self[i], 0)) * 1e-9;
    }
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    int64_t origin = spans.empty() ? 0 : spans.front().startNs;
    for (const Span &s : spans)
        origin = std::min(origin, s.startNs);
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(
            f,
            "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
            "{\"span\": %zu, \"parent\": %d, \"request\": %llu, "
            "\"replay\": %s}}",
            i ? ",\n" : "", names[s.name].c_str(), s.replay ? 2 : 1,
            static_cast<double>(s.startNs - origin) / 1e3,
            static_cast<double>(s.endNs - s.startNs) / 1e3, i,
            s.parent, static_cast<unsigned long long>(s.request),
            s.replay ? "true" : "false");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace nomap::perfbench
