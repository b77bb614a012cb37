#include "service/metrics.h"

#include <cmath>

#include "support/logging.h"

namespace nomap {

size_t
LatencyHistogram::bucketOf(double micros)
{
    if (!(micros > 1.0))
        return 0;
    // Bucket b > 0 covers (kGrowth^(b-1), kGrowth^b]: the smallest b
    // whose upper edge reaches micros. ceil() gets within one bucket;
    // the correction loops pin the answer to the pow()-computed edges
    // bucketFloorMicros() exposes, so a value lying exactly on an
    // edge lands in the bucket the edge closes (edge-inclusive).
    double b = std::ceil(std::log(micros) / std::log(kGrowth));
    size_t k = b < 1.0 ? 1 : static_cast<size_t>(b);
    if (k > kBuckets - 1)
        k = kBuckets - 1;
    while (k > 1 &&
           std::pow(kGrowth, static_cast<double>(k - 1)) >= micros) {
        --k;
    }
    while (k < kBuckets - 1 &&
           std::pow(kGrowth, static_cast<double>(k)) < micros) {
        ++k;
    }
    return k;
}

double
LatencyHistogram::bucketFloorMicros(size_t bucket)
{
    if (bucket == 0)
        return 0.0;
    return std::pow(kGrowth, static_cast<double>(bucket) - 1.0);
}

double
LatencyHistogram::bucketMidMicros(size_t bucket)
{
    if (bucket == 0)
        return 1.0;
    // Geometric midpoint of [kGrowth^(b-1), kGrowth^b).
    return std::pow(kGrowth, static_cast<double>(bucket) - 0.5);
}

void
LatencyHistogram::record(double micros)
{
    if (!std::isfinite(micros))
        return; // A NaN sum would poison mean() for good.
    if (micros < 0.0)
        micros = 0.0;
    ++buckets[bucketOf(micros)];
    ++total;
    sum += micros;
    if (micros > maxSeen)
        maxSeen = micros;
}

double
LatencyHistogram::mean() const
{
    return total ? sum / static_cast<double>(total) : 0.0;
}

double
LatencyHistogram::percentile(double p) const
{
    if (total == 0)
        return 0.0;
    if (p < 0.0)
        p = 0.0;
    if (p > 100.0)
        p = 100.0;
    double rank = p / 100.0 * static_cast<double>(total);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
        seen += buckets[b];
        if (static_cast<double>(seen) >= rank && buckets[b] > 0) {
            double mid = bucketMidMicros(b);
            return mid > maxSeen ? maxSeen : mid;
        }
    }
    return maxSeen;
}

std::string
ServiceMetricsSnapshot::toJson() const
{
    return toJson(0);
}

std::string
ServiceMetricsSnapshot::toJson(int indent) const
{
    std::string pad(indent > 0 ? static_cast<size_t>(indent) : 0,
                    ' ');
    std::string out;
    out += "{\n";
    out += pad;
    out += strprintf("  \"uptime_seconds\": %.3f,\n", uptimeSeconds);
    out += pad;
    out += strprintf("  \"workers\": %llu,\n",
                     static_cast<unsigned long long>(workers));
    out += pad;
    out += "  \"queue\": {";
    out += strprintf("\"depth\": %llu, ",
                     static_cast<unsigned long long>(queueDepth));
    out += strprintf(
        "\"high_water\": %llu, ",
        static_cast<unsigned long long>(queueDepthHighWater));
    out += strprintf("\"capacity\": %llu, ",
                     static_cast<unsigned long long>(queueCapacity));
    out += strprintf("\"submitted\": %llu, ",
                     static_cast<unsigned long long>(submitted));
    out += strprintf("\"rejected\": %llu, ",
                     static_cast<unsigned long long>(rejected));
    out += strprintf("\"shed\": %llu, ",
                     static_cast<unsigned long long>(shed));
    out += strprintf("\"in_flight\": %llu},\n",
                     static_cast<unsigned long long>(inFlight));
    out += pad;
    out += "  \"outcomes\": {";
    out += strprintf("\"completed\": %llu, ",
                     static_cast<unsigned long long>(completed));
    out += strprintf("\"ok\": %llu, ",
                     static_cast<unsigned long long>(succeeded));
    out += strprintf("\"errors\": %llu, ",
                     static_cast<unsigned long long>(errors));
    out += strprintf("\"timeouts\": %llu, ",
                     static_cast<unsigned long long>(timeouts));
    out += strprintf("\"retries\": %llu},\n",
                     static_cast<unsigned long long>(retries));
    out += pad;
    out += "  \"latency_us\": {";
    out += strprintf("\"p50\": %.1f, ", p50Micros);
    out += strprintf("\"p95\": %.1f, ", p95Micros);
    out += strprintf("\"p99\": %.1f, ", p99Micros);
    out += strprintf("\"mean\": %.1f, ", meanMicros);
    out += strprintf("\"max\": %.1f},\n", maxMicros);
    out += pad;
    out += strprintf("  \"throughput_rps\": %.2f,\n", throughputRps);
    out += pad;
    out += "  \"engine_pool\": {";
    out += strprintf("\"created\": %llu, ",
                     static_cast<unsigned long long>(enginesCreated));
    out += strprintf("\"reused\": %llu, ",
                     static_cast<unsigned long long>(enginesReused));
    out += strprintf("\"discarded\": %llu, ",
                     static_cast<unsigned long long>(enginesDiscarded));
    out += strprintf("\"idle\": %llu},\n",
                     static_cast<unsigned long long>(enginesIdle));
    out += pad;
    out += strprintf("  \"jit\": {\"chains_built\": %llu},\n",
                     static_cast<unsigned long long>(jitChainsBuilt));
    out += pad;
    out += "  \"program_cache\": {";
    out += strprintf("\"hits\": %llu, ",
                     static_cast<unsigned long long>(cacheHits));
    out += strprintf("\"misses\": %llu, ",
                     static_cast<unsigned long long>(cacheMisses));
    out += strprintf("\"entries\": %llu},\n",
                     static_cast<unsigned long long>(cacheEntries));
    out += pad;
    out += "  \"trace\": {";
    out += strprintf("\"events\": %llu, ",
                     static_cast<unsigned long long>(traceEvents));
    out += strprintf("\"drops\": %llu},\n",
                     static_cast<unsigned long long>(traceDrops));
    out += pad;
    out += "  \"vm\": {";
    out += strprintf(
        "\"instructions\": %llu, ",
        static_cast<unsigned long long>(aggregate.totalInstructions()));
    out += strprintf(
        "\"checks\": %llu, ",
        static_cast<unsigned long long>(aggregate.totalChecks()));
    out += strprintf("\"cycles\": %.0f, ", aggregate.totalCycles());
    out += strprintf("\"deopts\": %llu, ",
                     static_cast<unsigned long long>(aggregate.deopts));
    out += strprintf(
        "\"ftl_compiles\": %llu, ",
        static_cast<unsigned long long>(aggregate.ftlCompiles));
    out += strprintf(
        "\"tx_commits\": %llu, ",
        static_cast<unsigned long long>(aggregate.txCommits));
    out += strprintf(
        "\"tx_aborts\": {\"total\": %llu, \"capacity\": %llu, "
        "\"check\": %llu, \"sof\": %llu}}\n",
        static_cast<unsigned long long>(aggregate.txAborts),
        static_cast<unsigned long long>(aggregate.txAbortsCapacity),
        static_cast<unsigned long long>(aggregate.txAbortsCheck),
        static_cast<unsigned long long>(aggregate.txAbortsSof));
    out += pad;
    out += "}";
    return out;
}

std::string
NetConnectionCounters::toJson() const
{
    std::string out = "{";
    out += strprintf("\"accepted\": %llu, ",
                     static_cast<unsigned long long>(accepted));
    out += strprintf("\"active\": %llu, ",
                     static_cast<unsigned long long>(active));
    out += strprintf("\"closed\": %llu, ",
                     static_cast<unsigned long long>(closed));
    out += strprintf("\"rejected\": %llu, ",
                     static_cast<unsigned long long>(rejected));
    out += strprintf("\"accept_faults\": %llu, ",
                     static_cast<unsigned long long>(acceptFaults));
    out += strprintf("\"accept_backoffs\": %llu, ",
                     static_cast<unsigned long long>(acceptBackoffs));
    out += strprintf("\"read_errors\": %llu, ",
                     static_cast<unsigned long long>(readErrors));
    out += strprintf("\"write_errors\": %llu, ",
                     static_cast<unsigned long long>(writeErrors));
    out += strprintf("\"decode_errors\": %llu, ",
                     static_cast<unsigned long long>(decodeErrors));
    out += strprintf("\"frames_in\": %llu, ",
                     static_cast<unsigned long long>(framesIn));
    out += strprintf("\"frames_out\": %llu, ",
                     static_cast<unsigned long long>(framesOut));
    out += strprintf("\"deferred_frames\": %llu, ",
                     static_cast<unsigned long long>(deferredFrames));
    out += strprintf("\"bytes_in\": %llu, ",
                     static_cast<unsigned long long>(bytesIn));
    out += strprintf("\"bytes_out\": %llu}",
                     static_cast<unsigned long long>(bytesOut));
    return out;
}

std::string
NetLoopCounters::toJson() const
{
    std::string out = "{";
    out += strprintf("\"loop\": %llu, ",
                     static_cast<unsigned long long>(loop));
    out += strprintf("\"accepted\": %llu, ",
                     static_cast<unsigned long long>(accepted));
    out += strprintf("\"active\": %llu, ",
                     static_cast<unsigned long long>(active));
    out += strprintf("\"frames_in\": %llu, ",
                     static_cast<unsigned long long>(framesIn));
    out += strprintf("\"frames_out\": %llu}",
                     static_cast<unsigned long long>(framesOut));
    return out;
}

std::string
ShardedMetricsSnapshot::toJson() const
{
    std::string out;
    out += "{\n";
    out += strprintf("  \"shards\": %llu,\n",
                     static_cast<unsigned long long>(shards));
    out += strprintf("  \"loops\": %llu,\n",
                     static_cast<unsigned long long>(loops));
    out += strprintf("  \"shed_queue_depth\": %llu,\n",
                     static_cast<unsigned long long>(shedQueueDepth));
    out += "  \"router\": {";
    out += strprintf("\"routed\": %llu, ",
                     static_cast<unsigned long long>(routed));
    out += strprintf("\"shed\": %llu, ",
                     static_cast<unsigned long long>(shedTotal));
    out += "\"routed_per_loop\": [";
    for (size_t i = 0; i < routedPerLoop.size(); ++i) {
        out += strprintf(
            "%s%llu", i ? ", " : "",
            static_cast<unsigned long long>(routedPerLoop[i]));
    }
    out += "]},\n";
    out += "  \"connections\": ";
    out += connections.toJson();
    out += ",\n";
    out += "  \"event_loops\": [";
    for (size_t i = 0; i < eventLoops.size(); ++i) {
        out += i ? ", " : "";
        out += eventLoops[i].toJson();
    }
    out += "],\n";
    out += "  \"per_shard\": [\n";
    for (size_t i = 0; i < perShard.size(); ++i) {
        const Shard &shard = perShard[i];
        out += strprintf("    {\"shard\": %llu, ",
                         static_cast<unsigned long long>(i));
        out += strprintf("\"routed\": %llu, ",
                         static_cast<unsigned long long>(shard.routed));
        out += strprintf("\"shed\": %llu,\n",
                         static_cast<unsigned long long>(shard.shed));
        out += "     \"service\": ";
        out += shard.service.toJson(5);
        out += i + 1 < perShard.size() ? "},\n" : "}\n";
    }
    out += "  ]\n";
    out += "}";
    return out;
}

} // namespace nomap
