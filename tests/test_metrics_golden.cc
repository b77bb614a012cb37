#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "service/metrics.h"
#include "support/logging.h"

namespace nomap {
namespace {

/**
 * Golden-file tests pinning the external metrics contract: the JSON
 * key order/format of ServiceMetricsSnapshot::toJson() and the
 * latency-histogram bucket edges. Dashboards and log scrapers parse
 * both, so any drift must be a deliberate, reviewed golden update:
 *
 *     NOMAP_UPDATE_GOLDEN=1 ./tests/test_metrics_golden
 *
 * rewrites the files under tests/golden/; diff and commit them.
 */

std::string
goldenPath(const char *name)
{
    return std::string(NOMAP_GOLDEN_DIR) + "/" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool
updateMode()
{
    const char *v = std::getenv("NOMAP_UPDATE_GOLDEN");
    return v && *v && std::string(v) != "0";
}

void
checkAgainstGolden(const char *name, const std::string &actual)
{
    std::string path = goldenPath(name);
    if (updateMode()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << path;
        out << actual;
        return;
    }
    std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << "missing golden " << path
        << " — bootstrap with NOMAP_UPDATE_GOLDEN=1";
    EXPECT_EQ(actual, expected)
        << "metrics contract drifted from " << path
        << "; if intentional, regenerate with NOMAP_UPDATE_GOLDEN=1 "
           "and review the diff";
}

/** Every field distinct and non-zero so format/order drift surfaces. */
ServiceMetricsSnapshot
sampleSnapshot()
{
    ServiceMetricsSnapshot s;
    s.uptimeSeconds = 12.5;
    s.workers = 4;
    s.queueDepth = 3;
    s.queueDepthHighWater = 17;
    s.queueCapacity = 64;
    s.submitted = 120;
    s.rejected = 2;
    s.shed = 6;
    s.inFlight = 1;
    s.completed = 114;
    s.succeeded = 108;
    s.errors = 4;
    s.timeouts = 2;
    s.retries = 5;
    s.p50Micros = 750.0;
    s.p95Micros = 2400.0;
    s.p99Micros = 5100.5;
    s.meanMicros = 910.25;
    s.maxMicros = 8200.0;
    s.throughputRps = 9.12;
    s.enginesCreated = 6;
    s.enginesReused = 110;
    s.enginesDiscarded = 2;
    s.enginesIdle = 4;
    s.jitChainsBuilt = 37;
    s.cacheHits = 100;
    s.cacheMisses = 14;
    s.cacheEntries = 9;
    s.traceEvents = 8192;
    s.traceDrops = 3;
    s.aggregate.instr[0] = 1000;
    s.aggregate.instr[1] = 2000;
    s.aggregate.instr[2] = 300;
    s.aggregate.instr[3] = 4000;
    s.aggregate.checks[0] = 50;
    s.aggregate.checks[1] = 40;
    s.aggregate.checks[2] = 30;
    s.aggregate.checks[3] = 20;
    s.aggregate.checks[4] = 10;
    s.aggregate.cyclesTm = 123456.0;
    s.aggregate.cyclesNonTm = 654321.0;
    s.aggregate.deopts = 7;
    s.aggregate.ftlCompiles = 11;
    s.aggregate.txCommits = 500;
    s.aggregate.txAborts = 25;
    s.aggregate.txAbortsCapacity = 12;
    s.aggregate.txAbortsCheck = 9;
    s.aggregate.txAbortsSof = 4;
    return s;
}

TEST(MetricsGolden, SnapshotJsonMatchesGolden)
{
    checkAgainstGolden("metrics_snapshot.golden.json",
                       sampleSnapshot().toJson() + "\n");
}

/** Sharded/net wrapper with every section populated and distinct. */
ShardedMetricsSnapshot
sampleShardedSnapshot()
{
    ShardedMetricsSnapshot s;
    s.shards = 2;
    s.loops = 2;
    s.shedQueueDepth = 32;
    s.routed = 150;
    s.shedTotal = 9;
    s.routedPerLoop = {10, 70, 70}; // Slot 0 = in-process.
    for (uint64_t i = 0; i < 2; ++i) {
        ShardedMetricsSnapshot::Shard shard;
        shard.routed = 70 + i * 10;
        shard.shed = 4 + i;
        shard.service = sampleSnapshot();
        shard.service.workers = 2 + i;
        s.perShard.push_back(std::move(shard));
    }
    s.connections.accepted = 40;
    s.connections.active = 5;
    s.connections.closed = 35;
    s.connections.rejected = 7;
    s.connections.acceptFaults = 1;
    s.connections.acceptBackoffs = 2;
    s.connections.readErrors = 2;
    s.connections.writeErrors = 3;
    s.connections.decodeErrors = 4;
    s.connections.framesIn = 500;
    s.connections.framesOut = 480;
    s.connections.deferredFrames = 6;
    s.connections.bytesIn = 123456;
    s.connections.bytesOut = 654321;
    for (uint64_t i = 0; i < 2; ++i) {
        NetLoopCounters loop;
        loop.loop = i + 1;
        loop.accepted = 20 + i;
        loop.active = 2 + i;
        loop.framesIn = 250 + i;
        loop.framesOut = 240 + i;
        s.eventLoops.push_back(loop);
    }
    return s;
}

TEST(MetricsGolden, ShardedSnapshotJsonMatchesGolden)
{
    checkAgainstGolden("metrics_sharded_snapshot.golden.json",
                       sampleShardedSnapshot().toJson() + "\n");
}

TEST(MetricsGolden, HistogramBucketEdgesMatchGolden)
{
    std::string dump = strprintf("growth %.4f buckets %zu\n",
                                 LatencyHistogram::kGrowth,
                                 LatencyHistogram::kBuckets);
    for (size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
        dump += strprintf(
            "%zu %.6g %.6g\n", b,
            LatencyHistogram::bucketFloorMicros(b),
            LatencyHistogram::bucketMidMicros(b));
    }
    checkAgainstGolden("histogram_buckets.golden.txt", dump);
}

TEST(MetricsGolden, BucketGeometryIsSelfConsistent)
{
    // Bucket 0 covers [0, 1] µs; bucket b > 0 covers
    // (kGrowth^(b-1), kGrowth^b].
    EXPECT_EQ(LatencyHistogram::bucketOf(0.0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(1.0), 0u);
    for (size_t b = 1; b + 1 < LatencyHistogram::kBuckets; ++b) {
        double floor = LatencyHistogram::bucketFloorMicros(b);
        double next = LatencyHistogram::bucketFloorMicros(b + 1);
        ASSERT_LT(floor, next);
        EXPECT_EQ(LatencyHistogram::bucketOf(floor * 1.0001), b)
            << "bucket " << b;
        double mid = LatencyHistogram::bucketMidMicros(b);
        EXPECT_GT(mid, floor);
        EXPECT_LT(mid, next);
    }
    // Overflow clamps into the last bucket.
    EXPECT_EQ(LatencyHistogram::bucketOf(1e30),
              LatencyHistogram::kBuckets - 1);
}

TEST(MetricsGolden, BucketEdgesAreInclusive)
{
    // A value lying exactly on a bucket's upper edge kGrowth^b
    // belongs to bucket b, not b+1: bucket b > 0 covers
    // (kGrowth^(b-1), kGrowth^b].
    for (size_t b = 1; b < LatencyHistogram::kBuckets; ++b) {
        double edge = std::pow(LatencyHistogram::kGrowth,
                               static_cast<double>(b));
        EXPECT_EQ(LatencyHistogram::bucketOf(edge), b)
            << "upper edge of bucket " << b;
        // Just past the edge spills into the next bucket.
        if (b + 1 < LatencyHistogram::kBuckets) {
            EXPECT_EQ(LatencyHistogram::bucketOf(edge * 1.0001), b + 1)
                << "past upper edge of bucket " << b;
        }
    }
    // The lower edge is exclusive: bucketFloorMicros(b) itself closes
    // bucket b-1.
    EXPECT_EQ(LatencyHistogram::bucketOf(
                  LatencyHistogram::bucketFloorMicros(2)),
              1u);
}

TEST(MetricsGolden, RecordRejectsNonFiniteLatencies)
{
    LatencyHistogram h;
    h.record(std::numeric_limits<double>::quiet_NaN());
    h.record(std::numeric_limits<double>::infinity());
    h.record(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);

    h.record(5.0);
    h.record(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.mean(), 5.0);
    EXPECT_EQ(h.max(), 5.0);
    // Bucket midpoints above the observed max clamp to it.
    EXPECT_EQ(h.percentile(50.0), 5.0);
}

} // namespace
} // namespace nomap
