#ifndef NOMAP_SERVICE_METRICS_H
#define NOMAP_SERVICE_METRICS_H

/**
 * @file
 * Pool-level observability: a log-scale latency histogram and the
 * aggregate snapshot the service exports (optionally as JSON).
 *
 * The histogram uses geometric buckets (~25% relative width) so one
 * small fixed array covers microseconds to hours with bounded
 * percentile error — the standard serving-metrics trade-off.
 * Instances are not internally synchronized; the service records into
 * them under its metrics mutex.
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/stats.h"

namespace nomap {

/** Fixed-size geometric histogram of latencies in microseconds. */
class LatencyHistogram
{
  public:
    void record(double micros);

    uint64_t count() const { return total; }
    double mean() const;
    double max() const { return maxSeen; }

    /** Approximate latency at percentile @p p (0..100). */
    double percentile(double p) const;

    // The bucket geometry is part of the external metrics contract
    // (dashboards bake in the edges), so it is public and pinned by
    // the golden-file test tests/test_metrics_golden.cc.

    /** Geometric bucket growth factor (~25% relative resolution). */
    static constexpr double kGrowth = 1.25;

    /** kGrowth^96 microseconds ≈ 6 hours of range. */
    static constexpr size_t kBuckets = 96;

    /** Bucket index covering @p micros. */
    static size_t bucketOf(double micros);

    /**
     * Lower edge of @p bucket in microseconds. Bucket 0 covers
     * [0, 1]; bucket b > 0 covers (kGrowth^(b-1), kGrowth^b].
     */
    static double bucketFloorMicros(size_t bucket);

    /** Representative (geometric-mid) latency for @p bucket. */
    static double bucketMidMicros(size_t bucket);

  private:
    std::array<uint64_t, kBuckets> buckets{};
    uint64_t total = 0;
    double sum = 0.0;
    double maxSeen = 0.0;
};

/** Point-in-time view of the whole service. */
struct ServiceMetricsSnapshot {
    // ---- Lifecycle -----------------------------------------------------
    double uptimeSeconds = 0.0;
    uint64_t workers = 0;

    // ---- Admission -----------------------------------------------------
    uint64_t queueDepth = 0;
    /** Deepest the queue has ever been (admission-control signal). */
    uint64_t queueDepthHighWater = 0;
    uint64_t queueCapacity = 0;
    uint64_t submitted = 0;
    uint64_t rejected = 0; ///< QueueFull + Shutdown rejections.
    /** Requests load-shed by queue-depth admission control. */
    uint64_t shed = 0;
    uint64_t inFlight = 0; ///< Requests currently inside workers.

    // ---- Outcomes ------------------------------------------------------
    uint64_t completed = 0;
    uint64_t succeeded = 0;
    uint64_t errors = 0;
    uint64_t timeouts = 0;
    uint64_t retries = 0; ///< Extra attempts beyond the first.

    // ---- End-to-end latency (microseconds) -----------------------------
    double p50Micros = 0.0;
    double p95Micros = 0.0;
    double p99Micros = 0.0;
    double meanMicros = 0.0;
    double maxMicros = 0.0;
    double throughputRps = 0.0; ///< completed / uptime.

    // ---- Engine pool ---------------------------------------------------
    uint64_t enginesCreated = 0;
    uint64_t enginesReused = 0;
    uint64_t enginesDiscarded = 0;
    uint64_t enginesIdle = 0;

    // ---- Jit tier (host-side, outside the guest contract) --------------
    /** Region template chains built, DFG plus FTL. */
    uint64_t jitChainsBuilt = 0;

    // ---- Program cache -------------------------------------------------
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheEntries = 0;

    // ---- Tracing -------------------------------------------------------
    /** Trace events exported by successful requests (incl. spans). */
    uint64_t traceEvents = 0;
    /** Events lost because a per-engine trace buffer filled up. */
    uint64_t traceDrops = 0;

    // ---- Aggregated VM counters (successful requests) ------------------
    ExecutionStats aggregate;

    /** Render the snapshot as a JSON object (stable key order). */
    std::string toJson() const;

    /**
     * Same object rendered with @p indent leading spaces per line,
     * for embedding as a per-shard section of a sharded snapshot.
     */
    std::string toJson(int indent) const;
};

/**
 * Wire-level counters of the TCP front-end. Lives here (not in
 * src/net/) so the sharded snapshot can embed it without the service
 * layer depending on sockets; a snapshot taken without a server in
 * front reports all zeros.
 */
struct NetConnectionCounters {
    uint64_t accepted = 0;      ///< Connections accept()ed and served.
    uint64_t active = 0;        ///< Currently open.
    uint64_t closed = 0;        ///< Closed (either side).
    /** Turned away at the max-connection cap (never served). */
    uint64_t rejected = 0;
    uint64_t acceptFaults = 0;  ///< net.accept injected failures.
    /** Accept-interest backoffs after transient accept() failures. */
    uint64_t acceptBackoffs = 0;
    uint64_t readErrors = 0;    ///< recv() errors (not EOF).
    uint64_t writeErrors = 0;   ///< send() errors.
    uint64_t decodeErrors = 0;  ///< Malformed/oversized frames.
    uint64_t framesIn = 0;      ///< Complete request frames decoded.
    uint64_t framesOut = 0;     ///< Response frames fully written.
    uint64_t deferredFrames = 0; ///< net.frame slow-client deferrals.
    uint64_t bytesIn = 0;
    uint64_t bytesOut = 0;

    /** Render as a JSON object (stable key order). */
    std::string toJson() const;
};

/** Per-event-loop slice of the wire counters (1-based loop ids). */
struct NetLoopCounters {
    uint64_t loop = 0;     ///< 1-based loop ordinal.
    uint64_t accepted = 0; ///< Connections pinned to this loop.
    uint64_t active = 0;   ///< Currently open on this loop.
    uint64_t framesIn = 0;
    uint64_t framesOut = 0;

    /** Render as a JSON object (stable key order). */
    std::string toJson() const;
};

/**
 * Point-in-time view of the whole sharded front-end: one per-shard
 * section per ExecutionService shard (each a full
 * ServiceMetricsSnapshot plus the router's counters for that shard)
 * and the wire counters when a TCP server fronts the shards.
 */
struct ShardedMetricsSnapshot {
    uint64_t shards = 0;
    /** Event loops configured at the router (1 when no TCP server). */
    uint64_t loops = 0;
    /** Shed threshold in effect (0 = shedding disabled). */
    uint64_t shedQueueDepth = 0;
    /** Totals across shards (router-side). */
    uint64_t routed = 0;
    uint64_t shedTotal = 0;
    /**
     * Router admissions by originating event loop; index 0 counts
     * in-process submissions (no TCP connection behind them).
     */
    std::vector<uint64_t> routedPerLoop;

    struct Shard {
        uint64_t routed = 0; ///< Requests the router sent here.
        uint64_t shed = 0;   ///< Requests shed at this shard's door.
        ServiceMetricsSnapshot service;
    };
    std::vector<Shard> perShard;

    /** Wire counters (all zero without a TCP server in front). */
    NetConnectionCounters connections;

    /** Per-loop wire counters (empty without a TCP server). */
    std::vector<NetLoopCounters> eventLoops;

    /** Render the snapshot as a JSON object (stable key order). */
    std::string toJson() const;
};

} // namespace nomap

#endif // NOMAP_SERVICE_METRICS_H
