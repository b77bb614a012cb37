#ifndef NOMAP_SERVICE_ENGINE_POOL_H
#define NOMAP_SERVICE_ENGINE_POOL_H

/**
 * @file
 * The serving layer: a pool of warm Engine isolates behind a bounded
 * request queue, with per-request robustness and pool metrics.
 *
 * ExecutionService turns the library's synchronous Engine::run into a
 * multi-tenant service:
 *
 *  - M worker threads pull from a bounded MPMC queue (submit blocks
 *    for backpressure; trySubmit rejects with a QueueFull response).
 *  - EnginePool keeps idle isolates keyed by EngineConfig; a released
 *    isolate is reset() to pristine so reuse is bit-deterministic and
 *    tenants never observe each other's heap.
 *  - A shared CompiledProgramCache lets repeated scripts skip
 *    lexing/parsing/bytecode compilation entirely.
 *  - Robustness: a watchdog thread enforces per-request deadlines via
 *    cooperative cancellation; FatalError becomes an error Response
 *    instead of crashing the worker; unexpected (transient) failures
 *    get a bounded number of retries on a fresh isolate.
 *  - Observability: latency percentiles, throughput, queue depth,
 *    pool/cache counters, and aggregated ExecutionStats, exportable
 *    as JSON (metricsJson()).
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "engine/program_cache.h"
#include "inject/fault_plan.h"
#include "service/metrics.h"
#include "service/mpmc_queue.h"
#include "service/request.h"

namespace nomap {

/**
 * Stable identity of an EngineConfig: every knob with a
 * guest-visible effect, rendered as a string. Used by EnginePool to
 * key idle isolates and by the shard router to key placement (same
 * identity -> same shard, so a tenant's isolates and compiled
 * programs stay shard-local).
 */
std::string engineConfigKey(const EngineConfig &config);

/**
 * Idle-isolate pool keyed by EngineConfig. acquire() reuses a warm
 * isolate when one exists for the config (constructing otherwise);
 * release() resets it to pristine and shelves it. Thread-safe.
 */
class EnginePool
{
  public:
    explicit EnginePool(size_t max_idle_per_config = 8);

    /** Get a pristine isolate for @p config (reused or fresh). */
    std::unique_ptr<Engine> acquire(const EngineConfig &config);

    /** Reset @p engine and shelve it for reuse (drops when full). */
    void release(std::unique_ptr<Engine> engine);

    /** Destroy @p engine (post-failure isolates are never reused). */
    void discard(std::unique_ptr<Engine> engine);

    struct Stats {
        uint64_t created = 0;
        uint64_t reused = 0;
        uint64_t discarded = 0;
        /** Jit chains the engines built before coming back. */
        uint64_t jitChainsBuilt = 0;
    };

    Stats stats() const;
    size_t idleCount() const;

  private:
    mutable std::mutex mutex;
    std::unordered_map<std::string,
                       std::vector<std::unique_ptr<Engine>>>
        idle;
    const size_t maxIdlePerConfig;
    Stats counters;
};

/** Tuning for ExecutionService. */
struct ServiceConfig {
    /** Worker threads executing requests. */
    size_t workers = 4;
    /** Bounded request-queue capacity (admission control). */
    size_t queueCapacity = 256;
    /** Idle isolates kept per distinct EngineConfig. */
    size_t maxIdleEnginesPerConfig = 8;
    /** Default end-to-end deadline in ms; 0 = no deadline. */
    uint64_t defaultTimeoutMs = 0;
    /** Default transient-failure retries per request. */
    uint32_t defaultMaxRetries = 1;
    /** Share compiled programs across requests/isolates. */
    bool enableProgramCache = true;
    /** Distinct scripts the program cache holds. */
    size_t programCacheCapacity = 256;
    /**
     * Test-only fault injection: called before each execution attempt;
     * returning true makes that attempt fail with a transient error
     * (exercises the retry path deterministically).
     */
    std::function<bool(const Request &, uint32_t attempt)>
        failureInjection;
    /**
     * Deterministic fault plan for the service-level sites
     * (service.queuefull / service.retry; see src/inject/). Must
     * outlive the service. When null, NOMAP_FAULT_PLAN is consulted
     * at construction instead. Engine-level sites of the same
     * environment plan arm inside each isolate independently.
     */
    const FaultPlan *faultPlan = nullptr;
};

/** Concurrent multi-isolate execution service (see file comment). */
class ExecutionService
{
  public:
    explicit ExecutionService(ServiceConfig config = ServiceConfig());
    ~ExecutionService();

    ExecutionService(const ExecutionService &) = delete;
    ExecutionService &operator=(const ExecutionService &) = delete;

    /**
     * Enqueue @p request, blocking while the queue is full
     * (backpressure). The future always yields a Response.
     */
    std::future<Response> submit(Request request);

    /**
     * Enqueue without blocking: a full queue yields an immediate
     * QueueFull response instead of waiting.
     */
    std::future<Response> trySubmit(Request request);

    /**
     * Callback-style submission for event-loop callers (the TCP
     * front-end): never blocks, and @p done is invoked exactly once
     * with the Response — from a worker thread on completion, or
     * inline when admission rejects the request (full queue,
     * shutdown). The callback must not throw and should be cheap; the
     * server's completion path hands off to its poll loop.
     */
    void submitAsync(Request request,
                     std::function<void(Response)> done);

    /** Requests currently queued (admission-control signal). */
    size_t queueDepth() const { return queue.size(); }

    /**
     * Count one request load-shed at this shard's door (the sharded
     * router sheds before enqueueing, so the shed never enters the
     * queue; this keeps the counter in the shard's own snapshot).
     */
    void recordShed();

    /**
     * Stop admission, drain every queued request, join all threads.
     * Idempotent; also invoked by the destructor.
     */
    void shutdown();

    ServiceMetricsSnapshot metrics() const;
    std::string metricsJson() const { return metrics().toJson(); }

    const ServiceConfig &config() const { return cfg; }

  private:
    struct Job {
        Request request;
        std::promise<Response> promise;
        /** Callback delivery (submitAsync); promise unused when set. */
        std::function<void(Response)> done;
        int64_t enqueuedUs = 0;
    };

    /** Per-worker watchdog mailbox. */
    struct WorkerSlot {
        std::atomic<bool> cancel{false};
        /** Absolute deadline (steady µs); 0 = no deadline armed. */
        std::atomic<int64_t> deadlineUs{0};
    };

    static int64_t nowUs();

    std::future<Response> enqueue(Request request, bool block);
    /** Shared push path; fills the rejection Response on failure. */
    bool pushJob(Job &&job, bool block, Response *rejection);
    void workerMain(size_t index);
    void watchdogMain();
    Response execute(Job &job, WorkerSlot &slot);
    void recordResponse(const Response &response);

    ServiceConfig cfg;
    /** Plan captured from NOMAP_FAULT_PLAN when cfg.faultPlan is null. */
    std::unique_ptr<FaultPlan> envPlan;
    /** Shared across workers; counters are relaxed atomics. */
    std::unique_ptr<FaultInjector> injector;
    CompiledProgramCache programCache;
    EnginePool pool;
    BoundedMpmcQueue<Job> queue;

    std::vector<std::unique_ptr<WorkerSlot>> slots;
    std::vector<std::thread> workers;
    std::thread watchdog;
    std::atomic<bool> watchdogStop{false};
    std::mutex shutdownMutex;
    bool shutdownDone = false;

    const int64_t startUs;
    std::atomic<uint64_t> nextRequestId{1};
    std::atomic<uint64_t> inFlight{0};

    // ---- Metrics (guarded by metricsMutex) -----------------------------
    mutable std::mutex metricsMutex;
    LatencyHistogram latency;
    ExecutionStats aggregate;
    uint64_t submitted = 0;
    uint64_t rejected = 0;
    uint64_t shedCount = 0;
    uint64_t queueDepthHighWater = 0;
    uint64_t completed = 0;
    uint64_t succeeded = 0;
    uint64_t errors = 0;
    uint64_t timeouts = 0;
    uint64_t retriesTotal = 0;
    uint64_t traceEventsTotal = 0;
    uint64_t traceDropsTotal = 0;
};

} // namespace nomap

#endif // NOMAP_SERVICE_ENGINE_POOL_H
