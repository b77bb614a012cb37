/**
 * @file
 * The serving workloads, `serve-repeat` and `serve-distinct`: an
 * in-process NoMapServer (1 event loop, 2 shards x 1 worker) driven
 * over loopback TCP by one client thread with 4 connections.
 *
 * A run is rounds of a closed-loop phase (4 connections, one request
 * in flight each: throughput_rps), an open-loop phase at a fixed
 * offered rate (kOpenLoopRate; latencies, timed from each request's
 * due time) and in-process passes
 * (pass_s.*). Every response is checked against a reference-mode
 * in-process run computed before timing.
 *
 * A traced run adds the per-layer numbers: the same request stream
 * submitted in process through ShardedService (queue and execute
 * times, so TCP minus in-process is the network layer), and a replay
 * of the request path on one reused Engine (reset, cache instantiate
 * or front end, tier-up compiles, execution).
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include "engine/engine.h"
#include "engine/program_cache.h"
#include "net/poller.h"
#include "net/server.h"
#include "net/wire.h"
#include "perfbench.h"
#include "support/logging.h"

namespace nomap::perfbench {

namespace {

constexpr size_t kConnections = 4;
constexpr size_t kPassPrograms = 16;
constexpr int kRounds = 10;
constexpr int kSetUpsPerRound = 2;

/**
 * Offered rate of the open-loop phase, requests per second. Fixed, so
 * the latency numbers of two commits are taken at the same load. On a
 * shared 4-vCPU x86-64 container the serve-distinct closed loop
 * saturated at 260-648/s as the host's speed drifted; this is about
 * half the slow end. A rate set from the fast end put a slow host at
 * over 0.8 load, where the tail latency tripled from run to run.
 */
constexpr double kOpenLoopRate = 150.0;

/**
 * serve-distinct scripts each closed-loop second may use: 1.4x the
 * highest saturation measured (648/s), so the phase ends on its
 * deadline, not by running out of never-sent scripts.
 */
constexpr double kClosedLoopCeiling = 900.0;

ServerConfig
serverConfig()
{
    ServerConfig cfg;
    cfg.loops = 1;
    cfg.service.shards = 2;
    cfg.service.shard.workers = 1;
    cfg.service.shard.queueCapacity = 4096;
    return cfg;
}

/** The workload's programs and what each must produce. */
struct Workload {
    /**
     * serve-repeat: the whole pool. serve-distinct: only the pass
     * programs; every other script is regenerated from (seed, index)
     * when it is sent, so the harness keeps no pool in memory and
     * peak_rss_mb stays the server's.
     */
    std::vector<Script> programs;
    uint64_t seed = 0;
    /** Number of programs the stream indexes. */
    size_t count = 0;
    std::vector<Digest> expected;   ///< NoMap reference, per program.
    std::vector<bool> reachesFtl;   ///< Reference compiled to FTL.
    std::vector<Digest> expectedBase; ///< Base reference, pass programs.
    /** Request k sends program(stream[k]). */
    std::vector<uint32_t> stream;
    std::vector<Script> warmup;
    bool distinct = false;
    /** Tenant names alternating between the two shards. */
    std::vector<std::string> tenants;

    Script
    program(uint32_t idx) const
    {
        return idx < programs.size() ? programs[idx]
                                     : distinctProgram(seed, idx);
    }
};

/** 16 tenants, alternately routed to shard 0 and shard 1. */
std::vector<std::string>
balancedTenants()
{
    ShardRouter router(serverConfig().service.shards);
    std::vector<std::string> by_shard[2];
    for (int i = 0; by_shard[0].size() < 8 || by_shard[1].size() < 8; ++i) {
        Request request;
        request.tenant = "tenant-" + std::to_string(i);
        request.config.arch = Architecture::NoMap;
        std::vector<std::string> &list = by_shard[router.route(request)];
        if (list.size() < 8)
            list.push_back(request.tenant);
    }
    std::vector<std::string> out;
    for (size_t j = 0; j < 8; ++j) {
        out.push_back(by_shard[0][j]);
        out.push_back(by_shard[1][j]);
    }
    return out;
}

/**
 * The tenant of the request for program @p idx at stream position
 * @p k. serve-repeat: a program always goes to one shard (its cached
 * bytecode lives there), and consecutive pairs of programs (one that
 * reaches FTL, one that does not) alternate shards. serve-distinct:
 * requests alternate shards, so the open loop's fixed spacing reaches
 * each shard evenly.
 */
const std::string &
tenantOf(const Workload &w, uint64_t idx, uint64_t k)
{
    return w.tenants[(w.distinct ? k : idx / 2) % w.tenants.size()];
}

/**
 * Reference-mode runs of programs [0, count) under @p arch, on 4
 * threads (before the server starts, so they compete with nothing).
 */
void
computeReference(const Workload &w, size_t count, Architecture arch,
                 std::vector<Digest> *digests, std::vector<bool> *ftl)
{
    digests->assign(count, Digest());
    if (ftl)
        ftl->assign(count, false);
    std::vector<char> reached(count, 0);
    std::atomic<size_t> next{0};
    auto worker = [&]() {
        for (size_t i = next++; i < count; i = next++) {
            Engine engine(referenceConfig(arch));
            EngineResult r =
                engine.run(w.program(static_cast<uint32_t>(i)).source);
            (*digests)[i] = Digest::of(r.resultString, r.stats);
            reached[i] = r.stats.ftlCompiles > 0;
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    if (ftl) {
        for (size_t i = 0; i < count; ++i)
            (*ftl)[i] = reached[i] != 0;
    }
}

// ---- Load client -------------------------------------------------------

/** One client thread's connections, multiplexed on one Poller. */
class LoadClient
{
  public:
    LoadClient(uint16_t port, size_t connections)
    {
        for (size_t c = 0; c < connections; ++c) {
            int fd = socket(AF_INET, SOCK_STREAM, 0);
            if (fd < 0)
                fatal("socket: %s", std::strerror(errno));
            sockaddr_in addr {};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(port);
            inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
            if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) < 0) {
                int err = errno;
                ::close(fd);
                fatal("connect: %s", std::strerror(err));
            }
            int one = 1;
            setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
            conns.push_back(std::make_unique<Conn>());
            conns.back()->fd = fd;
            poller.add(fd, kPollIn);
        }
        timer = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
        if (timer < 0)
            fatal("timerfd_create: %s", std::strerror(errno));
        poller.add(timer, kPollIn);
    }

    ~LoadClient()
    {
        for (auto &c : conns) {
            if (c->fd >= 0)
                ::close(c->fd);
        }
        ::close(timer);
    }

    LoadClient(const LoadClient &) = delete;
    LoadClient &operator=(const LoadClient &) = delete;

    size_t size() const { return conns.size(); }
    size_t
    inflight() const
    {
        size_t n = 0;
        for (const auto &c : conns)
            n += c->inflight;
        return n;
    }

    void
    send(size_t c, const WireRequest &request)
    {
        Conn &conn = *conns[c];
        conn.out += frameMessage(encodeRequestPayload(request));
        ++conn.inflight;
        flush(conn);
    }

    /**
     * Wait until a response arrives, @p timeout_ms passes or, if
     * @p wake_ns is set, the steady clock reaches it (to the
     * microsecond: the open loop sends on time without spinning), and
     * hand every complete response to
     * @p on_response(conn, response, arrival_ns).
     */
    template <typename F>
    void
    poll(int timeout_ms, F &&on_response, int64_t wake_ns = 0)
    {
        if (wake_ns > 0) {
            // steady_clock is CLOCK_MONOTONIC on Linux.
            itimerspec when {};
            when.it_value.tv_sec = wake_ns / 1'000'000'000;
            when.it_value.tv_nsec = wake_ns % 1'000'000'000;
            timerfd_settime(timer, TFD_TIMER_ABSTIME, &when, nullptr);
        }
        poller.wait(&events, timeout_ms);
        for (const Poller::Event &event : events) {
            if (event.fd == timer) {
                uint64_t expirations = 0;
                ssize_t n = ::read(timer, &expirations, sizeof(expirations));
                (void)n;
                continue;
            }
            size_t c = 0;
            while (c < conns.size() && conns[c]->fd != event.fd)
                ++c;
            if (c == conns.size())
                continue;
            Conn &conn = *conns[c];
            if (event.ready & kPollOut)
                flush(conn);
            if (!(event.ready & kPollIn))
                continue;
            char buf[64 * 1024];
            for (;;) {
                ssize_t n = ::read(conn.fd, buf, sizeof(buf));
                if (n > 0) {
                    conn.decoder.feed(buf, static_cast<size_t>(n));
                    continue;
                }
                if (n < 0 && errno == EINTR)
                    continue;
                if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
                    fatal("perfbench: server closed a connection");
                break;
            }
            int64_t arrival = nowNs();
            std::string payload, error;
            while (conn.decoder.next(&payload, &error) ==
                   FrameDecoder::Result::Frame) {
                WireResponse response;
                if (!decodeResponsePayload(payload, &response, &error))
                    fatal("perfbench: bad response: %s", error.c_str());
                --conn.inflight;
                on_response(c, response, arrival);
            }
        }
    }

  private:
    struct Conn {
        int fd = -1;
        FrameDecoder decoder;
        std::string out;
        size_t outPos = 0;
        size_t inflight = 0;
        bool wantOut = false;
    };

    void
    flush(Conn &conn)
    {
        while (conn.outPos < conn.out.size()) {
            ssize_t n = ::send(conn.fd, conn.out.data() + conn.outPos,
                               conn.out.size() - conn.outPos, MSG_NOSIGNAL);
            if (n > 0) {
                conn.outPos += static_cast<size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            fatal("perfbench: send failed: %s", std::strerror(errno));
        }
        if (conn.outPos == conn.out.size()) {
            conn.out.clear();
            conn.outPos = 0;
        }
        bool want = !conn.out.empty();
        if (want != conn.wantOut) {
            poller.modify(conn.fd, want ? kPollIn | kPollOut : kPollIn);
            conn.wantOut = want;
        }
    }

    Poller poller;
    std::vector<Poller::Event> events;
    std::vector<std::unique_ptr<Conn>> conns;
    int timer = -1;
};

// ---- Phases ------------------------------------------------------------

/** Outcome of one phase of requests. */
struct Phase {
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t failed = 0;
    uint64_t cacheHits = 0;
    uint64_t ftlRequests = 0;
    uint64_t txCommits = 0;
    double seconds = 0;
    std::vector<double> latencyUs;
    std::vector<double> sendLagUs;
    /** Stream position of the phase's first request. */
    uint64_t first = 0;
};

WireRequest
wireRequest(const Workload &w, uint64_t k)
{
    uint32_t idx = w.stream[k % w.stream.size()];
    WireRequest request;
    request.id = k + 1;
    request.arch = static_cast<uint8_t>(Architecture::NoMap);
    request.tenant = tenantOf(w, idx, k);
    request.source = w.program(idx).source;
    return request;
}

/** Check one response against the reference; updates @p phase. */
void
checkResponse(const Workload &w, uint64_t k, const WireResponse &r,
              Phase &phase, Report &report)
{
    uint32_t idx = w.stream[k % w.stream.size()];
    auto status = static_cast<ResponseStatus>(r.status);
    if (status != ResponseStatus::Ok) {
        ++phase.failed;
        report.note(strprintf("request %llu: %s %s",
                              static_cast<unsigned long long>(k),
                              responseStatusName(status), r.error.c_str()));
        return;
    }
    Digest got;
    got.result = r.resultString;
    got.instructions = r.instructions;
    got.checks = r.checks;
    got.cyclesBits = r.cyclesBits;
    got.commits = r.txCommits;
    got.aborts = r.txAborts;
    got.deopts = r.deopts;
    if (got != w.expected[idx]) {
        ++phase.failed;
        report.fail(strprintf("%s: got '%s', expected '%s' (or a stats "
                              "digest mismatch)",
                              w.program(idx).id.c_str(), r.resultString.c_str(),
                              w.expected[idx].result.c_str()));
        return;
    }
    ++phase.ok;
    phase.cacheHits += r.programCacheHit;
    phase.ftlRequests += w.reachesFtl[idx];
    phase.txCommits += r.txCommits;
}

/**
 * Closed loop: every connection keeps one request in flight, sending
 * the next as soon as a response arrives, for @p seconds or until the
 * stream position reaches @p limit (then the phase ends early).
 */
Phase
closedLoop(LoadClient &client, const Workload &w, uint64_t *next,
           uint64_t limit, double seconds, Report &report, Tracer *tracer)
{
    Phase phase;
    phase.first = *next;
    std::unordered_map<uint64_t, int64_t> sent_at;
    int64_t start = nowNs();
    int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    auto send = [&](size_t c) {
        uint64_t k = (*next)++;
        sent_at[k] = nowNs();
        client.send(c, wireRequest(w, k));
        ++phase.sent;
    };
    for (size_t c = 0; c < client.size(); ++c)
        send(c);
    int64_t last = start;
    while (client.inflight() > 0) {
        if (nowNs() > deadline + 30'000'000'000ll)
            break; // responses lost: counted as failed below
        client.poll(100, [&](size_t c, const WireResponse &r,
                             int64_t arrival) {
            uint64_t k = r.id - 1;
            auto it = sent_at.find(k);
            if (it == sent_at.end())
                fatal("perfbench: response to unknown id");
            phase.latencyUs.push_back(
                static_cast<double>(arrival - it->second) / 1e3);
            if (tracer)
                tracer->add("client.request", it->second, arrival, -1, k);
            sent_at.erase(it);
            checkResponse(w, k, r, phase, report);
            last = arrival;
            if (arrival < deadline && *next < limit)
                send(c);
        });
    }
    phase.failed += client.inflight();
    phase.seconds = static_cast<double>(last - start) * 1e-9;
    return phase;
}

/**
 * Open loop: request i is due at start + i / rate whatever the
 * responses do, sent round-robin over the connections (pipelined).
 * Latency counts from the due time, so a stall also charges the
 * requests queued behind it.
 */
Phase
openLoop(LoadClient &client, const Workload &w, uint64_t *next,
         double seconds, double rate, Report &report)
{
    Phase phase;
    std::unordered_map<uint64_t, int64_t> due_at;
    int64_t start = nowNs();
    uint64_t total = static_cast<uint64_t>(seconds * rate);
    uint64_t i = 0;
    auto on_response = [&](size_t, const WireResponse &r, int64_t arrival) {
        uint64_t k = r.id - 1;
        auto it = due_at.find(k);
        if (it == due_at.end())
            fatal("perfbench: response to unknown id");
        phase.latencyUs.push_back(
            static_cast<double>(arrival - it->second) / 1e3);
        due_at.erase(it);
        checkResponse(w, k, r, phase, report);
    };
    while (i < total) {
        int64_t now = nowNs();
        while (i < total) {
            int64_t due = start + static_cast<int64_t>(
                                      static_cast<double>(i) / rate * 1e9);
            if (due > now)
                break;
            uint64_t k = (*next)++;
            due_at[k] = due;
            client.send(i % client.size(), wireRequest(w, k));
            phase.sendLagUs.push_back(static_cast<double>(nowNs() - due) /
                                      1e3);
            ++phase.sent;
            ++i;
        }
        if (i == total)
            break;
        int64_t due = start + static_cast<int64_t>(
                                  static_cast<double>(i) / rate * 1e9);
        client.poll(100, on_response, due);
    }
    int64_t drain_deadline = nowNs() + 30'000'000'000ll;
    while (client.inflight() > 0 && nowNs() < drain_deadline)
        client.poll(100, on_response);
    phase.failed += client.inflight();
    phase.seconds = secondsSince(start);
    return phase;
}

/** Server plus connected client, built the way setup_s times it. */
struct Rig {
    std::unique_ptr<NoMapServer> server;
    std::unique_ptr<LoadClient> client;
};

Rig
setUp()
{
    Rig rig;
    rig.server = std::make_unique<NoMapServer>(serverConfig());
    rig.server->start();
    rig.client =
        std::make_unique<LoadClient>(rig.server->port(), kConnections);
    return rig;
}

/** Send every warm-up program once, closed loop, unchecked. */
void
warmUp(LoadClient &client, const Workload &w)
{
    const std::vector<Script> &programs = w.warmup;
    size_t sent = 0;
    size_t done = 0;
    auto send = [&](size_t c) {
        WireRequest request;
        request.id = ~0ull - sent;
        request.arch = static_cast<uint8_t>(Architecture::NoMap);
        request.tenant = tenantOf(w, sent, sent);
        request.source = programs[sent].source;
        client.send(c, request);
        ++sent;
    };
    for (size_t c = 0; c < client.size() && sent < programs.size(); ++c)
        send(c);
    while (done < programs.size()) {
        client.poll(100, [&](size_t c, const WireResponse &, int64_t) {
            ++done;
            if (sent < programs.size())
                send(c);
        });
    }
}

// ---- In-process service (traced runs) ----------------------------------

/** The same stream through ShardedService::submitAsync, 4 in flight. */
struct InProcess {
    std::vector<double> latencyUs, queueUs, execUs;
    ShardedMetricsSnapshot metrics;
    uint64_t failed = 0;
};

InProcess
inProcess(const Workload &w, uint64_t first, uint64_t count)
{
    InProcess out;
    ShardedService service(serverConfig().service);
    std::mutex mutex;
    std::condition_variable cv;
    size_t inflight = 0;
    uint64_t next = first;
    auto submit = [&]() {
        Request request;
        std::string error;
        wireToRequest(wireRequest(w, next), &request, &error);
        uint64_t k = next++;
        int64_t t0 = nowNs();
        ++inflight;
        service.submitAsync(std::move(request), [&, k, t0](Response r) {
            double us = static_cast<double>(nowNs() - t0) / 1e3;
            std::lock_guard<std::mutex> lock(mutex);
            const Digest &want = w.expected[w.stream[k % w.stream.size()]];
            if (!r.ok() || Digest::of(r.resultString, r.stats) != want)
                ++out.failed;
            out.latencyUs.push_back(us);
            out.queueUs.push_back(r.queueMicros);
            out.execUs.push_back(r.execMicros);
            --inflight;
            cv.notify_one();
        });
    };
    std::unique_lock<std::mutex> lock(mutex);
    while (next < first + count || inflight > 0) {
        while (inflight < kConnections && next < first + count) {
            lock.unlock();
            submit();
            lock.lock();
        }
        cv.wait(lock, [&] {
            return (inflight < kConnections && next < first + count) ||
                   inflight == 0;
        });
    }
    lock.unlock();
    out.metrics = service.metrics();
    service.shutdown();
    return out;
}

// ---- Request-path replay (traced runs) ---------------------------------

/**
 * Replay requests [first, first+count) on one reused Engine with its
 * own program cache, as a pool worker runs them: run, then reset.
 */
void
replayRequests(const Workload &w, uint64_t first, uint64_t count,
               bool warm_cache, Tracer &tracer, LayerReport &lr)
{
    EngineConfig cfg;
    cfg.arch = Architecture::NoMap;
    CompiledProgramCache cache;
    Engine engine(cfg);
    Engine scratch(cfg);
    engine.setProgramCache(&cache);
    if (warm_cache) {
        for (const Script &p : w.programs) {
            engine.run(p.source);
            engine.reset();
        }
    }
    LayerTotals &l = lr.layers;
    double exec = 0, life = 0;
    for (uint64_t k = first; k < first + count; ++k) {
        std::string source = w.program(w.stream[k % w.stream.size()]).source;
        int64_t t0 = nowNs();
        EngineResult r = engine.run(source);
        int64_t t1 = nowNs();
        int32_t run = tracer.add("engine.run", t0, t1, -1, k);
        double replayed =
            replayRun(engine, source, r.programCacheHit, tracer, run, k, l);
        if (r.programCacheHit) {
            scratch.reset();
            uint64_t hash = CompiledProgramCache::hashSource(source);
            int64_t i0 = nowNs();
            auto program = cache.instantiate(hash, source, scratch.heap());
            int64_t i1 = nowNs();
            tracer.add("engine.cache_instantiate", i0, i1, run, k, true);
            l.instantiateSeconds += static_cast<double>(i1 - i0) * 1e-9;
            ++l.instantiates;
            life += static_cast<double>(i1 - i0) * 1e-9;
            replayed += static_cast<double>(i1 - i0) * 1e-9;
        }
        int64_t r0 = nowNs();
        engine.reset();
        int64_t r1 = nowNs();
        tracer.add("engine.reset", r0, r1, -1, k);
        l.resetSeconds += static_cast<double>(r1 - r0) * 1e-9;
        ++l.resets;
        life += static_cast<double>(r1 - r0) * 1e-9;
        exec += static_cast<double>(t1 - t0) * 1e-9 - replayed;
    }
    double n = static_cast<double>(std::max<uint64_t>(count, 1));
    lr.frontCompileSeconds =
        (l.parseSeconds + l.bytecodeSeconds + l.compileSeconds +
         (cfg.jitTier ? l.chainSeconds : 0)) / n;
    lr.execSeconds = exec / n;
    lr.lifecycleSeconds = life / n;
}

/** Mean us to encode and decode one request and its response. */
double
wireCodecUs(const Workload &w, uint64_t count)
{
    int64_t t0 = nowNs();
    for (uint64_t k = 0; k < count; ++k) {
        WireRequest request = wireRequest(w, k);
        std::string payload = encodeRequestPayload(request);
        WireRequest decoded;
        std::string error;
        decodeRequestPayload(payload, &decoded, &error);
        WireResponse response;
        response.id = request.id;
        response.resultString = w.expected[w.stream[k % w.stream.size()]].result;
        std::string out = frameMessage(encodeResponsePayload(response));
        FrameDecoder decoder;
        decoder.feed(out.data(), out.size());
        std::string frame;
        decoder.next(&frame, &error);
        WireResponse back;
        decodeResponsePayload(frame, &back, &error);
    }
    return static_cast<double>(nowNs() - t0) / 1e3 /
           static_cast<double>(std::max<uint64_t>(count, 1));
}

/**
 * The pass programs (pass_s.* for serving): all of serve-repeat's
 * (only the whole pool has the same size mix for every seed), the
 * first kPassPrograms of serve-distinct's alike scripts.
 */
size_t
passCount(const Workload &w)
{
    return w.distinct ? std::min(kPassPrograms, w.count) : w.count;
}

std::vector<PassItem>
passItems(const Workload &w)
{
    std::vector<PassItem> items;
    size_t n = passCount(w);
    for (size_t i = 0; i < n; ++i) {
        for (int slot = 0; slot < 2; ++slot) {
            PassItem item;
            item.script = &w.programs[i];
            item.arch = kArchs[slot];
            item.expected = slot == 0 ? w.expectedBase[i] : w.expected[i];
            items.push_back(item);
        }
    }
    return items;
}

} // namespace

void
runServe(const Options &opts, bool distinct, Report &report)
{
    int64_t t_start = nowNs();
    Workload w;
    w.distinct = distinct;
    w.tenants = balancedTenants();
    // Untraced runs are kRounds rounds of closed loop, open loop and
    // in-process passes. Pass times are medians over the passes of all
    // rounds; throughput and latencies, one sample per round, are those
    // of the best round: the host's stalls (bursts of ~100 ms that
    // delay every request in flight) only ever slow a round, and which
    // rounds they hit is chance. A traced run is one round whose closed
    // loop is half untraced, half traced.
    const int rounds = opts.trace ? 1 : kRounds;
    double closed_s = opts.seconds * 0.2 / rounds;
    double open_s = opts.seconds * 0.45 / rounds;
    double pass_budget = opts.seconds * 0.35 / rounds;
    double rate = kOpenLoopRate;
    // serve-distinct sends each script once: every phase owns a slice
    // of the stream. A closed-loop slice has room for
    // kClosedLoopCeiling requests a second; an open-loop slice holds
    // its exact count.
    size_t closed_n = static_cast<size_t>(closed_s * kClosedLoopCeiling);
    size_t open_n = static_cast<size_t>(open_s * rate) + 1;
    w.seed = opts.seed;
    if (distinct) {
        w.count = rounds * (closed_n + open_n);
        w.programs = distinctPrograms(opts.seed,
                                      std::min(kPassPrograms, w.count));
        for (size_t i = 0; i < 8; ++i)
            w.warmup.push_back(distinctProgram(opts.seed, w.count + i));
        for (uint32_t i = 0; i < w.count; ++i)
            w.stream.push_back(i);
    } else {
        w.programs = repeatPrograms(opts.seed);
        w.count = w.programs.size();
        w.warmup = w.programs;
        Rng rng(opts.seed ^ 0x73747265616dull);
        for (int i = 0; i < 1 << 16; ++i)
            w.stream.push_back(
                static_cast<uint32_t>(rng.below(w.programs.size())));
    }
    computeReference(w, w.count, Architecture::NoMap, &w.expected,
                     &w.reachesFtl);
    computeReference(w, passCount(w), Architecture::Base, &w.expectedBase,
                     nullptr);
    double reference_s = secondsSince(t_start);
    double reference_rss = peakRssMb();

    std::vector<PassItem> items = passItems(w);
    std::vector<double> pass_s[2];

    // Set-up: server construction, start(), connecting and the
    // warm-up (serve-repeat: every program once, which fills the
    // program caches; serve-distinct: a few scripts never timed).
    // The run keeps the first rig; every round starts with
    // kSetUpsPerRound more set-ups of spare servers that are torn down
    // unused. setup_s is the median of all of them, so it samples the
    // host's speed over the whole run.
    std::vector<double> setups;
    auto set_up = [&]() {
        int64_t t0 = nowNs();
        Rig fresh = setUp();
        warmUp(*fresh.client, w);
        setups.push_back(secondsSince(t0));
        return fresh;
    };
    auto tear_down = [](Rig &r) {
        r.client.reset();
        r.server->stop();
        r.server.reset();
    };
    Rig rig = set_up();

    // Stream position, and the start of the next phase's slice.
    uint64_t next = 0;
    uint64_t slice = 0;
    auto take_slice = [&](size_t n) -> uint64_t {
        if (!distinct)
            return ~0ull;
        next = std::max(next, slice);
        slice += n;
        return slice;
    };

    LayerReport lr;
    Tracer tracer;
    std::vector<double> throughput, p50, p90;
    Phase closed, open, total;
    size_t open_samples = 0;
    auto absorb = [&](const Phase &p) {
        report.attempted += p.sent;
        report.failed += p.failed;
        total.sent += p.sent;
        total.ok += p.ok;
        total.cacheHits += p.cacheHits;
        total.ftlRequests += p.ftlRequests;
        total.txCommits += p.txCommits;
        total.sendLagUs.insert(total.sendLagUs.end(), p.sendLagUs.begin(),
                               p.sendLagUs.end());
    };
    for (int r = 0; r < rounds; ++r) {
        for (int i = 0; i < kSetUpsPerRound; ++i) {
            Rig spare = set_up();
            tear_down(spare);
        }
        if (!opts.trace) {
            uint64_t limit = take_slice(closed_n);
            closed = closedLoop(*rig.client, w, &next, limit, closed_s,
                                report, nullptr);
            take_slice(open_n);
            open = openLoop(*rig.client, w, &next, open_s, rate, report);
            throughput.push_back(static_cast<double>(closed.ok) /
                                 closed.seconds);
            p50.push_back(percentile(open.latencyUs, 50));
            p90.push_back(percentile(open.latencyUs, 90));
            absorb(closed);
        } else {
            // Untraced and traced closed loops of equal length: their
            // throughput difference is the tracing overhead.
            uint64_t limit = take_slice(closed_n / 2);
            Phase untraced = closedLoop(*rig.client, w, &next, limit,
                                        closed_s / 2, report, nullptr);
            absorb(untraced);
            limit = take_slice(closed_n - closed_n / 2);
            closed = closedLoop(*rig.client, w, &next, limit, closed_s / 2,
                                report, &tracer);
            absorb(closed);
            take_slice(open_n);
            open = openLoop(*rig.client, w, &next, open_s, rate, report);
            double thr_u =
                static_cast<double>(untraced.ok) / untraced.seconds;
            double thr_t = static_cast<double>(closed.ok) / closed.seconds;
            lr.traceOverheadFrac = thr_u / thr_t - 1;
        }
        absorb(open);
        open_samples += open.latencyUs.size();
        // In-process passes over the workload's first programs.
        int64_t pass_start = nowNs();
        do {
            PassResult p = runPass(items, EngineConfig(), report);
            pass_s[0].push_back(p.seconds[0]);
            pass_s[1].push_back(p.seconds[1]);
        } while (secondsSince(pass_start) < pass_budget);
    }
    ShardedMetricsSnapshot server_metrics = rig.server->metrics();
    tear_down(rig);

    double hit_ratio = total.ok ? static_cast<double>(total.cacheHits) /
                                      static_cast<double>(total.ok)
                                : 0;
    double ftl_share = total.ok ? static_cast<double>(total.ftlRequests) /
                                      static_cast<double>(total.ok)
                                : 0;
    if (!distinct && (ftl_share == 0 || total.txCommits == 0)) {
        report.fail("serve-repeat never reached FTL or committed a "
                    "transaction: the serving path ran no NoMap code");
    }
    if (!distinct && hit_ratio < 0.99)
        report.fail("serve-repeat missed the program cache");
    if (distinct && hit_ratio > 0)
        report.fail("serve-distinct hit the program cache");

    report.note(strprintf(
        "%s: reference %.2fs for %zu programs (peak RSS %.1f MiB); %d "
        "round(s); %llu requests "
        "(open loop at %.0f/s, %zu latency samples); cache hit share "
        "%.4f, FTL request share %.4f, tx commits %llu; %zu passes",
        opts.workload.c_str(), reference_s, w.count, reference_rss, rounds,
        static_cast<unsigned long long>(total.sent), rate,
        open_samples,
        hit_ratio, ftl_share,
        static_cast<unsigned long long>(total.txCommits), pass_s[0].size()));

    if (!opts.trace) {
        report.add("pass_s.base", median(pass_s[0]), "s");
        report.add("pass_s.nomap", median(pass_s[1]), "s");
        report.add("throughput_rps",
                   *std::max_element(throughput.begin(), throughput.end()),
                   "1/s");
        report.add("latency_p50_ms",
                   *std::min_element(p50.begin(), p50.end()) / 1e3, "ms");
        report.add("latency_p90_ms",
                   *std::min_element(p90.begin(), p90.end()) / 1e3, "ms");
        report.add("setup_s", median(setups), "s");
        report.add("peak_rss_mb", peakRssMb(), "MiB");
        report.note(strprintf("open-loop send lag p99 %.3f ms",
                              percentile(total.sendLagUs, 99) / 1e3));
        std::string rounds_note = "per round: throughput, p50 ms, p90 ms";
        for (size_t r = 0; r < throughput.size(); ++r) {
            rounds_note += strprintf("; %.1f %.3f %.3f", throughput[r],
                                     p50[r] / 1e3, p90[r] / 1e3);
        }
        report.note(rounds_note);
        return;
    }

    // ---- Per-layer numbers --------------------------------------------
    lr.cacheHitRatio = hit_ratio;
    lr.ftlRequestShare = ftl_share;
    lr.sendLagMs = percentile(open.sendLagUs, 50) / 1e3;
    lr.latencyP99Ms = percentile(open.latencyUs, 99) / 1e3;
    const NetConnectionCounters &net = server_metrics.connections;
    lr.netBytesPerRequest =
        net.framesIn ? static_cast<double>(net.bytesIn + net.bytesOut) /
                           static_cast<double>(net.framesIn)
                     : 0;
    lr.deferredFrames = static_cast<double>(net.deferredFrames);

    // The traced closed loop's requests again, in process.
    uint64_t first = closed.first;
    uint64_t count = closed.sent;
    InProcess in = inProcess(w, first, count);
    report.attempted += count;
    report.failed += in.failed;
    if (in.failed)
        report.fail("in-process responses differ from the reference");
    lr.queueUs = in.queueUs;
    lr.execUs = in.execUs;
    uint64_t created = 0, reused = 0;
    for (const auto &shard : in.metrics.perShard) {
        lr.queueHighWater = std::max(
            lr.queueHighWater,
            static_cast<double>(shard.service.queueDepthHighWater));
        lr.retries += static_cast<double>(shard.service.retries);
        lr.shed += static_cast<double>(shard.shed);
        created += shard.service.enginesCreated;
        reused += shard.service.enginesReused;
    }
    lr.enginesReusedRatio =
        created + reused ? static_cast<double>(reused) /
                               static_cast<double>(created + reused)
                         : 0;
    lr.netOverheadUsP50 =
        percentile(closed.latencyUs, 50) - percentile(in.latencyUs, 50);
    lr.netEncodeUs = wireCodecUs(w, std::min<uint64_t>(count, 512));

    // Request path on one reused engine.
    uint64_t replays = std::min<uint64_t>(count, distinct ? 96 : 512);
    replayRequests(w, first, replays, !distinct, tracer, lr);
    lr.netSeconds =
        std::max(0.0, mean(closed.latencyUs) - mean(in.latencyUs)) * 1e-6;

    // The pass-based layers (execution, memsim, HTM) over the pass
    // programs, traced, plus one pass per execution tier.
    LayerTotals pass_layers;
    lr.pass = runPass(items, EngineConfig(), report, true, &tracer,
                      &pass_layers);
    lr.layers.constructSeconds = pass_layers.constructSeconds;
    lr.layers.constructs = pass_layers.constructs;
    reportLayers(items, lr, tracer, opts, report);
}

} // namespace nomap::perfbench
