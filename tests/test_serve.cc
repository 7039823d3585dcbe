/**
 * @file
 * Offload-service tests: protocol round trips and schema negatives,
 * daemon end-to-end over loopback TCP and Unix sockets (served report
 * equals a direct --stats-json run under the default statsdiff
 * ignores), per-request failure isolation (malformed JSON, unknown
 * workloads, oversized lines, client disconnects — the daemon
 * outlives them all), admission control, drain with idle connections,
 * plan-cache sharing across concurrent clients, the capacity/eviction
 * boundary, and a TSan-facing concurrent getOrCompile stress.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/compiler/plan_cache.hh"
#include "src/driver/config.hh"
#include "src/driver/runner.hh"
#include "src/driver/statsdiff.hh"
#include "src/driver/system.hh"
#include "src/serve/client.hh"
#include "src/serve/protocol.hh"
#include "src/serve/server.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"
#include "src/workloads/workload.hh"

using namespace distda;
using compiler::PlanCache;
using serve::ServeClient;
using serve::ServeOptions;
using serve::ServeRequest;
using serve::Server;

namespace
{

/** A small, fast request used throughout. */
ServeRequest
sampleRequest()
{
    ServeRequest req;
    req.id = 7;
    req.workload = "fdt";
    req.config.model = driver::parseArchModel("Dist-DA-IO");
    req.scale = 0.25;
    return req;
}

/** Start a loopback-TCP server on an ephemeral port. */
std::unique_ptr<Server>
startTcpServer(ServeOptions opts = ServeOptions{})
{
    opts.tcpPort = 0;
    auto server = std::make_unique<Server>(opts);
    server->start();
    EXPECT_GT(server->port(), 0);
    return server;
}

/** Connect a client to @p server (fatal test failure if it cannot). */
void
connectTo(const Server &server, ServeClient &client)
{
    std::string err;
    ASSERT_TRUE(client.connectTcp("", server.port(), err)) << err;
}

/** Issue one request line and parse the JSON response. */
sim::JsonValue
roundTrip(ServeClient &client, const std::string &line,
          int timeout_ms = 60'000)
{
    std::string response, err;
    EXPECT_TRUE(client.request(line, response, err, timeout_ms)) << err;
    sim::JsonValue doc;
    EXPECT_TRUE(sim::tryParseJson(response, doc, err)) << err;
    return doc;
}

bool
responseOk(const sim::JsonValue &doc)
{
    const sim::JsonValue *ok = doc.find("ok");
    return ok && ok->kind == sim::JsonValue::Kind::Bool && ok->b;
}

std::string
responseKind(const sim::JsonValue &doc)
{
    const sim::JsonValue *kind = doc.find("kind");
    return kind && kind->isString() ? kind->str : "";
}

/**
 * Compiled kernels to stress the cache with: every kernel of every
 * paper workload (the workloads own the kernels, so they ride along).
 */
struct KernelSet
{
    std::vector<std::unique_ptr<workloads::Workload>> owners;
    std::vector<std::unique_ptr<driver::System>> systems;
    std::vector<const compiler::Kernel *> kernels;
};

KernelSet
allKernels()
{
    KernelSet set;
    for (const std::string &name : workloads::workloadNames()) {
        auto wl = workloads::makeWorkload(name, 0.25);
        driver::SystemParams sp;
        sp.arenaBytes = wl->arenaBytes();
        driver::RunConfig cfg;
        sp.allocAffinity = cfg.allocAffinity();
        auto sys = std::make_unique<driver::System>(sp);
        wl->setup(*sys);
        for (const compiler::Kernel *k : wl->kernels())
            set.kernels.push_back(k);
        set.owners.push_back(std::move(wl));
        set.systems.push_back(std::move(sys));
    }
    return set;
}

} // namespace

// ---------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------

TEST(ServeProtocol, RequestLineRoundTripsExactly)
{
    ServeRequest req = sampleRequest();
    req.config.accelGHz = 2.0;
    req.config.disableCombining = true;
    req.probe = true;

    ServeRequest parsed;
    std::string err;
    ASSERT_TRUE(
        serve::parseServeRequest(serve::buildRequestLine(req), parsed,
                                 err))
        << err;
    EXPECT_EQ(parsed.id, req.id);
    EXPECT_EQ(parsed.workload, req.workload);
    EXPECT_EQ(parsed.config.model, req.config.model);
    EXPECT_EQ(parsed.config.accelGHz, req.config.accelGHz);
    EXPECT_EQ(parsed.config.disableCombining,
              req.config.disableCombining);
    EXPECT_EQ(parsed.scale, req.scale);
    EXPECT_EQ(parsed.probe, req.probe);
}

TEST(ServeProtocol, ConfigModelNameShorthandIsAccepted)
{
    ServeRequest parsed;
    std::string err;
    ASSERT_TRUE(serve::parseServeRequest(
        R"({"workload":"bfs","config":"Dist-DA-F"})", parsed, err))
        << err;
    EXPECT_EQ(parsed.config.model, driver::parseArchModel("Dist-DA-F"));
    EXPECT_EQ(parsed.scale, 1.0); // default
}

TEST(ServeProtocol, MalformedJsonReportsPosition)
{
    ServeRequest parsed;
    std::string err;
    EXPECT_FALSE(serve::parseServeRequest(R"({"workload": )", parsed,
                                          err));
    EXPECT_NE(err.find("offset"), std::string::npos) << err;
}

TEST(ServeProtocol, SchemaViolationsAreNamedErrors)
{
    const struct
    {
        const char *line;
        const char *fragment;
    } cases[] = {
        {R"([1,2,3])", "must be a JSON object"},
        {R"({"config":"Dist-DA-IO"})", "missing required 'workload'"},
        {R"({"workload":"fdt"})", "missing required 'config'"},
        {R"({"workload":"fdt","config":"NoSuchModel"})", "NoSuchModel"},
        {R"({"workload":"fdt","config":{"ghz":1}})",
         "missing required 'model'"},
        {R"({"workload":"fdt","config":"Dist-DA-IO","scale":0})",
         "'scale' must be > 0"},
        {R"({"workload":"fdt","config":"Dist-DA-IO","frobnicate":1})",
         "unknown request member 'frobnicate'"},
        {R"({"workload":"fdt","config":{"model":"Dist-DA-IO","x":1}})",
         "unknown config member 'x'"},
        {R"({"workload":"fdt",)"
         R"("config":{"model":"Dist-DA-IO","plan_cache":false}})",
         "unknown config member 'plan_cache'"},
        {R"({"id":-1,"workload":"fdt","config":"Dist-DA-IO"})",
         "non-negative integer"},
    };
    for (const auto &c : cases) {
        ServeRequest parsed;
        std::string err;
        EXPECT_FALSE(serve::parseServeRequest(c.line, parsed, err))
            << c.line;
        EXPECT_NE(err.find(c.fragment), std::string::npos)
            << c.line << " -> " << err;
    }
}

TEST(ServeProtocol, ErrorResponseEchoesIdAndKind)
{
    const std::string line =
        serve::buildErrorResponse(42, "parse", "bad things at offset 3");
    sim::JsonValue doc;
    std::string err;
    ASSERT_TRUE(sim::tryParseJson(line, doc, err)) << err;
    EXPECT_FALSE(responseOk(doc));
    EXPECT_EQ(doc.find("id")->num, 42.0);
    EXPECT_EQ(responseKind(doc), "parse");
}

// ---------------------------------------------------------------------
// Daemon end-to-end
// ---------------------------------------------------------------------

TEST(ServeServer, ServesARequestAndReportMatchesDirectRun)
{
    auto server = startTcpServer();
    ServeClient client;
    connectTo(*server, client);

    ServeRequest req = sampleRequest();
    req.probe = true;
    const sim::JsonValue doc =
        roundTrip(client, serve::buildRequestLine(req));
    ASSERT_TRUE(responseOk(doc));
    EXPECT_EQ(doc.find("id")->num, 7.0);
    const sim::JsonValue *report = doc.find("report");
    ASSERT_NE(report, nullptr);
    ASSERT_TRUE(report->isObject());

    // The same offload run, driven directly through the runner.
    driver::RunOptions ro;
    ro.scale = req.scale;
    ro.obs.forceProbe = true;
    std::string direct_report;
    ro.obs.reportOut = &direct_report;
    driver::runWorkload(req.workload, req.config, ro);

    sim::JsonValue direct;
    std::string err;
    ASSERT_TRUE(sim::tryParseJson(direct_report, direct, err)) << err;

    driver::StatsDiffOptions diff_opts;
    diff_opts.ignoreSubstrings = driver::defaultIgnoreSubstrings();
    const driver::StatsDiff diff =
        driver::diffReports(direct, *report, diff_opts);
    EXPECT_TRUE(diff.pass())
        << driver::renderDiff(diff, diff_opts, "direct", "served");
    EXPECT_GT(diff.compared, 0u);
    EXPECT_EQ(diff.onlyA, 0u);
    EXPECT_EQ(diff.onlyB, 0u);

    server->stop();
    EXPECT_EQ(server->stats().served, 1u);
}

TEST(ServeServer, UnixSocketTransportWorks)
{
    const std::string path =
        "/tmp/distda_serve_test_" + std::to_string(::getpid()) +
        ".sock";
    ServeOptions opts;
    opts.socketPath = path;
    Server server(opts);
    server.start();

    ServeClient client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(path, err)) << err;
    const sim::JsonValue doc =
        roundTrip(client, serve::buildRequestLine(sampleRequest()));
    EXPECT_TRUE(responseOk(doc));

    server.stop();
    // The socket file is unlinked on shutdown.
    EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(ServeServer, MalformedRequestsGetErrorRepliesAndDaemonSurvives)
{
    auto server = startTcpServer();
    ServeClient client;
    connectTo(*server, client);

    // Broken JSON → parse error with a position, same connection.
    sim::JsonValue doc = roundTrip(client, R"({"workload": })");
    EXPECT_FALSE(responseOk(doc));
    EXPECT_EQ(responseKind(doc), "parse");
    EXPECT_NE(doc.find("error")->str.find("offset"), std::string::npos);

    // Unknown workload → request error.
    doc = roundTrip(client,
                    R"({"workload":"nope","config":"Dist-DA-IO"})");
    EXPECT_FALSE(responseOk(doc));
    EXPECT_EQ(responseKind(doc), "request");
    EXPECT_NE(doc.find("error")->str.find("nope"), std::string::npos);

    // Excessive scale → request error (admission-controlled knob).
    doc = roundTrip(
        client, R"({"workload":"fdt","config":"Dist-DA-IO","scale":99})");
    EXPECT_FALSE(responseOk(doc));
    EXPECT_EQ(responseKind(doc), "request");

    // The daemon still serves real work on the very same connection.
    doc = roundTrip(client, serve::buildRequestLine(sampleRequest()));
    EXPECT_TRUE(responseOk(doc));

    server->stop();
    EXPECT_EQ(server->stats().errors, 3u);
    EXPECT_EQ(server->stats().served, 1u);
}

TEST(ServeServer, OversizedRequestLineIsRejected)
{
    ServeOptions opts;
    opts.maxRequestBytes = 512; // a normal request line still fits
    auto server = startTcpServer(opts);
    ServeClient client;
    connectTo(*server, client);

    const std::string huge(1024, 'x');
    const sim::JsonValue doc = roundTrip(client, huge);
    EXPECT_FALSE(responseOk(doc));
    EXPECT_EQ(responseKind(doc), "oversize");

    // Oversize closes the connection; a fresh one still works.
    ServeClient fresh;
    connectTo(*server, fresh);
    EXPECT_TRUE(responseOk(
        roundTrip(fresh, serve::buildRequestLine(sampleRequest()))));
    server->stop();
}

TEST(ServeServer, ClientDisconnectDoesNotKillTheDaemon)
{
    auto server = startTcpServer();
    {
        // Send a valid request and hang up without reading the reply.
        ServeClient rude;
        connectTo(*server, rude);
        std::string err;
        ASSERT_TRUE(rude.sendLine(
            serve::buildRequestLine(sampleRequest()), err))
            << err;
        ::shutdown(rude.fd(), SHUT_RDWR);
        rude.disconnect();
    }
    // The daemon outlives the rudeness and serves the next client.
    ServeClient polite;
    connectTo(*server, polite);
    EXPECT_TRUE(responseOk(
        roundTrip(polite, serve::buildRequestLine(sampleRequest()))));
    server->stop();
}

TEST(ServeServer, BusyRejectionWhenAdmissionBoundIsReached)
{
    ServeOptions opts;
    opts.maxConnections = 0; // everything is over the bound
    auto server = startTcpServer(opts);

    ServeClient client;
    connectTo(*server, client);
    std::string response, err;
    ASSERT_TRUE(client.recvLine(response, err, 10'000)) << err;
    sim::JsonValue doc;
    ASSERT_TRUE(sim::tryParseJson(response, doc, err)) << err;
    EXPECT_FALSE(responseOk(doc));
    EXPECT_EQ(responseKind(doc), "busy");

    server->stop();
    EXPECT_GE(server->stats().busyRejected, 1u);
}

TEST(ServeServer, DrainReturnsWithAnIdleConnectionOpen)
{
    auto server = startTcpServer();
    ServeClient idle;
    connectTo(*server, idle);
    // Give the accept thread a moment to hand the connection off.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server->stop(); // must not hang on the idle reader
    std::string response, err;
    EXPECT_FALSE(idle.recvLine(response, err, 5'000));
}

TEST(ServeServer, ConcurrentClientsShareTheCachedPlan)
{
    PlanCache &cache = PlanCache::process();
    cache.clear();

    ServeOptions opts;
    opts.jobs = 4;
    auto server = startTcpServer(opts);

    constexpr int kClients = 4;
    constexpr int kRequestsEach = 2;
    std::atomic<int> ok_count{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&server, &ok_count] {
            ServeClient client;
            std::string err;
            if (!client.connectTcp("", server->port(), err))
                return;
            for (int r = 0; r < kRequestsEach; ++r) {
                std::string response;
                if (!client.request(
                        serve::buildRequestLine(sampleRequest()),
                        response, err, 60'000))
                    return;
                sim::JsonValue doc;
                if (sim::tryParseJson(response, doc, err) &&
                    responseOk(doc))
                    ok_count.fetch_add(1);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    server->stop();

    EXPECT_EQ(ok_count.load(), kClients * kRequestsEach);

    // All requests ran the same (workload, config): one cache entry
    // per kernel, compiled once, hit by everyone else.
    const auto wl = workloads::makeWorkload("fdt", 0.25);
    const PlanCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, wl->kernels().size());
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GE(stats.hits + stats.misses,
              static_cast<std::uint64_t>(kClients * kRequestsEach));
}

// ---------------------------------------------------------------------
// PlanCache semantics the service depends on
// ---------------------------------------------------------------------

TEST(ServePlanCache, CapacityBoundEvictsOldestAndCountsEvictions)
{
    KernelSet set = allKernels();
    ASSERT_GE(set.kernels.size(), 3u);
    const compiler::CompileOptions opts;

    PlanCache cache;
    cache.setCapacity(2);
    EXPECT_EQ(cache.stats().capacity, 2u);

    // Fill to capacity, then one more: the oldest entry must go.
    EXPECT_FALSE(cache.getOrCompile(*set.kernels[0], opts).hit);
    EXPECT_FALSE(cache.getOrCompile(*set.kernels[1], opts).hit);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_FALSE(cache.getOrCompile(*set.kernels[2], opts).hit);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    // FIFO: kernel 0 was evicted, kernels 1 and 2 still hit.
    EXPECT_TRUE(cache.getOrCompile(*set.kernels[1], opts).hit);
    EXPECT_TRUE(cache.getOrCompile(*set.kernels[2], opts).hit);
    EXPECT_FALSE(cache.getOrCompile(*set.kernels[0], opts).hit);

    // Shrinking below the live count evicts immediately.
    cache.setCapacity(1);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_GE(cache.stats().evictions, 3u);

    // Capacity clamps at one entry minimum.
    cache.setCapacity(0);
    EXPECT_EQ(cache.stats().capacity, 1u);
}

TEST(ServePlanCache, ConcurrentGetOrCompileIsRaceFree)
{
    KernelSet set = allKernels();
    ASSERT_GE(set.kernels.size(), 3u);
    const compiler::CompileOptions opts;

    PlanCache cache;
    cache.setCapacity(std::max<std::size_t>(
        2, set.kernels.size() / 2)); // force eviction churn

    constexpr int kThreads = 8;
    constexpr int kIters = 24;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                const compiler::Kernel &k =
                    *set.kernels[(t + i) % set.kernels.size()];
                const PlanCache::Lookup lookup =
                    cache.getOrCompile(k, opts);
                if (!lookup.plan || lookup.plan->kernel.name != k.name)
                    failures.fetch_add(1);
                if (i % 8 == 0)
                    (void)cache.stats();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(cache.stats().hits + cache.stats().misses,
              static_cast<std::uint64_t>(kThreads) * kIters);
}
