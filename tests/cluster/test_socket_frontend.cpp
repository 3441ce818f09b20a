// Socket front-end smoke: real loopback TCP round trips through the cluster
// router — token parity with a direct submit, concurrent clients, 429
// backpressure on the wire, request-level errors that keep the connection
// alive, frames larger than the socket buffers, and round trips that cost
// the work rather than TCP's delayed-ACK timer.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/slo_controller.hpp"
#include "cluster/socket_frontend.hpp"
#include "common/check.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"
#include "runtime/serve.hpp"

namespace efld::cluster {
namespace {

runtime::ClusterDeployment deploy(ClusterOptions opts) {
    opts.shard.sampler.temperature = 0.0f;  // deterministic
    return runtime::synthetic_cluster(model::ModelConfig::micro_256(), 42, opts);
}

// Lower quartile (nearest rank) of a non-empty sample.
double lower_quartile(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 4];
}

TEST(SocketFrontend, RoundTripOverLoopback) {
    ClusterOptions opts;
    opts.shards = 2;
    runtime::ClusterDeployment d = deploy(opts);
    d.router->start();
    SocketServer server(*d.router);  // port 0: ephemeral
    server.start();
    ASSERT_GT(server.port(), 0u);

    SocketClient client("127.0.0.1", server.port());
    wire::WireRequest req;
    req.prompt = "hello socket";
    req.max_new_tokens = 8;
    const wire::WireResponse resp = client.request(req);
    ASSERT_EQ(resp.status, wire::Status::kOk);
    EXPECT_EQ(resp.tokens.size(), 8u);
    EXPECT_EQ(static_cast<serve::FinishReason>(resp.finish_reason),
              serve::FinishReason::kBudget);
    EXPECT_FALSE(resp.text.empty());

    // Parity: the same prompt submitted directly produces the same tokens —
    // the wire added transport, not semantics.
    runtime::RequestHandle direct = d.router->submit(
        runtime::ServeRequest{.prompt = "hello socket", .max_new_tokens = 8});
    EXPECT_EQ(direct.get().tokens, resp.tokens);
    EXPECT_EQ(direct.get().text, resp.text);

    EXPECT_EQ(server.requests_served(), 1u);
    server.stop();
    d.router->stop();
}

TEST(SocketFrontend, ConcurrentClientsAllServed) {
    ClusterOptions opts;
    opts.shards = 2;
    runtime::ClusterDeployment d = deploy(opts);
    d.router->start();
    SocketServer server(*d.router);
    server.start();

    constexpr int kClients = 3;
    constexpr int kPerClient = 2;
    std::vector<std::thread> clients;
    std::vector<int> ok_counts(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            SocketClient client("127.0.0.1", server.port());
            for (int r = 0; r < kPerClient; ++r) {
                wire::WireRequest req;
                req.prompt = "client " + std::to_string(c) + " req " +
                             std::to_string(r);
                req.max_new_tokens = 5;
                const wire::WireResponse resp = client.request(req);
                if (resp.status == wire::Status::kOk &&
                    resp.tokens.size() == 5u) {
                    ++ok_counts[c];
                }
            }
        });
    }
    for (auto& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) EXPECT_EQ(ok_counts[c], kPerClient);
    EXPECT_EQ(server.requests_served(),
              static_cast<std::size_t>(kClients * kPerClient));
    server.stop();
    d.router->stop();
}

TEST(SocketFrontend, SaturatedClusterAnswers429OnTheWire) {
    ClusterOptions opts;
    opts.shards = 1;
    opts.shard.max_queue = 1;
    runtime::ClusterDeployment d = deploy(opts);
    // Router NOT started: the one queue slot fills and stays full, so the
    // second request deterministically sees a saturated cluster.
    SocketServer server(*d.router);
    server.start();

    // First request occupies the queue; its handler blocks on the future.
    std::thread first([&] {
        SocketClient client("127.0.0.1", server.port());
        const wire::WireResponse resp = client.request(
            wire::WireRequest{.prompt = "first", .max_new_tokens = 4});
        EXPECT_EQ(resp.status, wire::Status::kOk);
        EXPECT_EQ(resp.tokens.size(), 4u);
    });
    while (d.router->stats().queued() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    SocketClient client("127.0.0.1", server.port());
    const wire::WireResponse rejected = client.request(
        wire::WireRequest{.prompt = "second", .max_new_tokens = 4});
    EXPECT_EQ(rejected.status, wire::Status::kRejected);
    EXPECT_GT(rejected.retry_ms, 0u);

    d.router->start();  // unblocks the first handler
    first.join();
    // After draining, the same connection's retry succeeds — 429 was
    // transient.
    const wire::WireResponse retry = client.request(
        wire::WireRequest{.prompt = "second", .max_new_tokens = 4});
    EXPECT_EQ(retry.status, wire::Status::kOk);
    server.stop();
    d.router->stop();
}

TEST(SocketFrontend, UnservableRequestGetsErrorAndConnectionSurvives) {
    ClusterOptions opts;
    opts.shards = 1;
    runtime::ClusterDeployment d = deploy(opts);
    d.router->start();
    SocketServer server(*d.router);
    server.start();

    SocketClient client("127.0.0.1", server.port());
    // micro-256's context window is 64 tokens: a 200-byte prompt cannot fit,
    // which is the request's fault, not the transport's.
    wire::WireRequest oversized;
    oversized.prompt = std::string(200, 'x');
    oversized.max_new_tokens = 4;
    const wire::WireResponse err = client.request(oversized);
    EXPECT_EQ(err.status, wire::Status::kError);
    EXPECT_FALSE(err.error.empty());

    // Same connection, valid request: still served.
    const wire::WireResponse ok = client.request(
        wire::WireRequest{.prompt = "still alive", .max_new_tokens = 3});
    EXPECT_EQ(ok.status, wire::Status::kOk);
    EXPECT_EQ(ok.tokens.size(), 3u);
    server.stop();
    d.router->stop();
}

TEST(SocketFrontend, MetricsScrapeMatchesClusterStats) {
    ClusterOptions opts;
    opts.shards = 2;
    runtime::ClusterDeployment d = deploy(opts);
    d.router->start();
    SocketServer server(*d.router);
    server.start();

    SocketClient client("127.0.0.1", server.port());
    constexpr std::size_t kRequests = 3;
    for (std::size_t r = 0; r < kRequests; ++r) {
        const wire::WireResponse resp = client.request(wire::WireRequest{
            .prompt = "scrape " + std::to_string(r), .max_new_tokens = 4});
        ASSERT_EQ(resp.status, wire::Status::kOk);
    }
    d.router->drain();

    // Same connection, kind-1 frame: the Prometheus body must parse and its
    // counters must agree with the router's own stats exactly.
    const std::string body = client.metrics();
    const std::map<std::string, double> parsed = obs::parse_prometheus(body);
    const runtime::ClusterStats cs = d.router->stats();
    EXPECT_DOUBLE_EQ(parsed.at("serve_requests_completed"),
                     static_cast<double>(cs.requests_completed()));
    EXPECT_DOUBLE_EQ(parsed.at("serve_generated_tokens"),
                     static_cast<double>(cs.generated_tokens()));
    EXPECT_DOUBLE_EQ(parsed.at("cluster_shards"), 2.0);
    EXPECT_DOUBLE_EQ(parsed.at("cluster_healthy_shards"), 2.0);
    EXPECT_DOUBLE_EQ(parsed.at("serve_ttft_ns_count"),
                     static_cast<double>(kRequests));

    // The JSON format answers on the same connection too.
    const std::string json = client.metrics(wire::MetricsFormat::kJson);
    EXPECT_NE(json.find("\"serve_requests_completed\":3"), std::string::npos);

    // Scrapes do not count as served generate requests, and the connection
    // still serves generate traffic afterwards.
    EXPECT_EQ(server.requests_served(), kRequests);
    const wire::WireResponse after = client.request(
        wire::WireRequest{.prompt = "after scrape", .max_new_tokens = 2});
    EXPECT_EQ(after.status, wire::Status::kOk);
    server.stop();
    d.router->stop();
}

TEST(SocketFrontend, TraceDumpReturnsPerfettoJsonOverTheWire) {
    ClusterOptions opts;
    opts.shards = 2;
    opts.shard.trace = std::make_shared<obs::TraceRecorder>(1024);
    opts.shard.profile = true;
    runtime::ClusterDeployment d = deploy(opts);
    d.router->start();
    SocketServer server(*d.router);
    server.start();

    SocketClient client("127.0.0.1", server.port());
    const wire::WireResponse resp = client.request(
        wire::WireRequest{.prompt = "trace me", .max_new_tokens = 4});
    ASSERT_EQ(resp.status, wire::Status::kOk);
    d.router->drain();

    // Kind-2 frame: the body is the cluster's merged Perfetto JSON — the
    // request's lifecycle instants plus the serving shard's phase slices.
    const std::string json = client.trace_dump();
    EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"submitted\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"first_token\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"phase\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);

    // A trace dump is not a served generate request, and the connection
    // still serves generate traffic afterwards.
    EXPECT_EQ(server.requests_served(), 1u);
    const wire::WireResponse after = client.request(
        wire::WireRequest{.prompt = "after trace", .max_new_tokens = 2});
    EXPECT_EQ(after.status, wire::Status::kOk);
    server.stop();
    d.router->stop();
}

TEST(SocketFrontend, AlertsAndQueryAnswerWhenSloControllerAttached) {
    ClusterOptions opts;
    opts.shards = 2;
    opts.shard.trace = std::make_shared<obs::TraceRecorder>(1024);
    runtime::ClusterDeployment d = deploy(opts);
    d.router->start();

    SloController::Options so;
    so.rules = "deep=threshold:cluster_shards:gt:1:0";  // true for 2 shards
    SloController slo(*d.router, so);
    slo.sample_now();  // gauges store immediately: the rule fires now

    SocketServer server(*d.router);
    server.set_slo(&slo);
    server.start();
    SocketClient client("127.0.0.1", server.port());

    // kind-3: the alert engine's rules + timeline.
    const std::string alerts = client.alerts();
    EXPECT_NE(alerts.find("\"name\":\"deep\""), std::string::npos);
    EXPECT_NE(alerts.find("\"state\":\"firing\""), std::string::npos);

    // kind-4: one TSDB series' tail, default window.
    const std::string q = client.query("cluster_shards");
    EXPECT_NE(q.find("\"series\":\"cluster_shards\""), std::string::npos);
    EXPECT_NE(q.find("\"points\":[["), std::string::npos);
    const std::string windowed = client.query("cluster_shards", 60'000);
    EXPECT_NE(windowed.find("\"points\":[["), std::string::npos);

    // With a controller attached, the kMetrics scrape body grows the alert
    // and TSDB series — still valid Prometheus.
    const std::map<std::string, double> parsed =
        obs::parse_prometheus(client.metrics());
    EXPECT_DOUBLE_EQ(parsed.at("serve_alerts_firing"), 1.0);
    EXPECT_DOUBLE_EQ(parsed.at("serve_alert_state_deep"), 2.0);
    EXPECT_GE(parsed.at("slo_tsdb_ingests_total"), 1.0);

    // Observability frames are not generate requests; the connection still
    // serves traffic afterwards.
    EXPECT_EQ(server.requests_served(), 0u);
    const wire::WireResponse after = client.request(
        wire::WireRequest{.prompt = "after alerts", .max_new_tokens = 2});
    EXPECT_EQ(after.status, wire::Status::kOk);
    server.stop();
    d.router->stop();
}

TEST(SocketFrontend, AlertsWithoutSloControllerIsRequestError) {
    ClusterOptions opts;
    opts.shards = 1;
    runtime::ClusterDeployment d = deploy(opts);
    d.router->start();
    SocketServer server(*d.router);  // no set_slo
    server.start();
    SocketClient client("127.0.0.1", server.port());

    // A config error answers status-2 on that frame; the link survives.
    EXPECT_THROW((void)client.alerts(), efld::Error);
    EXPECT_THROW((void)client.query("serve_queue_depth"), efld::Error);
    const wire::WireResponse after = client.request(
        wire::WireRequest{.prompt = "still alive", .max_new_tokens = 2});
    EXPECT_EQ(after.status, wire::Status::kOk);
    server.stop();
    d.router->stop();
}

TEST(SocketFrontend, StopJoinsCleanlyWithIdleConnections) {
    ClusterOptions opts;
    opts.shards = 1;
    runtime::ClusterDeployment d = deploy(opts);
    d.router->start();
    SocketServer server(*d.router);
    server.start();
    SocketClient idle("127.0.0.1", server.port());  // connects, never sends
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.stop();  // must shutdown the idle connection and join its handler
    EXPECT_FALSE(server.running());
    server.stop();  // idempotent
    d.router->stop();
}

TEST(SocketFrontend, SmallRoundTripsDoNotWaitOnDelayedAck) {
    ClusterOptions opts;
    opts.shards = 1;
    runtime::ClusterDeployment d = deploy(opts);
    d.router->start();
    SocketServer server(*d.router);
    server.start();
    SocketClient client("127.0.0.1", server.port());

    // The same 1-token requests over the socket and straight into the
    // router, interleaved so both sides see the same host load. A frame held
    // back by Nagle until the peer's delayed ACK fires costs >= 40 ms on
    // Linux; the socket may add transport, not a timer. One-byte prompts keep
    // the engine time small next to that timer. The timer is a floor under
    // every stalled round trip, so it lifts every quantile; the lower
    // quartile is compared because scheduler noise only ever adds time, and
    // under TSan with a parallel ctest it moved the medians by +-25 ms.
    using Clock = std::chrono::steady_clock;
    const auto ms_since = [](Clock::time_point t0) {
        return std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    };
    constexpr int kRequests = 20;
    std::vector<double> socket_ms;
    std::vector<double> inproc_ms;
    for (int i = 0; i < kRequests; ++i) {
        const std::string prompt(1, static_cast<char>('a' + i));
        Clock::time_point t0 = Clock::now();
        const wire::WireResponse resp = client.request(
            wire::WireRequest{.prompt = prompt, .max_new_tokens = 1});
        socket_ms.push_back(ms_since(t0));
        ASSERT_EQ(resp.status, wire::Status::kOk);
        ASSERT_EQ(resp.tokens.size(), 1u);

        t0 = Clock::now();
        runtime::RequestHandle direct = d.router->submit(
            runtime::ServeRequest{.prompt = prompt, .max_new_tokens = 1});
        EXPECT_EQ(direct.get().tokens, resp.tokens);
        inproc_ms.push_back(ms_since(t0));
    }
    const double socket_q1 = lower_quartile(socket_ms);
    const double inproc_q1 = lower_quartile(inproc_ms);
    EXPECT_LT(socket_q1 - inproc_q1, 20.0)
        << "socket q1 " << socket_q1 << " ms vs in-process q1 " << inproc_q1
        << " ms";
    server.stop();
    d.router->stop();
}

TEST(SocketFrontend, MultiMebibyteFramesCrossWholeAndLinkStaysInStep) {
    ClusterOptions opts;
    opts.shards = 1;
    runtime::ClusterDeployment d = deploy(opts);
    d.router->start();
    SloController slo(*d.router, SloController::Options{});
    SocketServer server(*d.router);
    server.set_slo(&slo);
    server.start();
    SocketClient client("127.0.0.1", server.port());

    // 6 MiB frames: larger than the loopback send buffer (4 MiB at most), so
    // each leaves in several partial sends, yet under kMaxFrameBytes.
    constexpr std::size_t kBig = 6u << 20;

    // A prompt far past micro-256's 64-token window: a server that read the
    // whole frame answers with the context-window error — a torn frame
    // would fail to decode instead.
    wire::WireRequest huge;
    huge.prompt = std::string(kBig, 'x');
    huge.max_new_tokens = 4;
    ASSERT_LT(wire::encode_request(huge).size(), wire::kMaxFrameBytes);
    const wire::WireResponse err = client.request(huge);
    EXPECT_EQ(err.status, wire::Status::kError);
    EXPECT_NE(err.error.find("context window"), std::string::npos) << err.error;

    // Byte-exact in both directions: the server echoes a query's series name
    // in its reply, so a resent or skipped chunk on either side shows up as
    // a mismatch. The name is aperiodic so a misplaced chunk cannot match.
    std::string series(kBig, 'a');
    std::uint32_t x = 12345;
    for (char& c : series) {
        x = x * 1664525u + 1013904223u;
        c = static_cast<char>('a' + (x >> 24) % 26);
    }
    const std::string body = client.query(series);
    const std::string expected =
        "{\"series\":\"" + series + "\",\"points\":[]}";
    EXPECT_TRUE(body == expected)  // not EXPECT_EQ: it would print 12 MiB
        << "the " << body.size() << "-byte reply differs from the expected "
        << expected.size() << " bytes";

    // Same connection: the next frame starts exactly where the big ones
    // ended.
    const wire::WireResponse ok = client.request(
        wire::WireRequest{.prompt = "after the big ones", .max_new_tokens = 3});
    ASSERT_EQ(ok.status, wire::Status::kOk);
    runtime::RequestHandle direct = d.router->submit(runtime::ServeRequest{
        .prompt = "after the big ones", .max_new_tokens = 3});
    EXPECT_EQ(direct.get().tokens, ok.tokens);
    server.stop();
    d.router->stop();
}

TEST(SocketFrontend, OversizedResponsePrefixDisconnectsTheClient) {
    // A raw listener standing in for a broken server: it answers any
    // request with the length prefix 0xFFFFFFFF, past kMaxFrameBytes.
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t addr_len = sizeof(addr);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &addr_len),
              0);

    bool peer_saw_eof = false;
    std::thread peer([&] {
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) return;
        std::uint8_t buf[256];
        if (::recv(fd, buf, sizeof(buf), 0) > 0) {
            const std::uint8_t bogus[4] = {0xff, 0xff, 0xff, 0xff};
            (void)::send(fd, bogus, sizeof(bogus), MSG_NOSIGNAL);
            // The client must hang up: drain until EOF, bounded.
            pollfd p{fd, POLLIN, 0};
            while (::poll(&p, 1, 5000) == 1) {
                const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
                if (r <= 0) {
                    peer_saw_eof = r == 0;
                    break;
                }
            }
        }
        ::close(fd);
    });

    SocketClient client("127.0.0.1", ntohs(addr.sin_port));
    EXPECT_THROW((void)client.request(
                     wire::WireRequest{.prompt = "hi", .max_new_tokens = 1}),
                 efld::Error);
    // The unread payload would otherwise be parsed as the next frame.
    EXPECT_FALSE(client.connected());
    peer.join();
    EXPECT_TRUE(peer_saw_eof);
    ::close(lfd);
}

}  // namespace
}  // namespace efld::cluster
