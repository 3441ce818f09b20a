// TCP front-end over the cluster router: the piece that turns the sharded
// serving cluster into a network service.
//
// SocketServer listens on a loopback/any-interface TCP port, reads
// length-prefixed wire::WireRequest frames (one connection per client, one
// in-flight request per connection), routes each through
// ClusterRouter::try_submit, and writes back a wire::WireResponse:
//
//   ok       — the request ran to retirement; tokens + decoded text.
//   rejected — every shard was saturated (429): retry_ms tells the client
//              when to come back. Nothing was enqueued.
//   error    — the request itself is unservable (empty prompt, context
//              overflow, demand past every pool). The connection survives —
//              a bad request is the client's problem, not the transport's.
//   metrics  — the reply to a kind-1 (metrics) request: the cluster's
//              merged metrics snapshot as Prometheus text or JSON
//              (ClusterRouter::metrics_snapshot → obs exposition). Served
//              inline on the same connection; scrapes interleave with
//              generate traffic from other connections.
//   trace    — the reply to a kind-2 (trace) request: the cluster timeline
//              as Chrome-trace-event JSON (ClusterRouter::trace_json →
//              obs/perfetto_export), loadable in ui.perfetto.dev.
//
// Threading: one acceptor thread plus one handler thread per connection. A
// handler blocks on its request's future, so concurrency across clients
// comes from concurrent connections — which is exactly the load shape the
// router's placement policies are built for. Start the router before
// serving traffic (requests submitted earlier queue until the shard drivers
// run).
//
// SocketClient is the matching blocking client: connect once, request() per
// round trip — or request_with_retry(), which reconnects on connection loss
// and backs off (capped exponential, seeded jitter, honoring the server's
// 429 retry hint) until the request lands or the attempt budget runs out.
// Both ends enforce I/O timeouts so one stalled peer can never wedge a
// thread forever. Both ends also set TCP_NODELAY and write each frame as one
// gathered sendmsg, so a round trip costs the work, never the peer's
// delayed-ACK timer. POSIX-only (Linux CI / deployment target).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_router.hpp"
#include "cluster/slo_controller.hpp"
#include "cluster/wire.hpp"
#include "common/rng.hpp"

namespace efld::cluster {

class SocketServer {
public:
    struct Options {
        // Bind address. Loopback by default — the wire protocol is
        // unauthenticated, so exposing it beyond the host is an explicit
        // decision ("0.0.0.0" to listen on every interface).
        std::string host = "127.0.0.1";
        std::uint16_t port = 0;  // 0 = ephemeral; read the bound port()
        int backlog = 16;
        std::size_t max_frame_bytes = wire::kMaxFrameBytes;
        // Per-connection I/O timeouts (0 = wait forever). io_timeout_ms
        // bounds every mid-frame read and every write: a peer that stalls
        // half way through a frame loses the connection instead of pinning a
        // handler thread. idle_timeout_ms separately bounds the wait for the
        // NEXT frame's length prefix — idle-between-requests is normal, so
        // it defaults to unbounded (stop() still kicks idle handlers via
        // shutdown()).
        std::uint32_t io_timeout_ms = 5000;
        std::uint32_t idle_timeout_ms = 0;
    };

    // Binds and listens immediately (so port() is valid before start());
    // throws efld::Error when the socket/bind/listen fails. Non-owning of the
    // router, which must outlive the server.
    explicit SocketServer(ClusterRouter& router)
        : SocketServer(router, Options{}) {}
    SocketServer(ClusterRouter& router, Options opts);
    ~SocketServer();

    // Attaches the SLO control plane (non-owning; must outlive the server).
    // With a controller set, kMetrics scrapes include the serve_alert_*/slo_*
    // series and the kAlerts/kQuery frames are answered; without one those
    // frames get a status-2 error. Set before start().
    void set_slo(SloController* slo) noexcept { slo_ = slo; }

    SocketServer(const SocketServer&) = delete;
    SocketServer& operator=(const SocketServer&) = delete;

    // Starts the acceptor thread. Throws if already started.
    void start();
    // Shuts the listener and every live connection down and joins all
    // threads. Idempotent. A handler blocked on an in-flight request
    // cancels it and abandons the connection without a response — the
    // request retires on its shard (as cancelled) whenever the router's
    // drivers next reach a token boundary; stop() never waits for decode.
    void stop();

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
    [[nodiscard]] bool running() const noexcept {
        return running_.load(std::memory_order_acquire);
    }
    // Generate-kind responses written (ok/rejected/error). Metrics scrapes
    // are not counted — the counter stays comparable with the cluster's
    // requests_completed.
    [[nodiscard]] std::size_t requests_served() const noexcept {
        return served_.load(std::memory_order_acquire);
    }

private:
    void accept_loop(int lfd);
    void serve_connection(std::size_t conn_index, int fd);

    ClusterRouter& router_;
    Options opts_;
    SloController* slo_ = nullptr;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread acceptor_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<std::size_t> served_{0};
    // Live connections: fd slots flip to -1 when their handler exits, so
    // stop() can shutdown() stragglers without racing fd reuse.
    std::mutex conn_mu_;
    std::vector<std::thread> conn_threads_;
    std::vector<int> conn_fds_;
};

// Blocking client for the wire protocol. One request in flight at a time.
class SocketClient {
public:
    struct Options {
        // Connection-establishment and per-transfer bounds (0 = block
        // forever, the pre-timeout behavior).
        std::uint32_t connect_timeout_ms = 5000;
        std::uint32_t io_timeout_ms = 5000;
        // request_with_retry(): total attempts (first try included), and the
        // capped exponential backoff between them. The actual sleep before
        // attempt k is jittered uniformly in [d/2, d] with
        // d = min(backoff_cap_ms, backoff_base_ms << (k-1)) — seeded, so a
        // fleet of clients retrying the same outage does not stampede in
        // lockstep, and a test run replays the same schedule. A server 429's
        // retry_ms hint raises the sleep floor when it is larger.
        std::size_t max_attempts = 5;
        std::uint32_t backoff_base_ms = 10;
        std::uint32_t backoff_cap_ms = 1000;
        std::uint64_t jitter_seed = 0x5eedULL;
    };

    // Connects immediately (bounded by connect_timeout_ms); throws
    // efld::Error on refusal or timeout. `host` is an IPv4 dotted quad
    // ("127.0.0.1").
    SocketClient(const std::string& host, std::uint16_t port)
        : SocketClient(host, port, Options{}) {}
    SocketClient(const std::string& host, std::uint16_t port, Options opts);
    ~SocketClient();

    SocketClient(const SocketClient&) = delete;
    SocketClient& operator=(const SocketClient&) = delete;

    // One round trip: frame the request, block (bounded by io_timeout_ms)
    // for the response frame. Throws efld::Error on protocol violations, a
    // dropped connection, or a timed-out transfer — after which the stream
    // may be mid-frame, so the connection is closed; the next
    // request_with_retry() reconnects.
    [[nodiscard]] wire::WireResponse request(const wire::WireRequest& req);

    // request() plus the retry loop a real client needs against a cluster
    // that can lose shards: reconnects after connection loss/timeouts, backs
    // off between attempts (capped exponential with seeded jitter, floored
    // by a 429's retry_ms hint), and returns the first terminal response
    // (kOk or kError — a malformed request does not improve with retrying).
    // Throws efld::Error when every attempt failed; returns the last
    // kRejected response when the budget ran out waiting on backpressure.
    [[nodiscard]] wire::WireResponse request_with_retry(const wire::WireRequest& req);

    // Metrics scrape: one kMetrics round trip, returning the exposition body
    // (Prometheus text by default, JSON on request). Throws efld::Error on
    // transport failure or a non-metrics response.
    [[nodiscard]] std::string metrics(
        wire::MetricsFormat format = wire::MetricsFormat::kPrometheus);

    // Trace dump: one kTraceDump round trip, returning the cluster timeline
    // as Chrome-trace-event JSON (load it in ui.perfetto.dev). Throws
    // efld::Error on transport failure or a non-trace response.
    [[nodiscard]] std::string trace_dump();

    // Alert state: one kAlerts round trip, returning the SLO engine's rules
    // + transition timeline as JSON. Throws efld::Error on transport failure
    // or when the server has no SLO controller (status-2 error).
    [[nodiscard]] std::string alerts();

    // Time-series query: one kQuery round trip, returning `series`' TSDB
    // tail over the trailing `window_ms` (0 = server default) as JSON.
    // Throws like alerts(); an UNKNOWN series is not an error — the server
    // answers with an empty point list.
    [[nodiscard]] std::string query(const std::string& series,
                                    std::uint32_t window_ms = 0);

    [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

private:
    void connect_now();  // throws efld::Error on failure/timeout
    void disconnect() noexcept;
    [[nodiscard]] std::chrono::milliseconds backoff_delay(std::size_t attempt,
                                                          std::uint32_t floor_ms);

    std::string host_;
    std::uint16_t port_ = 0;
    Options opts_;
    Xoshiro256 jitter_;
    int fd_ = -1;
};

}  // namespace efld::cluster
