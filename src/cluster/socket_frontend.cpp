#include "cluster/socket_frontend.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <optional>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "obs/clock.hpp"
#include "obs/exposition.hpp"
#include "serve/serve_types.hpp"

namespace efld::cluster {

namespace {

using Clock = std::chrono::steady_clock;
// Absolute bound on one whole transfer; nullopt = wait forever.
using Deadline = std::optional<Clock::time_point>;

Deadline deadline_in(std::uint32_t timeout_ms) {
    if (timeout_ms == 0) return std::nullopt;
    return Clock::now() + std::chrono::milliseconds(timeout_ms);
}

// Block until `fd` is ready for `events` (POLLIN/POLLOUT) or the deadline
// passes. false = timed out (or the descriptor is unusable). POLLERR/POLLHUP
// count as ready: the following recv/send reports the real story.
bool wait_ready(int fd, short events, const Deadline& deadline) {
    while (true) {
        int timeout_ms = -1;
        if (deadline.has_value()) {
            const auto now = Clock::now();
            if (now >= *deadline) return false;
            timeout_ms = static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(*deadline -
                                                                      now)
                    .count() +
                1);
        }
        pollfd p{fd, events, 0};
        const int r = ::poll(&p, 1, timeout_ms);
        if (r < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        if (r == 0) return false;  // timed out
        return true;
    }
}

// Loop read until the whole buffer arrived (short reads and EINTR are normal
// on stream sockets) or the deadline passes. false = peer gone or timed out —
// either way the stream position is unknown, so the caller must drop the
// connection.
bool read_exact(int fd, std::uint8_t* data, std::size_t n,
                const Deadline& deadline = std::nullopt) {
    while (n > 0) {
        if (!wait_ready(fd, POLLIN, deadline)) return false;
        const ssize_t r = ::recv(fd, data, n, 0);
        if (r < 0) {
            if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
                continue;
            }
            return false;
        }
        if (r == 0) return false;  // orderly shutdown
        data += r;
        n -= static_cast<std::size_t>(r);
    }
    return true;
}

// One frame is one gathered write of {length prefix, payload}: the prefix
// never travels as a segment of its own, so (with TCP_NODELAY) no part of a
// frame sits in Nagle's buffer waiting for the peer's delayed ACK. Each
// sendmsg is non-blocking (MSG_DONTWAIT) and preceded by a deadline-bounded
// poll, so a peer that stops reading cannot pin the writer past `deadline`;
// a short send advances across both iovecs. false = peer gone or timed out —
// the stream position is unknown, so the caller must drop the connection.
bool write_frame(int fd, std::span<const std::uint8_t> payload,
                 const Deadline& deadline = std::nullopt) {
    std::uint8_t len[4];
    const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
    len[0] = static_cast<std::uint8_t>(n & 0xff);
    len[1] = static_cast<std::uint8_t>((n >> 8) & 0xff);
    len[2] = static_cast<std::uint8_t>((n >> 16) & 0xff);
    len[3] = static_cast<std::uint8_t>((n >> 24) & 0xff);
    // sendmsg only reads the buffers; iovec is merely not const-qualified.
    iovec iov[2] = {{len, sizeof(len)},
                    {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = 2;
    std::size_t left = sizeof(len) + payload.size();
    while (left > 0) {
        if (!wait_ready(fd, POLLOUT, deadline)) return false;
        const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w < 0) {
            if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
                continue;  // poll raced a full buffer; re-wait
            }
            return false;
        }
        left -= static_cast<std::size_t>(w);
        for (std::size_t sent = static_cast<std::size_t>(w); sent > 0;) {
            iovec& head = msg.msg_iov[0];
            const std::size_t take = std::min(sent, head.iov_len);
            head.iov_base = static_cast<std::uint8_t*>(head.iov_base) + take;
            head.iov_len -= take;
            sent -= take;
            if (head.iov_len == 0) {
                ++msg.msg_iov;
                --msg.msg_iovlen;
            }
        }
    }
    return true;
}

// nullopt = connection closed/failed/timed out. `header_deadline` bounds the
// wait for the length prefix (idle time between requests); `body_deadline`
// bounds the payload once a frame has started. Throws efld::Error when the
// peer sends a length past `max_bytes` (refuse BEFORE allocating).
std::optional<std::vector<std::uint8_t>> read_frame(
    int fd, std::size_t max_bytes, const Deadline& header_deadline = std::nullopt,
    std::uint32_t body_timeout_ms = 0) {
    std::uint8_t len[4];
    if (!read_exact(fd, len, 4, header_deadline)) return std::nullopt;
    const std::uint32_t n = static_cast<std::uint32_t>(len[0]) |
                            static_cast<std::uint32_t>(len[1]) << 8 |
                            static_cast<std::uint32_t>(len[2]) << 16 |
                            static_cast<std::uint32_t>(len[3]) << 24;
    check(n <= max_bytes, "socket: frame length exceeds the configured bound");
    std::vector<std::uint8_t> payload(n);
    if (n > 0 && !read_exact(fd, payload.data(), n, deadline_in(body_timeout_ms))) {
        return std::nullopt;
    }
    return payload;
}

// Turns on a boolean socket option. false = the kernel refused it.
[[nodiscard]] bool set_flag(int fd, int level, int name) noexcept {
    const int one = 1;
    return ::setsockopt(fd, level, name, &one, sizeof(one)) == 0;
}

sockaddr_in loopback_addr(std::uint16_t port, const char* host) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    check(::inet_pton(AF_INET, host, &addr.sin_addr) == 1,
          "socket: invalid IPv4 address");
    return addr;
}

}  // namespace

SocketServer::SocketServer(ClusterRouter& router, Options opts)
    : router_(router), opts_(std::move(opts)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    check(listen_fd_ >= 0, "socket: socket() failed");
    sockaddr_in addr = loopback_addr(opts_.port, opts_.host.c_str());
    if (!set_flag(listen_fd_, SOL_SOCKET, SO_REUSEADDR) ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, opts_.backlog) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw Error("socket: setsockopt/bind/listen failed (port in use?)");
    }
    socklen_t len = sizeof(addr);
    check(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
          "socket: getsockname failed");
    port_ = ntohs(addr.sin_port);
}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
    check(!running(), "SocketServer: already started");
    check(listen_fd_ >= 0, "SocketServer: cannot restart after stop()");
    stopping_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    // The acceptor takes the descriptor BY VALUE at spawn (happens-before via
    // thread creation): stop()'s listen_fd_ = -1 write then has no concurrent
    // reader, and the close() is what unblocks (then fails) accept().
    acceptor_ = std::thread([this, lfd = listen_fd_] { accept_loop(lfd); });
}

void SocketServer::stop() {
    stopping_.store(true, std::memory_order_release);
    if (listen_fd_ >= 0) {
        // Unblocks accept(); the listener cannot be reused after this.
        ::shutdown(listen_fd_, SHUT_RDWR);
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    if (acceptor_.joinable()) acceptor_.join();
    {
        // Kick every live connection out of its blocking read; handlers see
        // EOF and exit. Slots already at -1 belong to finished handlers.
        const std::lock_guard<std::mutex> lock(conn_mu_);
        for (const int fd : conn_fds_) {
            if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
        }
    }
    std::vector<std::thread> to_join;
    {
        const std::lock_guard<std::mutex> lock(conn_mu_);
        to_join.swap(conn_threads_);
    }
    for (auto& t : to_join) {
        if (t.joinable()) t.join();
    }
    running_.store(false, std::memory_order_release);
}

void SocketServer::accept_loop(int lfd) {
    while (!stopping_.load(std::memory_order_acquire)) {
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            // Transient per-connection/resource failures (client RST before
            // accept, fd pressure) must not kill the acceptor — only a dead
            // listener may.
            if (errno == EINTR || errno == ECONNABORTED || errno == EMFILE ||
                errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
                continue;
            }
            break;  // listener shut down
        }
        if (!set_flag(fd, IPPROTO_TCP, TCP_NODELAY)) {
            ::close(fd);  // the client sees EOF and may reconnect
            continue;
        }
        const std::lock_guard<std::mutex> lock(conn_mu_);
        if (stopping_.load(std::memory_order_acquire)) {
            ::close(fd);
            break;
        }
        // Reap finished handlers (slot flipped to -1) so a long-lived server
        // with connection churn does not accumulate dead thread objects.
        // The exiting handler touches conn_mu_ only to flip its slot, so
        // joining here cannot deadlock.
        for (std::size_t i = 0; i < conn_threads_.size(); ++i) {
            if (conn_fds_[i] == -1 && conn_threads_[i].joinable()) {
                conn_threads_[i].join();
                conn_threads_[i] = std::thread();
            }
        }
        const std::size_t idx = conn_fds_.size();
        conn_fds_.push_back(fd);
        conn_threads_.emplace_back(
            [this, idx, fd] { serve_connection(idx, fd); });
    }
}

void SocketServer::serve_connection(std::size_t conn_index, int fd) {
    bool alive = true;
    while (alive && !stopping_.load(std::memory_order_acquire)) {
        std::optional<std::vector<std::uint8_t>> frame;
        try {
            // Idle-between-requests is bounded by idle_timeout_ms (0 = wait
            // forever; stop() kicks via shutdown); a frame that has STARTED
            // must finish within io_timeout_ms — a peer stalling mid-frame
            // loses the link instead of pinning this thread.
            frame = read_frame(fd, opts_.max_frame_bytes,
                               deadline_in(opts_.idle_timeout_ms),
                               opts_.io_timeout_ms);
        } catch (const Error&) {
            break;  // oversized length prefix: protocol abuse, drop the link
        }
        if (!frame.has_value()) break;  // client closed / timed out

        wire::WireResponse resp;
        bool respond = true;
        try {
            const wire::WireRequest wreq = wire::decode_request(*frame);
            if (wreq.kind == wire::RequestKind::kMetrics) {
                // Metrics scrape: render the cluster snapshot and reply on
                // this connection. Observability reads are not "requests
                // served" — requests_served() keeps counting generate
                // traffic only, so it stays comparable with the cluster's
                // requests_completed. An attached SLO controller augments
                // the scrape with the serve_alert_*/slo_* series.
                const obs::MetricsSnapshot snap = slo_ != nullptr
                                                      ? slo_->metrics_snapshot()
                                                      : router_.metrics_snapshot();
                resp.status = wire::Status::kMetrics;
                resp.metrics = wreq.metrics_format == wire::MetricsFormat::kJson
                                   ? obs::to_json(snap)
                                   : obs::to_prometheus(snap);
                if (!write_frame(fd, wire::encode_response(resp),
                                 deadline_in(opts_.io_timeout_ms))) {
                    break;
                }
                continue;
            }
            if (wreq.kind == wire::RequestKind::kTraceDump) {
                // Trace dump: render the cluster's Perfetto timeline inline.
                // Like metrics, an observability read — not a served request.
                resp.status = wire::Status::kTraceDump;
                resp.trace = router_.trace_json();
                if (!write_frame(fd, wire::encode_response(resp),
                                 deadline_in(opts_.io_timeout_ms))) {
                    break;
                }
                continue;
            }
            if (wreq.kind == wire::RequestKind::kAlerts ||
                wreq.kind == wire::RequestKind::kQuery) {
                // SLO reads need the controller; without one the frames are
                // a configuration error, not a dropped connection.
                check(slo_ != nullptr,
                      "socket: server has no SLO controller (--slo)");
                if (wreq.kind == wire::RequestKind::kAlerts) {
                    resp.status = wire::Status::kAlerts;
                    resp.alerts = slo_->alerts_json();
                } else {
                    resp.status = wire::Status::kQuery;
                    const std::uint64_t window_ns =
                        wreq.query_window_ms > 0
                            ? wreq.query_window_ms * 1'000'000ull
                            : 120'000'000'000ull;
                    resp.query = slo_->query_json(wreq.query_series, window_ns);
                }
                if (!write_frame(fd, wire::encode_response(resp),
                                 deadline_in(opts_.io_timeout_ms))) {
                    break;
                }
                continue;
            }
            serve::Request req;
            req.prompt = wreq.prompt;
            req.max_new_tokens = wreq.max_new_tokens;
            if (wreq.deadline_ms > 0) {
                // Deadlines live on the shards' clock (ServeOptions::clock).
                const obs::Clock& shard_clock =
                    router_.options().shard.clock != nullptr
                        ? *router_.options().shard.clock
                        : obs::steady_clock();
                req.deadline = obs::time_point(shard_clock) +
                               std::chrono::milliseconds(wreq.deadline_ms);
            }
            ClusterRouter::SubmitOutcome out = router_.try_submit(std::move(req));
            if (!out.accepted) {
                resp.status = wire::Status::kRejected;
                resp.retry_ms = static_cast<std::uint32_t>(out.retry_hint.count());
            } else {
                // Poll rather than block outright: stop() must not wait for a
                // decode (or, with no driver running, forever). On shutdown
                // the request is cancelled and the connection abandoned
                // without a response.
                const std::shared_future<serve::ServeResult> fut =
                    out.handle.future();
                while (fut.wait_for(std::chrono::milliseconds(20)) !=
                       std::future_status::ready) {
                    if (stopping_.load(std::memory_order_acquire)) {
                        out.handle.cancel();
                        respond = false;
                        alive = false;
                        break;
                    }
                }
                if (respond) {
                    const serve::ServeResult& r = fut.get();
                    resp.status = wire::Status::kOk;
                    resp.id = r.id;
                    resp.finish_reason =
                        static_cast<std::uint8_t>(r.finish_reason);
                    resp.times_deferred =
                        static_cast<std::uint32_t>(r.times_deferred);
                    resp.failovers = static_cast<std::uint32_t>(r.failovers);
                    resp.tokens = r.tokens;
                    resp.text = r.text;
                }
            }
        } catch (const std::exception& e) {
            // Unservable request (validation) — report it, keep the link.
            resp.status = wire::Status::kError;
            resp.error = e.what();
        }
        if (respond) {
            // Count before the write: a client that has already received its
            // reply must never observe requests_served() lagging behind.
            served_.fetch_add(1, std::memory_order_release);
            if (!write_frame(fd, wire::encode_response(resp),
                             deadline_in(opts_.io_timeout_ms))) {
                break;
            }
        }
    }
    {
        const std::lock_guard<std::mutex> lock(conn_mu_);
        conn_fds_[conn_index] = -1;  // stop() must not touch a reused fd
    }
    ::close(fd);
}

SocketClient::SocketClient(const std::string& host, std::uint16_t port,
                           Options opts)
    : host_(host), port_(port), opts_(opts), jitter_(opts.jitter_seed) {
    connect_now();
}

SocketClient::~SocketClient() { disconnect(); }

void SocketClient::disconnect() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
}

void SocketClient::connect_now() {
    disconnect();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    check(fd >= 0, "socket: socket() failed");
    sockaddr_in addr = loopback_addr(port_, host_.c_str());
    // Bounded connect: go non-blocking, poll for writability, read SO_ERROR
    // for the verdict, then restore blocking mode (the transfer helpers
    // poll-then-call, so either mode works, but blocking keeps the fast path
    // syscall count down).
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (opts_.connect_timeout_ms > 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno == EINPROGRESS) {
        if (!wait_ready(fd, POLLOUT, deadline_in(opts_.connect_timeout_ms))) {
            ::close(fd);
            throw Error("socket: connect to " + host_ + ":" +
                        std::to_string(port_) + " timed out");
        }
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
        rc = so_error == 0 ? 0 : -1;
    }
    if (rc != 0) {
        ::close(fd);
        throw Error("socket: connect to " + host_ + ":" + std::to_string(port_) +
                    " failed");
    }
    if (opts_.connect_timeout_ms > 0) ::fcntl(fd, F_SETFL, flags);
    if (!set_flag(fd, IPPROTO_TCP, TCP_NODELAY)) {
        ::close(fd);
        throw Error("socket: setsockopt(TCP_NODELAY) failed");
    }
    fd_ = fd;
}

wire::WireResponse SocketClient::request(const wire::WireRequest& req) {
    check(fd_ >= 0, "SocketClient: not connected");
    if (!write_frame(fd_, wire::encode_request(req),
                     deadline_in(opts_.io_timeout_ms))) {
        disconnect();  // stream position unknown; the link is unusable
        throw Error("SocketClient: connection lost/timed out while sending");
    }
    std::optional<std::vector<std::uint8_t>> frame;
    try {
        frame = read_frame(fd_, wire::kMaxFrameBytes,
                           deadline_in(opts_.io_timeout_ms), opts_.io_timeout_ms);
    } catch (const Error&) {
        disconnect();  // oversized prefix: its payload is still in the stream
        throw;
    }
    if (!frame.has_value()) {
        disconnect();
        throw Error("SocketClient: connection lost/timed out while waiting");
    }
    return wire::decode_response(*frame);
}

std::string SocketClient::metrics(wire::MetricsFormat format) {
    wire::WireRequest req;
    req.kind = wire::RequestKind::kMetrics;
    req.metrics_format = format;
    wire::WireResponse resp = request(req);
    check(resp.status == wire::Status::kMetrics,
          "SocketClient: server replied to a metrics request with a "
          "non-metrics response");
    return std::move(resp.metrics);
}

std::string SocketClient::trace_dump() {
    wire::WireRequest req;
    req.kind = wire::RequestKind::kTraceDump;
    wire::WireResponse resp = request(req);
    check(resp.status == wire::Status::kTraceDump,
          "SocketClient: server replied to a trace request with a "
          "non-trace response");
    return std::move(resp.trace);
}

std::string SocketClient::alerts() {
    wire::WireRequest req;
    req.kind = wire::RequestKind::kAlerts;
    wire::WireResponse resp = request(req);
    check(resp.status != wire::Status::kError,
          "SocketClient: alerts request failed: " + resp.error);
    check(resp.status == wire::Status::kAlerts,
          "SocketClient: server replied to an alerts request with a "
          "non-alerts response");
    return std::move(resp.alerts);
}

std::string SocketClient::query(const std::string& series,
                                std::uint32_t window_ms) {
    wire::WireRequest req;
    req.kind = wire::RequestKind::kQuery;
    req.query_series = series;
    req.query_window_ms = window_ms;
    wire::WireResponse resp = request(req);
    check(resp.status != wire::Status::kError,
          "SocketClient: query request failed: " + resp.error);
    check(resp.status == wire::Status::kQuery,
          "SocketClient: server replied to a query request with a "
          "non-query response");
    return std::move(resp.query);
}

std::chrono::milliseconds SocketClient::backoff_delay(std::size_t attempt,
                                                      std::uint32_t floor_ms) {
    // Capped exponential: d = min(cap, base << (attempt-1)), slept jittered
    // in [d/2, d] so a fleet retrying the same outage decorrelates. A 429's
    // retry_ms hint raises the floor — the server knows its own backlog.
    std::uint64_t d = opts_.backoff_base_ms;
    for (std::size_t k = 1; k < attempt && d < opts_.backoff_cap_ms; ++k) d <<= 1;
    d = std::min<std::uint64_t>(d, opts_.backoff_cap_ms);
    std::uint64_t sleep_ms = d / 2 + jitter_.below(d / 2 + 1);
    sleep_ms = std::max<std::uint64_t>(sleep_ms, floor_ms);
    return std::chrono::milliseconds(sleep_ms);
}

wire::WireResponse SocketClient::request_with_retry(const wire::WireRequest& req) {
    check(opts_.max_attempts > 0, "SocketClient: max_attempts must be >= 1");
    std::string last_error;
    wire::WireResponse last_rejected;
    bool saw_rejected = false;
    for (std::size_t attempt = 1; attempt <= opts_.max_attempts; ++attempt) {
        try {
            if (fd_ < 0) connect_now();
            wire::WireResponse resp = request(req);
            if (resp.status != wire::Status::kRejected) return resp;
            // 429: the cluster's queues are full (or a shard just died and
            // survivors absorbed its load). Honor the hint, then try again.
            saw_rejected = true;
            last_rejected = std::move(resp);
            if (attempt < opts_.max_attempts) {
                std::this_thread::sleep_for(
                    backoff_delay(attempt, last_rejected.retry_ms));
            }
        } catch (const Error& e) {
            // Connection refused/lost/timed out — the shape of a front-end
            // restarting. Back off and reconnect.
            last_error = e.what();
            disconnect();
            if (attempt < opts_.max_attempts) {
                std::this_thread::sleep_for(backoff_delay(attempt, 0));
            }
        }
    }
    if (saw_rejected) return last_rejected;  // consistent 429: caller sheds load
    throw Error("SocketClient: request failed after " +
                std::to_string(opts_.max_attempts) + " attempts (" + last_error +
                ")");
}

}  // namespace efld::cluster
