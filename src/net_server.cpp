// net_server.cpp — SecServer implementation (net/server.hpp).
//
// Single-threaded epoll(7) event loop. Batch discipline: every epoll_wait()
// batch is fully drained — accept to EAGAIN, read each ready connection to
// EAGAIN, decode every complete frame, apply it to the stack, buffer the
// response — then each touched connection is flushed once. Level-triggered
// on purpose: the loop drains a ready socket to EAGAIN inside the batch
// anyway, and level-triggering keeps the "re-notify until drained"
// invariant without edge-trigger resubscription subtleties. The per-op
// AnyStack virtuals are fine here: a request already paid a syscall and a
// frame decode, so one virtual call is noise, and the interesting batching
// (kernel crossings amortized over the readiness batch) lives a layer
// below.
#include "net/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

namespace sec::net {
namespace {

constexpr std::size_t kEventCap = 128;
constexpr std::size_t kReadChunk = 16 * 1024;
// A connection whose decoded-but-unflushed output exceeds this is falling
// behind pathologically (the protocol is request/response with tiny
// frames); drop it rather than buffer without bound.
constexpr std::size_t kMaxOutBuffer = 4 * 1024 * 1024;

// Grow a connection's input array so at least kReadChunk bytes are free
// after its `len` unread ones. A connection grows it once, unless a single
// drain reads past what it holds.
void grow_input(std::unique_ptr<std::uint8_t[]>& buf, std::size_t& cap,
                std::size_t len) {
    const std::size_t want = std::max(cap * 2, len + kReadChunk);
    auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(want);
    if (len > 0) std::memcpy(bigger.get(), buf.get(), len);
    buf = std::move(bigger);
    cap = want;
}

bool set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Register (EPOLL_CTL_ADD) or update (EPOLL_CTL_MOD) `fd`: read interest
// always, write interest while replies wait for the socket to drain.
bool watch(int epfd, int op, int fd, bool want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    return ::epoll_ctl(epfd, op, fd, &ev) == 0;
}

}  // namespace

SecServer::SecServer(AnyStack stack, ServerConfig cfg)
    : stack_(std::move(stack)), cfg_(std::move(cfg)) {}

SecServer::~SecServer() { stop(); }

ServerStats SecServer::stats() const {
    ServerStats s;
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.requests = requests_.load(std::memory_order_relaxed);
    s.pushes = pushes_.load(std::memory_order_relaxed);
    s.pops = pops_.load(std::memory_order_relaxed);
    s.empties = empties_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.max_batch = max_batch_.load(std::memory_order_relaxed);
    return s;
}

bool SecServer::start(std::string* err) {
    if (running_.load(std::memory_order_acquire)) return true;
    auto fail = [&](const std::string& what) {
        if (err != nullptr) *err = what;
        for (int* fd : {&epoll_fd_, &listen_fd_, &wake_fd_}) {
            if (*fd >= 0) ::close(*fd);
            *fd = -1;
        }
        return false;
    };

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
        return fail(std::string("epoll_create1: ") + std::strerror(errno));
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
        return fail(std::string("socket: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
        return fail("bad listen address '" + cfg_.host + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        return fail(std::string("bind: ") + std::strerror(errno));
    }
    if (::listen(listen_fd_, 128) != 0) {
        return fail(std::string("listen: ") + std::strerror(errno));
    }
    if (!set_nonblocking(listen_fd_)) {
        return fail(std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &blen) != 0) {
        return fail(std::string("getsockname: ") + std::strerror(errno));
    }
    bound_port_ = ntohs(bound.sin_port);

    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) {
        return fail(std::string("eventfd: ") + std::strerror(errno));
    }

    if (!watch(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, false) ||
        !watch(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, false)) {
        return fail(std::string("epoll_ctl(ADD): ") + std::strerror(errno));
    }

    stop_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    exec::PoolOptions popts;
    popts.pin = cfg_.pin;
    popts.coordinator_in_barrier = false;
    pool_ = std::make_unique<exec::WorkerPool>(1, popts);
    pool_->start([this](exec::WorkerContext&) { loop(); });
    return true;
}

void SecServer::stop() {
    if (!running_.exchange(false, std::memory_order_acq_rel)) return;
    stop_.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
    if (pool_) {
        pool_->join();
        pool_.reset();
    }
    for (auto& [fd, conn] : conns_) ::close(fd);
    conns_.clear();
    ::close(listen_fd_);
    ::close(wake_fd_);
    ::close(epoll_fd_);
    listen_fd_ = wake_fd_ = epoll_fd_ = -1;
}

void SecServer::loop() {
    epoll_event events[kEventCap];
    while (!stop_.load(std::memory_order_acquire)) {
        const int n = ::epoll_wait(epoll_fd_, events, kEventCap, 200);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;  // non-retryable epoll failure
        }
        std::uint64_t batch_requests = 0;
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            const std::uint32_t mask = events[i].events;
            if (fd == listen_fd_) {
                accept_ready();
                continue;
            }
            if (fd == wake_fd_) {
                std::uint64_t drain = 0;
                [[maybe_unused]] const auto r =
                    ::read(wake_fd_, &drain, sizeof(drain));
                continue;
            }
            const auto it = conns_.find(fd);
            if (it == conns_.end()) continue;  // closed earlier this batch
            Conn& conn = it->second;
            bool alive = (mask & (EPOLLERR | EPOLLHUP)) == 0;
            if (alive && (mask & EPOLLIN) != 0) {
                alive = conn_readable(fd, conn, batch_requests);
            }
            if (alive &&
                ((mask & EPOLLOUT) != 0 || conn.out.size() > conn.out_off)) {
                alive = flush(fd, conn);
            }
            if (!alive) close_conn(fd);
        }
        if (batch_requests > 0) {
            batches_.fetch_add(1, std::memory_order_relaxed);
            requests_.fetch_add(batch_requests, std::memory_order_relaxed);
            if (batch_requests >
                max_batch_.load(std::memory_order_relaxed)) {
                max_batch_.store(batch_requests, std::memory_order_relaxed);
            }
        }
    }
}

void SecServer::accept_ready() {
    for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // EAGAIN (drained) or a transient accept error
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (!watch(epoll_fd_, EPOLL_CTL_ADD, fd, false)) {
            ::close(fd);
            continue;
        }
        conns_.emplace(fd, Conn{});
        accepted_.fetch_add(1, std::memory_order_relaxed);
    }
}

bool SecServer::conn_readable(int fd, Conn& conn,
                              std::uint64_t& batch_requests) {
    // Drain the socket to EAGAIN — level-triggered epoll would re-notify
    // anyway, but draining keeps the whole readiness batch's requests inside
    // this aggregation window.
    for (;;) {
        if (conn.in_cap - conn.in_len < kReadChunk) {
            grow_input(conn.in, conn.in_cap, conn.in_len);
        }
        const ssize_t n = ::read(fd, conn.in.get() + conn.in_len,
                                 conn.in_cap - conn.in_len);
        if (n > 0) {
            conn.in_len += static_cast<std::size_t>(n);
            continue;
        }
        if (n == 0) return false;  // EOF
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
    }

    // Decode and apply every complete frame.
    std::size_t off = 0;
    while (off < conn.in_len) {
        Message req;
        const DecodeResult r =
            decode(conn.in.get() + off, conn.in_len - off, req);
        if (r.status == DecodeStatus::kNeedMore) break;
        if (r.status == DecodeStatus::kError) return false;
        off += r.consumed;
        apply(req, conn);
        ++batch_requests;
    }
    if (off > 0) {
        conn.in_len -= off;
        std::memmove(conn.in.get(), conn.in.get() + off, conn.in_len);
    }
    return conn.out.size() - conn.out_off <= kMaxOutBuffer;
}

void SecServer::apply(const Message& req, Conn& conn) {
    Message resp;
    resp.tag = req.tag;
    switch (req.type) {
        case MsgType::kPushReq: {
            resp.type = MsgType::kPushResp;
            resp.ok = stack_.push(req.value);
            pushes_.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        case MsgType::kPopReq: {
            resp.type = MsgType::kPopResp;
            const auto v = stack_.pop();
            resp.ok = v.has_value();
            resp.value = v.value_or(0);
            if (resp.ok) {
                pops_.fetch_add(1, std::memory_order_relaxed);
            } else {
                empties_.fetch_add(1, std::memory_order_relaxed);
            }
            break;
        }
        case MsgType::kStatsReq: {
            resp.type = MsgType::kStatsResp;
            resp.stats.pushes = pushes_.load(std::memory_order_relaxed);
            resp.stats.pops = pops_.load(std::memory_order_relaxed);
            resp.stats.empties = empties_.load(std::memory_order_relaxed);
            resp.stats.batches = batches_.load(std::memory_order_relaxed);
            resp.stats.shape =
                static_cast<std::uint8_t>(stack_.shape());
            break;
        }
        default:
            // A well-formed frame of a response type: meaningless as a
            // request, but not a framing violation. Ignore it.
            return;
    }
    encode(resp, conn.out);
}

bool SecServer::flush(int fd, Conn& conn) {
    while (conn.out_off < conn.out.size()) {
        // MSG_NOSIGNAL: a peer that reset its connection must surface as
        // EPIPE on this fd (normal close path), not SIGPIPE for the process.
        const ssize_t n = ::send(fd, conn.out.data() + conn.out_off,
                                 conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!conn.want_write) {
                // No write interest registered means buffered replies would
                // only ever flush piggybacked on a read event; if the
                // registration fails, drop the connection instead.
                if (!watch(epoll_fd_, EPOLL_CTL_MOD, fd, true)) return false;
                conn.want_write = true;
            }
            return true;  // keep the connection; retry on writability
        }
        return false;  // EPIPE/ECONNRESET and friends: close the connection
    }
    conn.out.clear();
    conn.out_off = 0;
    if (conn.want_write) {
        conn.want_write = false;
        watch(epoll_fd_, EPOLL_CTL_MOD, fd, false);
    }
    return true;
}

void SecServer::close_conn(int fd) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(fd);
}

}  // namespace sec::net
