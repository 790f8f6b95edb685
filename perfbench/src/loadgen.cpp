#include "loadgen.hpp"

#include <cerrno>
#include <cmath>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/protocol.hpp"

namespace perfbench {
namespace {

using sec::net::DecodeStatus;
using sec::net::Message;
using sec::net::MsgType;

constexpr std::size_t kReadChunk = 64 * 1024;
// After the last request is due, how long replies may still take before
// the missing ones count as failed.
constexpr std::uint64_t kGraceNs = 2'000'000'000;
// Drain pops per round trip.
constexpr std::uint64_t kDrainBatch = 512;

// Tag: window (24 bits) | connection (4 bits) | request index (36 bits).
constexpr unsigned kConnShift = 36;
constexpr unsigned kWindowShift = 40;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kConnShift) - 1;

std::uint64_t make_tag(std::uint64_t window, unsigned conn, std::uint64_t i) {
    return (window << kWindowShift) | (std::uint64_t{conn} << kConnShift) | i;
}

// 1 request in 64 is traced; its span id is derived from its tag.
bool sampled(std::uint64_t tag) { return (tag & 63) == 0; }
std::uint64_t request_span(std::uint64_t tag) {
    return (std::uint64_t{1} << 63) | tag;
}

double us(double ns) { return ns * 1e-3; }

bool transient(int err) {
    return err == EAGAIN || err == EWOULDBLOCK || err == EINTR;
}

// sec::net::encode reserves exactly the bytes it appends; keep headroom so
// a growing buffer is reallocated geometrically, not once per frame.
void encode_into(const Message& m, std::vector<std::uint8_t>& out) {
    if (out.capacity() - out.size() < sec::net::kHeaderBytes + sec::net::kMaxPayload) {
        out.reserve(2 * out.capacity() + 1024);
    }
    sec::net::encode(m, out);
}

}  // namespace

LoadGen::LoadGen(std::size_t max_requests) : max_requests_(max_requests) {
    for (Conn& c : conns_) {
        prefault(c.reqs, max_requests);
        prefault(c.out, 256 * 1024);
        c.in.resize(kReadChunk + 64);
    }
}

void LoadGen::disconnect() {
    for (Conn& c : conns_) {
        if (c.fd >= 0) ::close(c.fd);
        c.fd = -1;
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = -1;
}

bool LoadGen::connect(std::uint16_t port, std::string* err) {
    disconnect();
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
        *err = std::string("epoll_create1: ") + std::strerror(errno);
        return false;
    }
    for (unsigned ci = 0; ci < kConnections; ++ci) {
        Conn& c = conns_[ci];
        c.deficit = 0;
        c.reqs.clear();
        c.next = c.inflight = c.out_off = c.in_len = 0;
        c.out.clear();
        c.dead = false;
        c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (c.fd < 0) {
            *err = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) != 0) {
            *err = std::string("connect: ") + std::strerror(errno);
            return false;
        }
        const int one = 1;
        ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u32 = ci;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev) != 0) {
            *err = std::string("epoll_ctl: ") + std::strerror(errno);
            return false;
        }
    }
    return true;
}

bool LoadGen::next_is_push(Conn& c, Rng& rng) {
    const bool push = (rng.next() & 1) != 0 || c.deficit >= kServedDeficitCap;
    c.deficit += push ? -1 : 1;
    return push;
}

void LoadGen::flush(Conn& c, trace::Buffer* spans) {
    if (c.out_off == c.out.size()) return;
    const std::uint64_t s0 = spans != nullptr ? now_ns() : 0;
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        if (c.out_off == c.out.size()) {
            c.out.clear();
            c.out_off = 0;
        }
    } else if (n < 0 && !transient(errno)) {
        c.dead = true;
    }
    if (spans != nullptr && !c.sampled.empty()) {
        const std::uint64_t s1 = now_ns();
        for (const std::uint64_t tag : c.sampled) {
            spans->record(trace::Name::kSend, spans->next_id(),
                          request_span(tag), s0, s1);
        }
        c.sampled.clear();
    }
}

template <class OnReply>
void LoadGen::receive(unsigned ci, trace::Buffer* spans, double& decode_ns,
                      OnReply&& on_reply) {
    Conn& c = conns_[ci];
    const std::uint64_t r0 = spans != nullptr ? now_ns() : 0;
    const ssize_t n =
        ::recv(c.fd, c.in.data() + c.in_len, kReadChunk, MSG_DONTWAIT);
    if (n <= 0) {
        if (n == 0 || !transient(errno)) c.dead = true;
        return;
    }
    const std::uint64_t t_recv = now_ns();
    c.in_len += static_cast<std::size_t>(n);
    std::size_t off = 0;
    while (off < c.in_len) {
        Message r;
        const std::uint64_t d0 = spans != nullptr ? now_ns() : 0;
        const sec::net::DecodeResult res =
            sec::net::decode(c.in.data() + off, c.in_len - off, r);
        if (res.status == DecodeStatus::kNeedMore) break;
        if (res.status == DecodeStatus::kError) {
            c.dead = true;
            break;
        }
        const std::uint64_t d1 = spans != nullptr ? now_ns() : 0;
        decode_ns += static_cast<double>(d1 - d0);
        off += res.consumed;
        on_reply(r, t_recv, r0, d0, d1);
    }
    std::memmove(c.in.data(), c.in.data() + off, c.in_len - off);
    c.in_len -= off;
}

WindowStats LoadGen::window(double rate_per_s, double seconds,
                            std::uint64_t seed, trace::Buffer* spans) {
    ++window_id_;
    WindowStats ws;
    const auto length = static_cast<std::uint64_t>(seconds * 1e9);

    // The schedule is built relative to the window start and anchored only
    // once it is complete: building it takes tens of milliseconds at high
    // rates, which would otherwise all come due in one burst.
    std::vector<Rng> rngs;
    for (unsigned ci = 0; ci < kConnections; ++ci) {
        rngs.emplace_back(seed, window_id_ * kConnections + ci);
    }
    for (unsigned ci = 0; ci < kConnections; ++ci) {
        Conn& c = conns_[ci];
        c.reqs.clear();
        c.next = 0;
        const double per_conn = rate_per_s / kConnections;
        double t = 0.0;
        while (c.reqs.size() < max_requests_) {
            t += -std::log(rngs[ci].unit()) / per_conn * 1e9;
            if (t >= static_cast<double>(length)) break;
            Req r;
            r.due = static_cast<std::uint64_t>(t);
            r.push = next_is_push(c, rngs[ci]);
            c.reqs.push_back(r);
        }
    }
    const std::uint64_t start = now_ns() + 100'000;
    const std::uint64_t deadline = start + length + kGraceNs;
    for (Conn& c : conns_) {
        for (Req& r : c.reqs) r.due += start;
    }

    double enc_ns = 0.0, dec_ns = 0.0;
    std::uint64_t last_reply = start;
    std::uint64_t inflight = 0;
    bool issuing = true;

    // One pass: per connection, every request that has come due goes out in
    // one send(); then whatever replies have arrived are read. The slower a
    // pass (a loopback send() costs microseconds), the more requests the
    // next one finds due, so the generator batches more as the load rises.
    for (;;) {
        const std::uint64_t t = now_ns();
        bool pending = false;  // scheduled requests not yet sent
        bool alive = false;
        for (unsigned ci = 0; ci < kConnections; ++ci) {
            Conn& c = conns_[ci];
            if (c.dead) continue;
            alive = true;
            while (issuing) {
                if (c.next == c.reqs.size() || c.reqs[c.next].due > t) break;
                if (c.inflight >= kMaxInFlight) {
                    ws.overloaded = true;
                    issuing = false;
                    break;
                }
                Req& q = c.reqs[c.next];
                Message m;
                m.type = q.push ? MsgType::kPushReq : MsgType::kPopReq;
                m.tag = make_tag(window_id_, ci, c.next);
                m.value = q.push ? m.tag : 0;
                if (spans != nullptr) {
                    const std::uint64_t e0 = now_ns();
                    encode_into(m, c.out);
                    const std::uint64_t e1 = now_ns();
                    enc_ns += static_cast<double>(e1 - e0);
                    if (sampled(m.tag)) {
                        spans->record(trace::Name::kEncode, spans->next_id(),
                                      request_span(m.tag), e0, e1);
                        c.sampled.push_back(m.tag);
                    }
                } else {
                    encode_into(m, c.out);
                }
                q.sent = t;
                q.state = 1;
                ++c.next;
                ++c.inflight;
                ++inflight;
                ++ws.requests;
            }
            if (c.next < c.reqs.size()) pending = true;
            flush(c, spans);
        }

        epoll_event evs[kConnections];
        const int nev = ::epoll_wait(epoll_fd_, evs, kConnections, 0);
        for (int e = 0; e < nev; ++e) {
            const unsigned ci = evs[e].data.u32;
            Conn& c = conns_[ci];
            if (c.dead) continue;
            receive(ci, spans, dec_ns,
                    [&](const Message& r, std::uint64_t t_recv,
                        std::uint64_t recv0, std::uint64_t dec0,
                        std::uint64_t dec1) {
                const std::uint64_t idx = r.tag & kIndexMask;
                if ((r.tag >> kWindowShift) != window_id_ ||
                    ((r.tag >> kConnShift) & 0xF) != ci || idx >= c.next ||
                    c.reqs[idx].state != 1) {
                    ++ws.failed;  // unknown, foreign or repeated tag
                    return;
                }
                Req& q = c.reqs[idx];
                q.state = 2;
                q.replied = t_recv;
                --c.inflight;
                --inflight;
                ++ws.replies;
                last_reply = t_recv;
                if (r.type != (q.push ? MsgType::kPushResp : MsgType::kPopResp)) {
                    ++ws.failed;
                } else if (q.push) {
                    if (r.ok) {
                        ws.pushed.add(r.tag);
                    } else {
                        ++ws.failed;
                    }
                } else if (r.ok) {
                    ws.popped.add(r.value);
                } else {
                    ++ws.failed;
                    ++ws.empty_pops;
                }
                if (spans != nullptr && sampled(r.tag)) {
                    const std::uint64_t id = request_span(r.tag);
                    spans->record(trace::Name::kRecv, spans->next_id(), id,
                                  recv0, t_recv);
                    spans->record(trace::Name::kDecode, spans->next_id(), id,
                                  dec0, dec1);
                    spans->record(trace::Name::kRequest, id, 0, q.due, t_recv);
                }
            });
        }
        if (!alive) break;
        std::uint64_t waiting = 0;  // on connections that can still answer
        for (const Conn& c : conns_) {
            if (!c.dead) waiting += c.inflight;
        }
        if (!(issuing && pending) && waiting == 0) break;
        if (t > deadline) break;
    }

    ws.failed += inflight;  // never answered: lost, or connection dropped
    // Requests an overloaded window never sent leave the pop/push walk.
    for (Conn& c : conns_) {
        for (std::size_t i = c.next; i < c.reqs.size(); ++i) {
            c.deficit += c.reqs[i].push ? 1 : -1;
        }
    }

    std::vector<std::uint64_t> sojourn, rtt, lag;
    sojourn.reserve(ws.replies);
    rtt.reserve(ws.replies);
    lag.reserve(ws.requests);
    for (Conn& c : conns_) {
        c.inflight = 0;
        for (std::size_t i = 0; i < c.next; ++i) {
            const Req& q = c.reqs[i];
            lag.push_back(q.sent - q.due);
            if (q.state == 2) {
                sojourn.push_back(q.replied - q.due);
                rtt.push_back(q.replied - q.sent);
            }
        }
    }
    ws.sojourn_p50_us = us(quantile(sojourn, 0.50));
    ws.sojourn_p99_us = us(quantile(sojourn, 0.99));
    ws.rtt_p50_us = us(quantile(rtt, 0.50));
    ws.rtt_p99_us = us(quantile(rtt, 0.99));
    ws.lag_p99_us = us(quantile(lag, 0.99));
    if (last_reply > start) {
        ws.achieved_mops = static_cast<double>(ws.replies) * 1e3 /
                           static_cast<double>(last_reply - start);
    }
    if (spans != nullptr && ws.requests > 0) {
        ws.encode_ns = enc_ns / static_cast<double>(ws.requests);
        ws.decode_ns = ws.replies ? dec_ns / static_cast<double>(ws.replies) : 0;
    }
    return ws;
}

Conservation LoadGen::drain(std::uint64_t* failed) {
    ++window_id_;
    Conservation got;
    std::uint64_t bad = 0;
    Conn& c = conns_[0];
    std::uint64_t sent = 0;
    bool empty = false;
    double unused_ns = 0.0;
    while (!empty && !c.dead) {
        for (std::uint64_t k = 0; k < kDrainBatch; ++k) {
            Message m;
            m.type = MsgType::kPopReq;
            m.tag = make_tag(window_id_, 0, sent + k);
            encode_into(m, c.out);
        }
        std::uint64_t expect = sent;
        sent += kDrainBatch;
        const std::uint64_t deadline = now_ns() + kGraceNs;
        while (expect < sent && !c.dead) {
            if (now_ns() > deadline) {
                c.dead = true;
                break;
            }
            flush(c, nullptr);
            // One connection, answered in order: the next tag is known.
            receive(0, nullptr, unused_ns,
                    [&](const Message& r, std::uint64_t, std::uint64_t,
                        std::uint64_t, std::uint64_t) {
                        if (r.tag != make_tag(window_id_, 0, expect) ||
                            r.type != MsgType::kPopResp) {
                            ++bad;
                        } else if (r.ok) {
                            got.add(r.value);
                        } else {
                            empty = true;
                        }
                        ++expect;
                    });
        }
    }
    if (c.dead) ++bad;
    *failed += bad;
    return got;
}

}  // namespace perfbench
