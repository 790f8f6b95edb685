// loadgen.hpp — the open-loop generator of served_loopback: one thread,
// four loopback TCP connections, a seeded Poisson schedule of 50/50
// PUSH/POP requests.
//
// It paces by spinning on the clock. On every pass it encodes each request
// that has come due on a connection and hands them to one send() call, then
// reads whatever replies have arrived. A request is
// timed from its due time (sojourn) and from its first send attempt (rtt);
// the generator's own lateness is the send attempt minus the due time
// (lag). Every tag must be answered exactly once with the matching
// response type; anything else is a failed request, as is a reply that
// never comes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr unsigned kConnections = 4;
// Per connection: how far its pops may run ahead of its pushes, summed over
// the whole run. The server's stack is prefilled with kConnections times
// this, so no pop can find it empty whatever the interleaving.
inline constexpr std::int64_t kServedDeficitCap = 32768;
// A connection with this many unanswered requests ends the window as
// overloaded: the newest of them waits behind 16 ms of requests even at
// the top of the knee grid (4.1 Mops/s over 4 connections), 20 ms at the
// knee on a 4-vCPU VM (3.3 Mops/s), 65 ms at 1 Mops/s. Near the knee it
// is the backlog counterpart of the sojourn limit. Letting the backlog grow
// much further would make the server drop the connection (it closes one
// whose unread replies pass its 4 MiB output cap).
inline constexpr std::size_t kMaxInFlight = 16384;

struct WindowStats {
    std::uint64_t requests = 0;  // sent
    std::uint64_t replies = 0;
    std::uint64_t failed = 0;
    std::uint64_t empty_pops = 0;
    bool overloaded = false;     // ended early at kMaxInFlight
    double achieved_mops = 0.0;  // replies / (last reply - window start)
    double sojourn_p50_us = 0.0, sojourn_p99_us = 0.0;
    double rtt_p50_us = 0.0, rtt_p99_us = 0.0;
    double lag_p99_us = 0.0;
    // Traced windows only: mean codec call times over every request.
    double encode_ns = 0.0, decode_ns = 0.0;
    Conservation pushed;  // acknowledged pushes
    Conservation popped;  // values returned by pops
};

class LoadGen {
public:
    // Room for `max_requests` requests per connection and window, resident
    // from the start. A window never issues more.
    explicit LoadGen(std::size_t max_requests);
    ~LoadGen() { disconnect(); }
    LoadGen(const LoadGen&) = delete;
    LoadGen& operator=(const LoadGen&) = delete;

    // Open kConnections fresh connections to 127.0.0.1:port.
    bool connect(std::uint16_t port, std::string* err);
    void disconnect();

    // Offer `rate_per_s` for `seconds` on a seeded Poisson schedule, then
    // wait (bounded) for every reply. `spans` non-null: time every codec
    // call and record 1 request in 64 as a span with encode/send/recv/decode
    // children.
    WindowStats window(double rate_per_s, double seconds, std::uint64_t seed,
                       trace::Buffer* spans);

    // Pop over the wire until the server reports the stack empty.
    Conservation drain(std::uint64_t* failed);

private:
    struct Req {
        std::uint64_t due = 0;
        std::uint64_t sent = 0;
        std::uint64_t replied = 0;
        bool push = false;
        std::uint8_t state = 0;  // 0 scheduled, 1 sent, 2 answered
    };
    struct Conn {
        int fd = -1;
        std::int64_t deficit = 0;  // own pops minus own pushes, whole run
        std::vector<Req> reqs;
        std::size_t next = 0;      // first request not yet sent
        std::size_t inflight = 0;  // sent, not yet answered
        std::vector<std::uint8_t> out;
        std::size_t out_off = 0;
        std::vector<std::uint8_t> in;  // fixed size; in_len bytes valid
        std::size_t in_len = 0;
        bool dead = false;
        std::vector<std::uint64_t> sampled;  // tags in the pending send
    };

    bool next_is_push(Conn& c, Rng& rng);
    void flush(Conn& c, trace::Buffer* spans);
    template <class OnReply>
    void receive(unsigned ci, trace::Buffer* spans, double& decode_ns,
                 OnReply&& on_reply);

    std::array<Conn, kConnections> conns_{};
    std::size_t max_requests_;
    int epoll_fd_ = -1;
    std::uint64_t window_id_ = 0;
};

}  // namespace perfbench
