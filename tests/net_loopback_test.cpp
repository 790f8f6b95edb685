// net_loopback_test — SecServer + the loopback client driver over real
// sockets on an ephemeral port: stack semantics survive the wire (LIFO
// order, empty-pop signalling, stats), and the open-loop driver loses zero
// replies. Runs in the TSan CI job, so everything crossing threads here is
// atomic or join-ordered.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "workload/registry.hpp"

namespace sec::net {
namespace {

AnyStack make_stack(const char* algo = "SEC") {
    const bench::AlgoSpec* spec =
        bench::AlgorithmRegistry::instance().find(algo);
    EXPECT_NE(spec, nullptr);
    bench::StackParams params;
    params.threads = 2;
    return spec->make(params);
}

// A deliberately dumb synchronous client: one blocking socket, one
// request/response at a time. The test oracle must not share machinery
// with the driver under test.
class SyncClient {
public:
    bool connect_to(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0) return false;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) == 0;
    }

    ~SyncClient() {
        if (fd_ >= 0) ::close(fd_);
    }

    // Send one request (optionally byte-by-byte to exercise the server's
    // torn-read path) and block for its response.
    bool roundtrip(const Message& req, Message& resp, bool torn = false) {
        std::vector<std::uint8_t> wire;
        encode(req, wire);
        if (torn) {
            for (const std::uint8_t byte : wire) {
                if (::write(fd_, &byte, 1) != 1) return false;
            }
        } else if (::write(fd_, wire.data(), wire.size()) !=
                   static_cast<ssize_t>(wire.size())) {
            return false;
        }
        for (;;) {
            Message decoded;
            const DecodeResult r = decode(buf_.data(), buf_.size(), decoded);
            if (r.status == DecodeStatus::kError) return false;
            if (r.status == DecodeStatus::kOk) {
                buf_.erase(buf_.begin(), buf_.begin() + r.consumed);
                resp = decoded;
                return true;
            }
            std::uint8_t chunk[512];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n <= 0) return false;
            buf_.insert(buf_.end(), chunk, chunk + n);
        }
    }

private:
    int fd_ = -1;
    std::vector<std::uint8_t> buf_;
};

TEST(NetLoopback, ServesLifoSemanticsOverTheWire) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ASSERT_NE(server.port(), 0);

    SyncClient client;
    ASSERT_TRUE(client.connect_to(server.port()));

    Message req, resp;
    for (std::uint64_t v : {11u, 22u, 33u}) {
        req = Message{};
        req.type = MsgType::kPushReq;
        req.tag = 100 + v;
        req.value = v;
        ASSERT_TRUE(client.roundtrip(req, resp));
        EXPECT_EQ(resp.type, MsgType::kPushResp);
        EXPECT_EQ(resp.tag, 100 + v);
        EXPECT_TRUE(resp.ok);
    }
    // LIFO: pops return 33, 22, 11, then EMPTY with ok=false.
    for (std::uint64_t v : {33u, 22u, 11u}) {
        req = Message{};
        req.type = MsgType::kPopReq;
        req.tag = 200 + v;
        ASSERT_TRUE(client.roundtrip(req, resp));
        EXPECT_EQ(resp.type, MsgType::kPopResp);
        EXPECT_EQ(resp.tag, 200 + v);
        EXPECT_TRUE(resp.ok);
        EXPECT_EQ(resp.value, v);
    }
    req = Message{};
    req.type = MsgType::kPopReq;
    req.tag = 999;
    ASSERT_TRUE(client.roundtrip(req, resp));
    EXPECT_EQ(resp.type, MsgType::kPopResp);
    EXPECT_FALSE(resp.ok);

    req = Message{};
    req.type = MsgType::kStatsReq;
    req.tag = 1;
    ASSERT_TRUE(client.roundtrip(req, resp));
    EXPECT_EQ(resp.type, MsgType::kStatsResp);
    EXPECT_EQ(resp.stats.pushes, 3u);
    EXPECT_EQ(resp.stats.pops, 3u);
    EXPECT_EQ(resp.stats.empties, 1u);
    EXPECT_GE(resp.stats.batches, 1u);
    EXPECT_EQ(resp.stats.shape,
              static_cast<std::uint8_t>(ContainerShape::lifo));

    server.stop();
}

// The same wire protocol over a SecQueue-backed server: PUSH/POP map onto
// enqueue/dequeue 1:1, pops drain in arrival order, and STATS reports the
// fifo shape byte so a remote client can tell which semantics it is
// talking to.
TEST(NetLoopback, ServesFifoSemanticsOverTheWire) {
    SecServer server(make_stack("SEC_Q"), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ASSERT_NE(server.port(), 0);

    SyncClient client;
    ASSERT_TRUE(client.connect_to(server.port()));

    Message req, resp;
    for (std::uint64_t v : {11u, 22u, 33u}) {
        req = Message{};
        req.type = MsgType::kPushReq;
        req.tag = 100 + v;
        req.value = v;
        ASSERT_TRUE(client.roundtrip(req, resp));
        EXPECT_EQ(resp.type, MsgType::kPushResp);
        EXPECT_EQ(resp.tag, 100 + v);
        EXPECT_TRUE(resp.ok);
    }
    // FIFO: pops return 11, 22, 33 — arrival order — then EMPTY.
    for (std::uint64_t v : {11u, 22u, 33u}) {
        req = Message{};
        req.type = MsgType::kPopReq;
        req.tag = 200 + v;
        ASSERT_TRUE(client.roundtrip(req, resp));
        EXPECT_EQ(resp.type, MsgType::kPopResp);
        EXPECT_EQ(resp.tag, 200 + v);
        EXPECT_TRUE(resp.ok);
        EXPECT_EQ(resp.value, v);
    }
    req = Message{};
    req.type = MsgType::kPopReq;
    req.tag = 999;
    ASSERT_TRUE(client.roundtrip(req, resp));
    EXPECT_EQ(resp.type, MsgType::kPopResp);
    EXPECT_FALSE(resp.ok);

    req = Message{};
    req.type = MsgType::kStatsReq;
    req.tag = 1;
    ASSERT_TRUE(client.roundtrip(req, resp));
    EXPECT_EQ(resp.type, MsgType::kStatsResp);
    EXPECT_EQ(resp.stats.pushes, 3u);
    EXPECT_EQ(resp.stats.pops, 3u);
    EXPECT_EQ(resp.stats.empties, 1u);
    EXPECT_EQ(resp.stats.shape,
              static_cast<std::uint8_t>(ContainerShape::fifo));

    server.stop();
}

TEST(NetLoopback, ReassemblesTornFramesByteByByte) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    SyncClient client;
    ASSERT_TRUE(client.connect_to(server.port()));

    Message req, resp;
    req.type = MsgType::kPushReq;
    req.tag = 1;
    req.value = 77;
    ASSERT_TRUE(client.roundtrip(req, resp, /*torn=*/true));
    EXPECT_TRUE(resp.ok);

    req = Message{};
    req.type = MsgType::kPopReq;
    req.tag = 2;
    ASSERT_TRUE(client.roundtrip(req, resp, /*torn=*/true));
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.value, 77u);

    server.stop();
}

TEST(NetLoopback, DropsProtocolViolatorsWithoutDyingItself) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // A garbage-spewing connection must be dropped...
    SyncClient bad;
    ASSERT_TRUE(bad.connect_to(server.port()));
    Message resp;
    Message garbage;
    garbage.type = static_cast<MsgType>(0);  // encodes a zero-length frame
    EXPECT_FALSE(bad.roundtrip(garbage, resp));

    // ...while a well-behaved one on the same server keeps working.
    SyncClient good;
    ASSERT_TRUE(good.connect_to(server.port()));
    Message req;
    req.type = MsgType::kStatsReq;
    req.tag = 3;
    ASSERT_TRUE(good.roundtrip(req, resp));
    EXPECT_EQ(resp.type, MsgType::kStatsResp);

    server.stop();
}

// The open-loop driver against a live server: every scheduled request must
// come back exactly once. Tiny load — this runs under TSan in CI.
TEST(NetLoopback, LoopbackDriverLosesZeroReplies) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    LoopbackClientConfig cfg;
    cfg.port = server.port();
    cfg.connections = 2;
    cfg.load_kops = 2.0;
    cfg.duration = std::chrono::milliseconds(150);
    cfg.seed = 42;

    const LoopbackClientResult res = run_loopback_client(cfg);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_GT(res.sent, 0u);
    EXPECT_EQ(res.replies, res.sent);
    EXPECT_EQ(res.lost, 0u);
    EXPECT_EQ(res.sojourn.total(), res.replies);
    EXPECT_EQ(res.rtt.total(), res.replies);
    EXPECT_EQ(res.pop_hits + res.pop_empties + res.pushes, res.sent);
    EXPECT_GT(res.achieved_kops, 0.0);

    // The server agrees it answered everything the driver sent. Stats are
    // read after stop() (which joins the loop thread): batch accounting
    // lands at the END of each batch, after its responses already flushed,
    // so a still-running loop could trail the client by one batch.
    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, res.sent);
    EXPECT_EQ(stats.pushes, res.pushes);
    EXPECT_EQ(stats.pops + stats.empties, res.pop_hits + res.pop_empties);
}

// Determinism: the same (seed, config) generates the same schedules, so
// two drivers offer identical request streams (sent counts match).
TEST(NetLoopback, DriverSchedulesAreDeterministicInTheSeed) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    LoopbackClientConfig cfg;
    cfg.port = server.port();
    cfg.connections = 2;
    cfg.load_kops = 2.0;
    cfg.duration = std::chrono::milliseconds(100);
    cfg.seed = 7;

    const LoopbackClientResult a = run_loopback_client(cfg);
    const LoopbackClientResult b = run_loopback_client(cfg);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.pushes, b.pushes);

    server.stop();
}

// Open descriptors of this process, so a failed start() can be checked
// for leaking the epoll, listen or wake fd it opened on the way.
std::size_t open_fds() {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        ++n;
    }
    return n;
}

TEST(NetLoopback, FailedStartsCloseEveryFd) {
    SecServer first(make_stack(), ServerConfig{});
    std::string err;
    ASSERT_TRUE(first.start(&err)) << err;

    {
        ServerConfig taken;
        taken.port = first.port();
        SecServer second(make_stack(), taken);
        const std::size_t before = open_fds();
        EXPECT_FALSE(second.start(&err));
        EXPECT_NE(err.find("bind"), std::string::npos) << err;
        EXPECT_EQ(open_fds(), before);
        second.stop();  // after a failed start: a no-op, then destruction
    }
    {
        ServerConfig bad_host;
        bad_host.host = "not-an-ip";
        SecServer third(make_stack(), bad_host);
        err.clear();
        const std::size_t before = open_fds();
        EXPECT_FALSE(third.start(&err));
        EXPECT_FALSE(err.empty());
        EXPECT_EQ(open_fds(), before);
        // Destroyed without an explicit stop().
    }
    first.stop();

    SecServer fresh(make_stack(), ServerConfig{});
    ASSERT_TRUE(fresh.start(&err)) << err;
    SyncClient client;
    ASSERT_TRUE(client.connect_to(fresh.port()));
    Message req, resp;
    req.type = MsgType::kPushReq;
    req.tag = 4;
    req.value = 123;
    ASSERT_TRUE(client.roundtrip(req, resp));
    EXPECT_TRUE(resp.ok);
    req = Message{};
    req.type = MsgType::kPopReq;
    req.tag = 5;
    ASSERT_TRUE(client.roundtrip(req, resp));
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.value, 123u);
    fresh.stop();
}

}  // namespace
}  // namespace sec::net
