// net_codec_test — the sec::net wire codec (net/protocol.hpp): round-trips
// for every message type, torn-read resumption, and the reject paths
// (oversized, zero-length, unknown-type, size-mismatched frames) that keep
// a desynchronized or hostile peer from wedging the server.
#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace sec::net {
namespace {

std::vector<Message> sample_messages() {
    Message push_req;
    push_req.type = MsgType::kPushReq;
    push_req.tag = 0xDEADBEEFCAFE0001ull;
    push_req.value = 0x0123456789ABCDEFull;

    Message pop_req;
    pop_req.type = MsgType::kPopReq;
    pop_req.tag = 42;

    Message stats_req;
    stats_req.type = MsgType::kStatsReq;
    stats_req.tag = ~std::uint64_t{0};

    Message push_resp;
    push_resp.type = MsgType::kPushResp;
    push_resp.tag = 7;
    push_resp.ok = false;

    Message pop_resp;
    pop_resp.type = MsgType::kPopResp;
    pop_resp.tag = 9;
    pop_resp.ok = true;
    pop_resp.value = 0xFFFFFFFFFFFFFFFFull;

    Message stats_resp;
    stats_resp.type = MsgType::kStatsResp;
    stats_resp.tag = 11;
    stats_resp.stats = {100, 60, 3, 17, 1};  // shape byte: fifo

    return {push_req, pop_req, stats_req, push_resp, pop_resp, stats_resp};
}

void expect_equal(const Message& a, const Message& b) {
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.tag, b.tag);
    switch (a.type) {
        case MsgType::kPushReq:
            EXPECT_EQ(a.value, b.value);
            break;
        case MsgType::kPopReq:
        case MsgType::kStatsReq:
            break;
        case MsgType::kPushResp:
            EXPECT_EQ(a.ok, b.ok);
            break;
        case MsgType::kPopResp:
            EXPECT_EQ(a.ok, b.ok);
            EXPECT_EQ(a.value, b.value);
            break;
        case MsgType::kStatsResp:
            EXPECT_EQ(a.stats.pushes, b.stats.pushes);
            EXPECT_EQ(a.stats.pops, b.stats.pops);
            EXPECT_EQ(a.stats.empties, b.stats.empties);
            EXPECT_EQ(a.stats.batches, b.stats.batches);
            EXPECT_EQ(a.stats.shape, b.stats.shape);
            break;
    }
}

TEST(NetCodec, RoundTripsEveryMessageType) {
    for (const Message& msg : sample_messages()) {
        std::vector<std::uint8_t> wire;
        encode(msg, wire);
        ASSERT_EQ(wire.size(), kHeaderBytes + payload_size(msg.type));

        Message decoded;
        const DecodeResult r = decode(wire.data(), wire.size(), decoded);
        ASSERT_EQ(r.status, DecodeStatus::kOk);
        EXPECT_EQ(r.consumed, wire.size());
        expect_equal(msg, decoded);
    }
}

TEST(NetCodec, DecodesAStreamOfBackToBackFrames) {
    const std::vector<Message> msgs = sample_messages();
    std::vector<std::uint8_t> wire;
    for (const Message& msg : msgs) encode(msg, wire);

    std::size_t off = 0;
    for (const Message& expected : msgs) {
        Message decoded;
        const DecodeResult r =
            decode(wire.data() + off, wire.size() - off, decoded);
        ASSERT_EQ(r.status, DecodeStatus::kOk);
        expect_equal(expected, decoded);
        off += r.consumed;
    }
    EXPECT_EQ(off, wire.size());
}

// A connection's output buffer appends reply after reply; encode must let
// it grow geometrically instead of reallocating (and copying) per frame.
TEST(NetCodec, AppendingFramesGrowsTheBufferGeometrically) {
    Message msg;
    msg.type = MsgType::kPopResp;
    msg.ok = true;
    std::vector<std::uint8_t> wire;
    std::size_t capacity = wire.capacity();
    int reallocations = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) {
        msg.tag = i;
        msg.value = i;
        encode(msg, wire);
        if (wire.capacity() != capacity) {
            capacity = wire.capacity();
            ++reallocations;
        }
    }
    EXPECT_EQ(wire.size(), 100000 * (kHeaderBytes + payload_size(msg.type)));
    EXPECT_LE(reallocations, 64);
}

// The stream reader's torn-read contract: any strict prefix of a frame is
// kNeedMore with nothing consumed, and the frame decodes intact once the
// last byte arrives — byte-at-a-time delivery (the TCP worst case) works.
TEST(NetCodec, TornReadsNeedMoreUntilTheLastByte) {
    for (const Message& msg : sample_messages()) {
        std::vector<std::uint8_t> wire;
        encode(msg, wire);
        for (std::size_t len = 0; len < wire.size(); ++len) {
            Message decoded;
            const DecodeResult r = decode(wire.data(), len, decoded);
            EXPECT_EQ(r.status, DecodeStatus::kNeedMore)
                << "prefix length " << len;
            EXPECT_EQ(r.consumed, 0u);
        }
        Message decoded;
        const DecodeResult r = decode(wire.data(), wire.size(), decoded);
        ASSERT_EQ(r.status, DecodeStatus::kOk);
        expect_equal(msg, decoded);
    }
}

TEST(NetCodec, RejectsOversizedFramesFromTheHeaderAlone) {
    // Header claims kMaxPayload + 1 bytes; only the header is present. The
    // decoder must reject immediately rather than ask for the body.
    const std::uint32_t huge = static_cast<std::uint32_t>(kMaxPayload) + 1;
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < 4; ++i) {
        wire.push_back(static_cast<std::uint8_t>(huge >> (8 * i)));
    }
    Message decoded;
    EXPECT_EQ(decode(wire.data(), wire.size(), decoded).status,
              DecodeStatus::kError);

    // Same for an absurd length (a peer speaking a different protocol).
    wire.assign({0xFF, 0xFF, 0xFF, 0xFF});
    EXPECT_EQ(decode(wire.data(), wire.size(), decoded).status,
              DecodeStatus::kError);
}

TEST(NetCodec, RejectsZeroLengthFrames) {
    const std::vector<std::uint8_t> wire = {0, 0, 0, 0};
    Message decoded;
    EXPECT_EQ(decode(wire.data(), wire.size(), decoded).status,
              DecodeStatus::kError);
}

TEST(NetCodec, RejectsUnknownTypeBytes) {
    // A 9-byte payload (the kPopReq size) with a type byte nothing maps to.
    std::vector<std::uint8_t> wire = {9, 0, 0, 0, 0x7F};
    for (int i = 0; i < 8; ++i) wire.push_back(0);
    Message decoded;
    EXPECT_EQ(decode(wire.data(), wire.size(), decoded).status,
              DecodeStatus::kError);

    EXPECT_EQ(payload_size(static_cast<MsgType>(0x7F)), 0u);
    EXPECT_EQ(payload_size(static_cast<MsgType>(0)), 0u);
}

TEST(NetCodec, RejectsTypeSizeMismatches) {
    // A valid kPushReq re-labelled with a kPopReq length: the header says 9
    // bytes but the type's wire size is 17.
    Message msg;
    msg.type = MsgType::kPushReq;
    msg.tag = 5;
    msg.value = 6;
    std::vector<std::uint8_t> wire;
    encode(msg, wire);
    wire[0] = 9;  // lie about the payload length (LSB of the u32 prefix)
    Message decoded;
    EXPECT_EQ(decode(wire.data(), wire.size(), decoded).status,
              DecodeStatus::kError);
}

TEST(NetCodec, GarbageHeaderNeverConsumes) {
    const std::vector<std::uint8_t> garbage = {0xAA, 0xBB, 0xCC, 0xDD, 0xEE,
                                               0x11, 0x22, 0x33, 0x44, 0x55};
    Message decoded;
    const DecodeResult r = decode(garbage.data(), garbage.size(), decoded);
    EXPECT_EQ(r.status, DecodeStatus::kError);
    EXPECT_EQ(r.consumed, 0u);
}

}  // namespace
}  // namespace sec::net
