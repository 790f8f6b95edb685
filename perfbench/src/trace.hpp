// trace.hpp — sampled spans recorded by the benchmark around its calls into
// the library, kept in memory and written out when the run ends.
//
// A span is {id, parent, name, start, end, thread}. Container calls
// (push/pop) are parents of the allocator calls made inside them; a served
// request is the parent of its encode, send, recv and decode calls. The
// buffers are fixed-capacity and never allocate while recording, so the
// allocator hooks (alloc_hooks.hpp) can record into them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench::trace {

enum class Name : std::uint8_t {
    kPush,
    kPop,
    kAlloc,
    kFree,
    kRequest,
    kEncode,
    kSend,
    kRecv,
    kDecode,
    kCount,
};
const char* name_of(Name n) noexcept;

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = a root span
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    Name name = Name::kPush;
    std::uint8_t thread = 0;
};

// One writer thread's spans. Full buffers drop further spans and count them.
class Buffer {
public:
    Buffer(std::uint8_t thread, std::size_t capacity);

    std::uint64_t next_id() noexcept {
        return (std::uint64_t{thread_} << 48) | ++seq_;
    }
    void record(Name name, std::uint64_t id, std::uint64_t parent,
                std::uint64_t start_ns, std::uint64_t end_ns) noexcept {
        if (size_ < capacity_) {
            data_[size_++] = {id, parent, start_ns, end_ns, name, thread_};
        } else {
            ++dropped_;
        }
    }

    std::size_t size() const noexcept { return size_; }
    std::uint64_t dropped() const noexcept { return dropped_; }
    const Span& operator[](std::size_t i) const noexcept { return data_[i]; }

private:
    std::unique_ptr<Span[]> data_;
    std::size_t capacity_;
    std::size_t size_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint8_t thread_;
};

// The calling thread's open sampled container call: allocator hooks record
// their spans into `t_buffer` as children of `t_parent`. Null outside one.
extern thread_local Buffer* t_buffer;
extern thread_local std::uint64_t t_parent;

// Per span name: how many were recorded, their summed duration, and the
// summed self time (duration minus the part covered by child spans).
struct Summary {
    struct Row {
        std::uint64_t count = 0;
        double total_ns = 0.0;
        double self_ns = 0.0;
    };
    std::array<Row, static_cast<std::size_t>(Name::kCount)> rows{};
    std::uint64_t dropped = 0;

    const Row& operator[](Name n) const noexcept {
        return rows[static_cast<std::size_t>(n)];
    }
};

// Owns the buffers of one traced run.
class Recorder {
public:
    Buffer& add_buffer(std::size_t capacity);
    Summary summarize() const;
    // CSV: thread,id,parent,name,start_ns,end_ns. False when the file
    // cannot be written.
    bool write(const std::string& path) const;
    std::size_t spans() const noexcept;

private:
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench::trace
