#include "trace.hpp"

#include <cstdio>
#include <unordered_map>

namespace perfbench::trace {

thread_local Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_parent = 0;

const char* name_of(Name n) noexcept {
    switch (n) {
        case Name::kPush: return "push";
        case Name::kPop: return "pop";
        case Name::kAlloc: return "alloc";
        case Name::kFree: return "free";
        case Name::kRequest: return "request";
        case Name::kEncode: return "encode";
        case Name::kSend: return "send";
        case Name::kRecv: return "recv";
        case Name::kDecode: return "decode";
        case Name::kCount: break;
    }
    return "?";
}

Buffer::Buffer(std::uint8_t thread, std::size_t capacity)
    : data_(std::make_unique<Span[]>(capacity)),
      capacity_(capacity),
      thread_(thread) {}

Buffer& Recorder::add_buffer(std::size_t capacity) {
    buffers_.push_back(std::make_unique<Buffer>(
        static_cast<std::uint8_t>(buffers_.size() + 1), capacity));
    return *buffers_.back();
}

std::size_t Recorder::spans() const noexcept {
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b->size();
    return n;
}

Summary Recorder::summarize() const {
    // Children of one parent never overlap (they are sequential calls on
    // the parent's thread), so the covered part is the sum of durations.
    std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
    for (const auto& b : buffers_) {
        for (std::size_t i = 0; i < b->size(); ++i) {
            const Span& s = (*b)[i];
            if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
        }
    }
    Summary sum;
    for (const auto& b : buffers_) {
        sum.dropped += b->dropped();
        for (std::size_t i = 0; i < b->size(); ++i) {
            const Span& s = (*b)[i];
            Summary::Row& row = sum.rows[static_cast<std::size_t>(s.name)];
            const double dur = static_cast<double>(s.end_ns - s.start_ns);
            const auto it = child_ns.find(s.id);
            const double covered =
                it == child_ns.end() ? 0.0 : static_cast<double>(it->second);
            ++row.count;
            row.total_ns += dur;
            row.self_ns += dur - covered;
        }
    }
    return sum;
}

bool Recorder::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("thread,id,parent,name,start_ns,end_ns\n", f);
    for (const auto& b : buffers_) {
        for (std::size_t i = 0; i < b->size(); ++i) {
            const Span& s = (*b)[i];
            std::fprintf(f, "%u,%llu,%llu,%s,%llu,%llu\n",
                         static_cast<unsigned>(s.thread),
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         name_of(s.name),
                         static_cast<unsigned long long>(s.start_ns),
                         static_cast<unsigned long long>(s.end_ns));
        }
    }
    return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
