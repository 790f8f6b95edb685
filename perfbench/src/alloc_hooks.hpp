// alloc_hooks.hpp — the benchmark binary replaces global operator
// new/delete (alloc_hooks.cpp) to attribute allocator work to the container
// calls that cause it.
//
// Outside a traced run nothing sets `t_counts`, and the replacement forwards
// straight to malloc/free after one thread-local load. In a traced run the
// benchmark wraps each container call in an OpScope: allocations and frees
// made inside it are counted, and inside a sampled call (trace::t_buffer
// set) each one is also recorded as a child span of that call.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

// Single-writer: owned by one thread, read after that thread is joined.
struct Counts {
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
};

extern thread_local Counts* t_counts;

class OpScope {
public:
    explicit OpScope(Counts* c) noexcept { t_counts = c; }
    ~OpScope() { t_counts = nullptr; }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;
};

}  // namespace perfbench::alloc
