// Replacement global allocation functions (see alloc_hooks.hpp). Every
// form forwards to malloc/posix_memalign/free; the counting and span
// recording happen only inside an OpScope of a traced run.
#include "alloc_hooks.hpp"

#include <cstdlib>
#include <new>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench::alloc {

thread_local Counts* t_counts = nullptr;

namespace {

void* raw_alloc(std::size_t n, std::size_t align) noexcept {
    if (n == 0) n = 1;
    if (align <= alignof(std::max_align_t)) return std::malloc(n);
    void* p = nullptr;
    return ::posix_memalign(&p, align, n) == 0 ? p : nullptr;
}

void* hooked_alloc(std::size_t n, std::size_t align) noexcept {
    Counts* c = t_counts;
    if (c == nullptr) return raw_alloc(n, align);
    ++c->allocs;
    trace::Buffer* buf = trace::t_buffer;
    if (buf == nullptr) return raw_alloc(n, align);
    const std::uint64_t t0 = now_ns();
    void* p = raw_alloc(n, align);
    buf->record(trace::Name::kAlloc, buf->next_id(), trace::t_parent, t0,
                now_ns());
    return p;
}

void hooked_free(void* p) noexcept {
    if (p == nullptr) return;
    Counts* c = t_counts;
    if (c == nullptr) {
        std::free(p);
        return;
    }
    ++c->frees;
    trace::Buffer* buf = trace::t_buffer;
    if (buf == nullptr) {
        std::free(p);
        return;
    }
    const std::uint64_t t0 = now_ns();
    std::free(p);
    buf->record(trace::Name::kFree, buf->next_id(), trace::t_parent, t0,
                now_ns());
}

void* alloc_or_throw(std::size_t n, std::size_t align) {
    if (void* p = hooked_alloc(n, align)) return p;
    throw std::bad_alloc();
}

}  // namespace
}  // namespace perfbench::alloc

using perfbench::alloc::alloc_or_throw;
using perfbench::alloc::hooked_alloc;
using perfbench::alloc::hooked_free;

void* operator new(std::size_t n) { return alloc_or_throw(n, 0); }
void* operator new[](std::size_t n) { return alloc_or_throw(n, 0); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    return hooked_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    return hooked_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
    return alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
    return alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
    return hooked_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
    return hooked_alloc(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { hooked_free(p); }
void operator delete[](void* p) noexcept { hooked_free(p); }
void operator delete(void* p, std::size_t) noexcept { hooked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { hooked_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { hooked_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    hooked_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { hooked_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { hooked_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    hooked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    hooked_free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    hooked_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
    hooked_free(p);
}
