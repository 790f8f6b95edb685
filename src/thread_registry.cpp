// thread_registry.cpp — recycled small thread ids (see core/common.hpp).
#include "core/common.hpp"

#include <bitset>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace sec::detail {
namespace {

std::mutex g_mutex;
std::bitset<kMaxThreads> g_in_use;
std::atomic<std::size_t> g_hwm{0};  // see tid_hwm()

std::size_t acquire_id() {
    std::lock_guard<std::mutex> lock(g_mutex);
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
        if (!g_in_use.test(i)) {
            g_in_use.set(i);
            if (i + 1 > g_hwm.load(std::memory_order_relaxed)) {
                g_hwm.store(i + 1, std::memory_order_relaxed);
            }
            return i;
        }
    }
    std::fprintf(stderr,
                 "sec: more than %zu live threads; raise sec::kMaxThreads\n",
                 kMaxThreads);
    std::abort();
}

void release_id(std::size_t id) noexcept {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_in_use.reset(id);
    std::size_t hwm = g_hwm.load(std::memory_order_relaxed);
    while (hwm > 0 && !g_in_use.test(hwm - 1)) --hwm;
    g_hwm.store(hwm, std::memory_order_relaxed);
}

struct TidHolder {
    std::size_t id = acquire_id();
    ~TidHolder() { release_id(id); }
};

}  // namespace

std::size_t tid() noexcept {
    thread_local TidHolder holder;
    return holder.id;
}

std::size_t tid_hwm() noexcept {
    return g_hwm.load(std::memory_order_relaxed);
}

}  // namespace sec::detail
