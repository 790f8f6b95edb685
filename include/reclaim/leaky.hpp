// reclaim/leaky.hpp — LeakyDomain: the no-op baseline that bounds the cost
// ceiling of reclamation.
//
// Readers pay nothing and retires only append to a per-thread backlog;
// nothing is freed until the domain is destroyed (at which point everything
// is, so ASan runs stay clean and the conformance suite can count
// destructors). drain_all() is deliberately a no-op: without any reader
// tracking there is never a moment mid-run when freeing is provably safe.
// Comparing any real scheme against this one isolates the price of safety:
// throughput above LeakyDomain is overhead, limbo growth below it is memory
// the scheme actually returned.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>  // std::lock_guard
#include <string_view>
#include <vector>

#include "core/common.hpp"
#include "reclaim/reclaimer.hpp"

namespace sec::reclaim {

class LeakyDomain {
public:
    static constexpr std::string_view kName = "leak";
    static constexpr bool kBlanketProtection = true;
    static constexpr bool kDrainsOnDemand = false;

    using Guard = detail::BlanketGuard<LeakyDomain>;

    LeakyDomain() = default;
    ~LeakyDomain() {
        std::uint64_t freed = 0;
        for (RetiredList& list : lists_) {
            freed += detail::free_backlog(list.items);
        }
        counters_.note_freed(freed);
    }

    LeakyDomain(const LeakyDomain&) = delete;
    LeakyDomain& operator=(const LeakyDomain&) = delete;

    template <class T>
    void retire(T* p) {
        retire_erased(p, [](void* q) { delete static_cast<T*>(q); });
    }

    void retire_erased(void* p, void (*deleter)(void*)) {
        const std::size_t id = sec::detail::tid();
        counters_.note_retired();
        std::lock_guard lock(lists_[id].lock);
        lists_[id].items.push_back({p, deleter});
    }

    // Deliberate no-op; see the header comment.
    void drain_all() noexcept {}

    Stats stats() const noexcept { return counters_.snapshot(); }

    void quiesce() noexcept {}
    void offline() noexcept {}

private:
    struct alignas(kCacheLineSize) RetiredList {
        sec::detail::SpinLock lock;
        std::vector<detail::RetiredPtr> items;
    };

    detail::Accounting counters_;
    RetiredList lists_[kMaxThreads];
};

}  // namespace sec::reclaim
