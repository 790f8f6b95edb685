// reclaim/hazard.hpp — HazardDomain: hazard-pointer reclamation (Michael,
// PODC'02 lineage).
//
// Each thread owns a small block of hazard slots. A reader announces the
// pointer it is about to dereference in a slot (Guard::protect loops
// publish-then-revalidate until the announcement is stable), and a retire
// only frees pointers that appear in no slot — so protection is per-pointer,
// not blanket: structures must announce every node they dereference
// (kBlanketProtection == false). The shared spine primitives do exactly
// that; TsiStack's all-pool scan cannot, and rejects this domain at compile
// time.
//
// Frees are batched: every kScanInterval retires, the retiring thread scans
// the hazard slots of all threads seen so far and frees its own retired
// backlog minus the protected set. Memory in limbo is therefore bounded by
// threads x kScanInterval + live hazards, independent of run length — the
// tightest bound of the four schemes, paid for with two ordered stores per
// protected dereference.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/common.hpp"
#include "reclaim/reclaimer.hpp"

namespace sec::reclaim {

class HazardDomain {
public:
    static constexpr std::string_view kName = "hp";
    static constexpr bool kBlanketProtection = false;
    static constexpr bool kDrainsOnDemand = true;
    // Slots per thread: the spine walk needs 2 (anchor + walker); 4 leaves
    // headroom for richer traversals.
    static constexpr unsigned kSlotsPerThread = 4;

    class Guard {
    public:
        explicit Guard(HazardDomain& d) noexcept
            : d_(d), id_(sec::detail::tid()) {
            d_.note_thread(id_);
        }
        ~Guard() { clear(); }
        Guard(const Guard&) = delete;
        Guard& operator=(const Guard&) = delete;

        HazardDomain& domain() const noexcept { return d_; }

        // Publish-then-revalidate until the announced pointer is still what
        // `src` holds: once that holds, the pointer cannot be freed while
        // the slot keeps naming it.
        template <class T>
        T* protect(unsigned slot, const std::atomic<T*>& src) noexcept {
            T* p = src.load(std::memory_order_acquire);
            for (;;) {
                publish(slot, p);
                T* q = src.load(std::memory_order_seq_cst);
                // The announcement is stable unless `src` moved in the
                // publish-to-revalidate window — a few nanoseconds, so one
                // pass is the overwhelmingly common shape.
                if (SEC_LIKELY(q == p)) return p;
                p = q;
            }
        }

        // Raw announcement for walk steps whose validity the caller proves
        // separately (spine_detach_chain revalidates the anchor after this).
        template <class T>
        void publish(unsigned slot, T* p) noexcept {
            d_.slots_[id_].hp[slot].store(
                const_cast<std::remove_const_t<T>*>(p),
                std::memory_order_seq_cst);
            used_ |= 1u << slot;
        }

        template <class T>
        bool validate(const std::atomic<T*>& src, T* expected) const noexcept {
            return src.load(std::memory_order_seq_cst) == expected;
        }

    private:
        void clear() noexcept {
            for (unsigned i = 0; used_ != 0; ++i, used_ >>= 1) {
                if (used_ & 1u) {
                    d_.slots_[id_].hp[i].store(nullptr,
                                               std::memory_order_release);
                }
            }
        }

        HazardDomain& d_;
        std::size_t id_;
        unsigned used_ = 0;
    };

    HazardDomain() = default;
    ~HazardDomain();

    HazardDomain(const HazardDomain&) = delete;
    HazardDomain& operator=(const HazardDomain&) = delete;

    template <class T>
    void retire(T* p) {
        retire_erased(p, [](void* q) { delete static_cast<T*>(q); });
    }
    void retire_erased(void* p, void (*deleter)(void*));

    // Scan every thread's retired backlog; frees all but the pointers still
    // hazard-protected somewhere.
    void drain_all();

    Stats stats() const noexcept { return counters_.snapshot(); }

    // Hazard slots carry the protection; the runner hooks are no-ops.
    void quiesce() noexcept {}
    void offline() noexcept {}

private:
    // Retires between scan-and-free passes on the owning thread's backlog.
    static constexpr std::uint32_t kScanInterval = 128;

    struct alignas(kCacheLineSize) SlotBlock {
        std::atomic<void*> hp[kSlotsPerThread] = {};
    };

    struct alignas(kCacheLineSize) RetiredList {
        sec::detail::SpinLock lock;
        std::vector<detail::RetiredPtr> items;
        std::uint32_t retires_since_scan = 0;
    };

    // Record `id` in the scanned-thread bound (ids are small and recycled,
    // so the bound stays near the live thread count).
    void note_thread(std::size_t id) noexcept {
        std::size_t bound = tid_bound_.load(std::memory_order_relaxed);
        while (id >= bound &&
               !tid_bound_.compare_exchange_weak(bound, id + 1,
                                                 std::memory_order_seq_cst)) {
        }
    }

    void collect_hazards(std::vector<void*>& out) const;
    void scan(std::size_t id);

    detail::Accounting counters_;
    std::atomic<std::size_t> tid_bound_{0};  // exclusive bound on ids seen
    SlotBlock slots_[kMaxThreads];
    RetiredList lists_[kMaxThreads];
};

}  // namespace sec::reclaim
