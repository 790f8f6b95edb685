// reclaim/reclaimer.hpp — the pluggable memory-reclamation interface.
//
// A Reclaimer is a domain that takes ownership of retired pointers and frees
// them once no reader can still hold a reference. Four implementations model
// the classic safety/latency/memory trade-off space:
//
//   EpochDomain  (epoch.hpp)  DEBRA-style EBR — the paper's §4 scheme
//   QsbrDomain   (qsbr.hpp)   quiescent-state; the workload runner announces
//                             quiescence at every iteration boundary
//   HazardDomain (hazard.hpp) per-thread hazard-pointer slots, scan-and-free
//   LeakyDomain  (leaky.hpp)  no-op baseline; frees only at destruction
//
// Readers protect themselves with the domain's nested Guard (RAII). Blanket
// schemes (EBR/QSBR/leaky) make every pointer reachable during the guard's
// lifetime safe to dereference; hazard pointers protect only pointers
// announced through the guard's protect()/publish() slots, which the shared
// spine primitives (core/spine.hpp) call on every traversal step. The
// kBlanketProtection flag lets structures whose traversals cannot announce
// per-node hazards (TsiStack's all-pool scan) reject non-blanket reclaimers
// at compile time.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/common.hpp"

namespace sec::reclaim {

// One consistent accounting snapshot. `freed` is loaded before `retired`
// (and clamped), so `in_limbo()` can never wrap to a huge value the way two
// independently-loaded counters can when a free lands between the loads.
struct Stats {
    std::uint64_t retired = 0;    // handed to retire() so far
    std::uint64_t freed = 0;      // deleters actually run
    std::uint64_t limbo_hwm = 0;  // high-water mark of retired - freed

    std::uint64_t in_limbo() const noexcept { return retired - freed; }
};

template <class R>
concept Reclaimer =
    requires(R r, const R cr, R& ref, void* p, void (*deleter)(void*)) {
        typename R::Guard;
        requires std::constructible_from<typename R::Guard, R&>;
        { R::kName } -> std::convertible_to<std::string_view>;
        { R::kBlanketProtection } -> std::convertible_to<bool>;
        { R::kDrainsOnDemand } -> std::convertible_to<bool>;
        r.retire_erased(p, deleter);
        r.drain_all();
        r.quiesce();
        r.offline();
        { cr.stats() } -> std::same_as<Stats>;
    };

// Owns a private domain by default, or borrows an external one — the shared
// plumbing behind every stack's `(args...)` / `(args..., R&)` ctor pair.
template <class R>
class DomainRef {
public:
    DomainRef() : owned_(std::make_unique<R>()), domain_(owned_.get()) {}
    explicit DomainRef(R& d) noexcept : domain_(&d) {}

    R& operator*() const noexcept { return *domain_; }
    R* operator->() const noexcept { return domain_; }

private:
    std::unique_ptr<R> owned_;
    R* domain_;
};

// Type-erased owning handle over any Reclaimer — what the registry and the
// reclamation scenario pass around so one StackParams field can carry a
// domain of any scheme. get<R>() recovers the concrete domain (nullptr on
// scheme mismatch), which the per-variant stack factories rely on.
class DomainHandle {
public:
    DomainHandle() = default;
    DomainHandle(DomainHandle&& o) noexcept : ptr_(o.ptr_), ops_(o.ops_) {
        o.ptr_ = nullptr;
        o.ops_ = nullptr;
    }
    DomainHandle& operator=(DomainHandle&& o) noexcept {
        if (this != &o) {
            reset();
            ptr_ = o.ptr_;
            ops_ = o.ops_;
            o.ptr_ = nullptr;
            o.ops_ = nullptr;
        }
        return *this;
    }
    DomainHandle(const DomainHandle&) = delete;
    DomainHandle& operator=(const DomainHandle&) = delete;
    ~DomainHandle() { reset(); }

    template <Reclaimer R>
    static DomainHandle make() {
        DomainHandle h;
        h.ptr_ = new R();
        h.ops_ = ops_for<R>();
        return h;
    }

    explicit operator bool() const noexcept { return ptr_ != nullptr; }
    std::string_view scheme() const noexcept { return ops_->name; }
    Stats stats() const { return ops_->stats(ptr_); }
    void drain_all() const { ops_->drain(ptr_); }

    template <Reclaimer R>
    R* get() const noexcept {
        return (ops_ != nullptr && ops_->name == R::kName)
                   ? static_cast<R*>(ptr_)
                   : nullptr;
    }

private:
    struct Ops {
        std::string_view name;
        Stats (*stats)(void*);
        void (*drain)(void*);
        void (*destroy)(void*);
    };

    template <Reclaimer R>
    static const Ops* ops_for() {
        static const Ops ops{
            R::kName,
            [](void* p) { return static_cast<const R*>(p)->stats(); },
            [](void* p) { static_cast<R*>(p)->drain_all(); },
            [](void* p) { delete static_cast<R*>(p); },
        };
        return &ops;
    }

    void reset() noexcept {
        if (ptr_ != nullptr) ops_->destroy(ptr_);
        ptr_ = nullptr;
        ops_ = nullptr;
    }

    void* ptr_ = nullptr;
    const Ops* ops_ = nullptr;
};

namespace detail {

// CAS-max of `candidate` into `hwm` (the limbo high-water mark tracker).
inline void raise_hwm(std::atomic<std::uint64_t>& hwm,
                      std::uint64_t candidate) noexcept {
    std::uint64_t cur = hwm.load(std::memory_order_relaxed);
    while (candidate > cur &&
           !hwm.compare_exchange_weak(cur, candidate,
                                      std::memory_order_relaxed)) {
    }
}

// The read-side guard of every blanket-protection scheme: any pointer
// reachable while the guard lives is safe to dereference, so protect() is a
// plain load and publish()/validate() compile away. The single definition
// keeps the three blanket schemes from diverging; EpochDomain derives from
// it to add its enter/exit bracketing, QSBR and leaky use it as-is.
template <class D>
class BlanketGuard {
public:
    explicit BlanketGuard(D& d) noexcept : d_(d) {}
    BlanketGuard(const BlanketGuard&) = delete;
    BlanketGuard& operator=(const BlanketGuard&) = delete;

    D& domain() const noexcept { return d_; }

    template <class T>
    T* protect(unsigned /*slot*/, const std::atomic<T*>& src) const noexcept {
        return src.load(std::memory_order_acquire);
    }
    template <class T>
    void publish(unsigned /*slot*/, T* /*p*/) const noexcept {}
    template <class T>
    bool validate(const std::atomic<T*>& /*src*/,
                  T* /*expected*/) const noexcept {
        return true;
    }

private:
    D& d_;
};

// A retired pointer awaiting its deleter — the backlog entry of the domains
// that defer frees to scans or destruction (hazard, leaky).
struct RetiredPtr {
    void* p;
    void (*deleter)(void*);
};

// Run every deleter in `items` and clear it; returns how many were freed.
// The destructor contract behind it: no Guard outlives the domain, so every
// backlog entry is freeable unconditionally.
inline std::uint64_t free_backlog(std::vector<RetiredPtr>& items) {
    for (const RetiredPtr& r : items) r.deleter(r.p);
    const std::uint64_t n = items.size();
    items.clear();
    return n;
}

// Shared retired/freed/high-water accounting for every domain. snapshot()
// is the single home of the ordering-sensitive one-call Stats read: freed
// is loaded BEFORE retired (freed <= retired holds at every instant, so the
// later-loaded retired can only be >= the earlier-loaded freed) and clamped,
// which is what keeps in_limbo() from wrapping when a free lands between
// the loads. Domains must not re-implement this read.
class Accounting {
public:
    // Call before the retired entry becomes freeable by a concurrent
    // sweep/scan: freed must never be observable above retired.
    void note_retired() noexcept {
        const std::uint64_t r =
            retired_.fetch_add(1, std::memory_order_acq_rel) + 1;
        const std::uint64_t f = freed_.load(std::memory_order_acquire);
        // `f` can race past our `r` sample while other threads retire and
        // free, so clamp before tracking the high-water mark.
        if (r > f) raise_hwm(hwm_, r - f);
    }

    void note_freed(std::uint64_t n) noexcept {
        if (n > 0) freed_.fetch_add(n, std::memory_order_acq_rel);
    }

    Stats snapshot() const noexcept {
        Stats s;
        s.freed = freed_.load(std::memory_order_acquire);  // first; see above
        s.retired = retired_.load(std::memory_order_acquire);
        s.limbo_hwm = hwm_.load(std::memory_order_relaxed);
        if (s.freed > s.retired) s.freed = s.retired;  // belt and braces
        return s;
    }

private:
    std::atomic<std::uint64_t> retired_{0};
    std::atomic<std::uint64_t> freed_{0};
    std::atomic<std::uint64_t> hwm_{0};
};

}  // namespace detail
}  // namespace sec::reclaim
