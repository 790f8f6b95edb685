// core/spine.hpp — the lock-free Treiber spine shared by SecStack, ElimPool,
// and TreiberStack: batched single-CAS chain push, batched single-CAS
// multi-pop with reclaimer retirement, and teardown. Keeping it in one place
// keeps the structures from diverging.
//
// The walks run under a reclaimer Guard (reclaim/reclaimer.hpp) rather than
// assuming EBR: pop opens one on the domain it is given, peek takes the
// caller's. Blanket guards (EBR/QSBR/leaky) compile to the
// plain walk; hazard-pointer guards additionally announce each node before
// it is dereferenced and revalidate the anchor: as long as `top` still
// equals the protected head, no node of the chain under it can have been
// popped — a spine node is never re-pushed while a hazard or epoch protects
// it, and the protected head therefore cannot have been recycled — so the
// whole prefix is intact and the freshly-announced walker node was live when
// its hazard was published.
//
// Nodes are recycled, not freed: a pop retires each node with node_recycle
// as its deleter, so the reclaimer hands the node back to the node cache
// (below) only after its grace period or hazard scan has cleared it, and
// the next push on that thread reuses it without touching the heap.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>  // std::lock_guard
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/common.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SEC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SEC_ASAN 1
#endif
#endif
#if defined(SEC_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace sec::detail {

template <class V>
struct SpineNode {
    V value;
    SpineNode* next;
};

// The spine's node cache (Bonwick & Adams, "Magazines and Vmem", USENIX ATC
// 2001, cut down to one node type). Each thread keeps two magazines of up
// to kMagazine free nodes, linked through `next`: node_new() takes from the
// alloc magazine, node_recycle() gives to the free magazine. When the alloc
// magazine runs dry it swaps in the free one; when both are empty it takes
// a full magazine from the process-wide depot, and when the depot is empty
// too the next kMagazine calls of node_new() allocate from the heap, one
// node each, without looking at the caches. A full free magazine becomes
// the alloc magazine if that one is empty, else goes to the depot. The
// depot lock is taken only to move a full magazine, and an empty depot is
// looked at once per kMagazine heap nodes, so a growing stack never takes
// it per node. (Allocating the whole magazine at once was slower: 131072
// single-thread pushes took 3.3 ms against 2.4 ms without a cache.) The
// depot holds at most kDepotMagazines magazines; one past that bound goes
// back to the heap, which keeps a drained stack's nodes from pinning
// memory.
//
// A thread that exits hands its full magazines to the depot and frees its
// partial ones; after that, its calls fall through to new/delete. The depot
// is a leaked singleton, so it outlives static teardown (its nodes stay
// reachable, which LeakSanitizer does not report). Under AddressSanitizer a
// cached node's value is poisoned, so a read after recycling still reports.
template <class V>
class SpineNodeCache {
public:
    using Node = SpineNode<V>;

    static constexpr std::uint32_t kMagazine = 64;
    // Kept small: a cached node stands in for a heap chunk that the
    // allocator keeps for the arena it came from, so every cached node adds
    // to peak RSS (lifo_fill_drain; DESIGN.md §10 has the figures).
    static constexpr std::size_t kDepotMagazines = 32;

    // A node to construct over, or nullptr: the caches are empty (or the
    // thread has exited), and the caller allocates from the heap.
    static Node* acquire() {
        Local& l = t_local;
        if (SEC_UNLIKELY(l.alloc.count == 0) && !refill(l)) return nullptr;
        return l.alloc.pop();
    }

    // Caches `n`; false once the thread has exited (the caller deletes it).
    static bool release(Node* n) {
        Local& l = t_local;
        if (SEC_UNLIKELY(l.state != State::kLive ||
                         l.free.count == kMagazine) &&
            !spill(l)) {
            return false;
        }
        l.free.push(n);
        return true;
    }

    // Full magazines in the depot (tests check the bound).
    static std::size_t depot_magazines() noexcept {
        return depot().count.load(std::memory_order_relaxed);
    }

private:
    // Only the value is poisoned: LeakSanitizer does not follow pointers
    // stored in poisoned memory, and `next` links the cached nodes.
    static void poison(Node* n) noexcept {
#if defined(SEC_ASAN)
        ASAN_POISON_MEMORY_REGION(&n->value, sizeof(n->value));
#else
        (void)n;
#endif
    }
    static void unpoison(Node* n) noexcept {
#if defined(SEC_ASAN)
        ASAN_UNPOISON_MEMORY_REGION(&n->value, sizeof(n->value));
#else
        (void)n;
#endif
    }

    static void delete_list(Node* n) noexcept {
        while (n != nullptr) {
            unpoison(n);
            Node* next = n->next;
            delete n;
            n = next;
        }
    }

    struct Magazine {
        Node* head = nullptr;
        std::uint32_t count = 0;

        void push(Node* n) noexcept {
            n->next = head;
            poison(n);
            head = n;
            ++count;
        }
        Node* pop() noexcept {
            Node* n = head;
            unpoison(n);
            head = n->next;
            --count;
            return n;
        }
    };

    struct Depot {
        SpinLock lock;
        std::atomic<std::size_t> count{0};  // written under `lock`
        Node* mags[kDepotMagazines];

        // A full magazine's head, or nullptr. The unlocked peek keeps an
        // empty depot (a stack growing past what the caches hold) off the
        // lock.
        Node* take() noexcept {
            if (count.load(std::memory_order_relaxed) == 0) return nullptr;
            std::lock_guard guard(lock);
            const std::size_t c = count.load(std::memory_order_relaxed);
            if (c == 0) return nullptr;
            count.store(c - 1, std::memory_order_relaxed);
            return mags[c - 1];
        }
        void put(Node* head) noexcept {
            {
                std::lock_guard guard(lock);
                const std::size_t c = count.load(std::memory_order_relaxed);
                if (c < kDepotMagazines) {
                    mags[c] = head;
                    count.store(c + 1, std::memory_order_relaxed);
                    return;
                }
            }
            delete_list(head);
        }
    };

    static Depot& depot() {
        static Depot* const d = new Depot;  // leaked: see the class comment
        return *d;
    }

    enum class State : std::uint8_t { kFresh, kLive, kExited };

    // Trivially destructible, so it stays usable after Exit has run: a
    // stack destroyed later in thread or static teardown sees kExited and
    // falls back to new/delete.
    struct Local {
        Magazine alloc;
        Magazine free;
        // Heap allocations left before the caches are tried again: one
        // miss sends the next kMagazine nodes to the heap.
        std::uint32_t heap_run = 0;
        State state = State::kFresh;
    };

    // Flushes the thread's magazines at thread exit.
    struct Exit {
        ~Exit() {
            Local& l = t_local;
            l.state = State::kExited;
            flush(l.alloc);
            flush(l.free);
        }
        static void flush(Magazine& m) noexcept {
            if (m.count == kMagazine) {
                depot().put(m.head);
            } else {
                delete_list(m.head);
            }
            m = Magazine{};
        }
    };

    // First call on a thread registers its exit flush; false once exited.
    static bool live(Local& l) {
        if (l.state == State::kLive) return true;
        if (l.state == State::kExited) return false;
        static thread_local Exit flush_at_exit;
        (void)flush_at_exit;
        l.state = State::kLive;
        return true;
    }

    static bool refill(Local& l) {
        if (l.heap_run > 0) {
            --l.heap_run;
            return false;
        }
        if (!live(l)) return false;
        if (l.free.count > 0) {
            std::swap(l.alloc, l.free);
        } else if (Node* head = depot().take()) {
            l.alloc = Magazine{head, kMagazine};
        } else {
            l.heap_run = kMagazine - 1;
            return false;
        }
        return true;
    }

    static bool spill(Local& l) {
        if (!live(l)) return false;
        if (l.free.count < kMagazine) return true;
        if (l.alloc.count == 0) {
            std::swap(l.alloc, l.free);
        } else {
            depot().put(l.free.head);
            l.free = Magazine{};
        }
        return true;
    }

    static constinit inline thread_local Local t_local{};
};

// Only trivially destructible values are cached: a recycled node is
// constructed over without destroying its old value.
template <class V>
inline constexpr bool kCachedNode = std::is_trivially_destructible_v<V>;

template <class V>
SpineNode<V>* node_new(const V& v, SpineNode<V>* next) {
    if constexpr (kCachedNode<V>) {
        if (SpineNode<V>* n = SpineNodeCache<V>::acquire()) {
            return ::new (static_cast<void*>(n)) SpineNode<V>{v, next};
        }
    }
    return new SpineNode<V>{v, next};
}

// The deleter a pop retires its nodes with.
template <class V>
void node_recycle(void* p) {
    auto* n = static_cast<SpineNode<V>*>(p);
    if constexpr (kCachedNode<V>) {
        if (SpineNodeCache<V>::release(n)) return;
    }
    delete n;
}

// Link vals[0..n) above the current top with a single CAS. vals[n-1] ends
// up topmost; within a batch the operations are concurrent, so any internal
// order is linearizable. Pushes dereference no shared node, so they need no
// guard under any reclaimer.
template <class V>
void spine_push_chain(std::atomic<SpineNode<V>*>& top, const V* vals,
                      std::size_t n) {
    SpineNode<V>* bottom = nullptr;
    SpineNode<V>* chain = nullptr;
    for (std::size_t i = 0; i < n; ++i) {
        chain = node_new(vals[i], chain);
        if (bottom == nullptr) bottom = chain;
    }
    bottom->next = top.load(std::memory_order_relaxed);
    // At most K aggregator freezers race on `top`, so first-try success is
    // the common case even at high thread counts — that is the point of
    // batching (paper §3).
    while (SEC_UNLIKELY(!top.compare_exchange_weak(
        bottom->next, chain, std::memory_order_release,
        std::memory_order_relaxed))) {
        cpu_relax();
    }
}

// Detach up to n nodes with a single CAS under `guard`; returns the chain's
// head and sets `count`. Slots 0 (anchor) and 1 (walker) of a hazard guard
// are used.
template <class V, class G>
SpineNode<V>* spine_detach_chain(std::atomic<SpineNode<V>*>& top, G& guard,
                                 std::size_t n, std::size_t& count) {
    for (;;) {
        SpineNode<V>* head = guard.protect(0u, top);
        count = 0;
        if (head == nullptr) return nullptr;
        SpineNode<V>* end = head;
        bool restart = false;
        while (end != nullptr && count < n) {
            SpineNode<V>* next = end->next;
            // Pull the line we will chase one iteration from now; the walk
            // is otherwise a serial load-to-load dependency chain and eats
            // a full miss per node on cold spines.
            if (next != nullptr) prefetch(next);
            ++count;
            end = next;
            if (end != nullptr && count < n) {
                // `end` is dereferenced next iteration: announce it, then
                // revalidate the anchor (no-ops for blanket guards).
                guard.publish(1u, end);
                if (SEC_UNLIKELY(!guard.validate(top, head))) {
                    restart = true;
                    break;
                }
            }
        }
        if (SEC_UNLIKELY(restart)) {
            cpu_relax();
            continue;
        }
        SpineNode<V>* expected = head;
        if (SEC_LIKELY(top.compare_exchange_weak(expected, end,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire))) {
            return head;
        }
        cpu_relax();
    }
}

// Pop up to n values with a single CAS; returns how many were popped. The
// walk runs under a Guard of `domain`, the retires after it: a retire may
// run the domain's sweep, and a sweep inside the guard would hold back
// every other thread's grace period while it runs.
template <class V, class R>
std::size_t spine_pop_chain(std::atomic<SpineNode<V>*>& top, R& domain,
                            V* out, std::size_t n) {
    std::size_t count = 0;
    SpineNode<V>* node = nullptr;
    {
        typename R::Guard guard(domain);
        node = spine_detach_chain(top, guard, n, count);
    }
    // The detached chain is exclusively ours: no other pop can retire it.
    // Values are copied out before each node is handed to the domain, which
    // recycles it once no reader can still reach it.
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = node->value;
        SpineNode<V>* next = node->next;
        domain.retire_erased(node, &node_recycle<V>);
        node = next;
    }
    return count;
}

// Read the top value without detaching it; uses slot 0 of a hazard guard.
template <class V, class G>
std::optional<V> spine_peek(const std::atomic<SpineNode<V>*>& top, G& guard) {
    SpineNode<V>* head = guard.protect(0u, top);
    if (head == nullptr) return std::nullopt;
    return head->value;
}

// Teardown only: no concurrent access may remain. The nodes go straight
// back to the heap: a whole stack's worth would only overflow the caches.
template <class V>
void spine_destroy(std::atomic<SpineNode<V>*>& top) {
    SpineNode<V>* n = top.load(std::memory_order_relaxed);
    while (n != nullptr) {
        SpineNode<V>* next = n->next;
        delete n;
        n = next;
    }
    top.store(nullptr, std::memory_order_relaxed);
}

}  // namespace sec::detail
