// reclaim_conformance_test.cpp — the typed contract every sec::reclaim
// scheme must honour: accounting snapshots never underflow under concurrent
// churn, drain_all() empties limbo once all protection is released (except
// the deliberately-leaky baseline), protected pointers survive a drain,
// destruction frees everything, and a reclaimer-templated stack survives
// multi-threaded churn (run under TSan/ASan in CI, where a use-after-free
// or a premature free shows up as a race / heap error).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include <string>

#include "container_checkers.hpp"
#include "core/spine.hpp"
#include "exec/worker_pool.hpp"
#include "reclaim/reclaim.hpp"
#include "sec.hpp"
#include "workload/registry.hpp"

namespace {

namespace rc = sec::reclaim;

struct Probe {
    explicit Probe(std::atomic<std::uint64_t>& c) : counter(c) {}
    ~Probe() { counter.fetch_add(1, std::memory_order_relaxed); }
    std::atomic<std::uint64_t>& counter;
};

template <class R>
class ReclaimConformanceTest : public ::testing::Test {};

using AllReclaimers = ::testing::Types<rc::EpochDomain, rc::HazardDomain,
                                       rc::QsbrDomain, rc::LeakyDomain>;
TYPED_TEST_SUITE(ReclaimConformanceTest, AllReclaimers);

// retired == freed + limbo at every sampled instant (the Stats snapshot is
// taken in one call, so a concurrent free between two loads cannot make
// in_limbo() wrap to a huge value), and exactly at the end.
TYPED_TEST(ReclaimConformanceTest, AccountingBalancesUnderChurn) {
    using R = TypeParam;
    R domain;
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 5000;

    std::atomic<bool> done{false};
    sec::exec::PoolOptions wo;
    wo.coordinator_in_barrier = false;
    sec::exec::WorkerPool sampler(1, wo);
    sampler.start([&domain, &done](sec::exec::WorkerContext&) {
        while (!done.load(std::memory_order_relaxed)) {
            const rc::Stats s = domain.stats();
            ASSERT_LE(s.freed, s.retired);
            ASSERT_LE(s.in_limbo(), s.retired);  // no wrap-around monster
        }
    });

    sec::exec::WorkerPool workers(kThreads, wo);
    workers.start([&domain](sec::exec::WorkerContext&) {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
            {
                typename R::Guard g(domain);
                domain.retire(new std::uint64_t(i));
            }
            domain.quiesce();
        }
        domain.offline();
    });
    workers.join();
    done.store(true, std::memory_order_relaxed);
    sampler.join();

    const rc::Stats s = domain.stats();
    EXPECT_EQ(s.retired, kThreads * kPerThread);
    EXPECT_EQ(s.retired, s.freed + s.in_limbo());
    EXPECT_GT(s.limbo_hwm, 0u);
    if constexpr (R::kDrainsOnDemand) {
        // The amortised path must reclaim during the run, not defer
        // everything to destruction.
        EXPECT_GT(s.freed, 0u);
    } else {
        EXPECT_EQ(s.freed, 0u);  // leaky: nothing freed before the dtor
    }
}

TYPED_TEST(ReclaimConformanceTest, DrainAllEmptiesLimboOnceQuiet) {
    using R = TypeParam;
    R domain;
    constexpr std::uint64_t kCount = 100;
    for (std::uint64_t i = 0; i < kCount; ++i) {
        domain.retire(new std::uint64_t(i));
    }
    domain.drain_all();
    const rc::Stats s = domain.stats();
    EXPECT_EQ(s.retired, kCount);
    if constexpr (R::kDrainsOnDemand) {
        EXPECT_EQ(s.in_limbo(), 0u);
        EXPECT_EQ(s.freed, kCount);
    } else {
        EXPECT_EQ(s.freed, 0u);
        EXPECT_EQ(s.in_limbo(), kCount);
    }
}

// A pointer the calling thread still protects survives drain_all(); once
// protection is released, the next drain reclaims it.
TYPED_TEST(ReclaimConformanceTest, ProtectedPointerSurvivesDrain) {
    using R = TypeParam;
    std::atomic<std::uint64_t> destroyed{0};
    R domain;
    std::atomic<Probe*> src{new Probe(destroyed)};
    domain.quiesce();  // QSBR: the thread is online while it holds refs
    {
        typename R::Guard g(domain);
        Probe* p = g.protect(0u, src);
        ASSERT_NE(p, nullptr);
        src.store(nullptr, std::memory_order_release);  // unlink
        domain.retire(p);
        domain.drain_all();
        EXPECT_EQ(destroyed.load(), 0u) << "freed while still protected";
    }
    domain.quiesce();  // QSBR: a quiescent point after dropping the ref
    domain.offline();
    domain.drain_all();
    if constexpr (R::kDrainsOnDemand) {
        EXPECT_EQ(destroyed.load(), 1u);
    } else {
        EXPECT_EQ(destroyed.load(), 0u);  // leaky frees at destruction only
    }
}

TYPED_TEST(ReclaimConformanceTest, DestructionFreesEverything) {
    using R = TypeParam;
    std::atomic<std::uint64_t> destroyed{0};
    constexpr std::uint64_t kCount = 1000;
    {
        R domain;
        for (std::uint64_t i = 0; i < kCount; ++i) {
            domain.retire(new Probe(destroyed));
        }
    }
    EXPECT_EQ(destroyed.load(), kCount);
}

// Multi-threaded churn through a reclaimer-templated stack: values must be
// conserved, and the sanitizers see every dereference the scheme allows.
// The per-iteration quiesce() + end-of-loop reclaim_offline() mirror what
// the workload runner's hooks do (QSBR's safety contract).
TYPED_TEST(ReclaimConformanceTest, StackChurnIsSafeAndConserving) {
    using R = TypeParam;
    using Value = std::uint64_t;
    R domain;
    sec::TreiberStack<Value, R> stack(16, domain);

    constexpr unsigned kThreads = 4;
    constexpr std::uint32_t kOps = 20000;
    auto tag = [](unsigned thread, std::uint32_t seq) {
        return (static_cast<Value>(thread + 1) << 32) | seq;
    };

    std::vector<std::vector<Value>> pushed(kThreads);
    std::vector<std::vector<Value>> popped(kThreads);
    sec::exec::WorkerPool::run(kThreads, [&](sec::exec::WorkerContext& wc) {
        const unsigned t = wc.index;
        sec::Xoshiro256 rng((t + 1) * 0x9E3779B97F4A7C15ull);
        std::uint32_t seq = 0;
        for (std::uint32_t i = 0; i < kOps; ++i) {
            stack.quiesce();
            const std::uint64_t r = rng.next_below(4);
            if (r == 0) {
                const Value v = tag(t, seq++);
                stack.push(v);
                pushed[t].push_back(v);
            } else if (r == 1) {
                (void)stack.peek();
            } else if (auto v = stack.pop()) {
                popped[t].push_back(*v);
            }
        }
        stack.reclaim_offline();
    });

    std::vector<Value> all_pushed, all_popped;
    for (unsigned t = 0; t < kThreads; ++t) {
        all_pushed.insert(all_pushed.end(), pushed[t].begin(),
                          pushed[t].end());
        all_popped.insert(all_popped.end(), popped[t].begin(),
                          popped[t].end());
    }
    while (auto v = stack.pop()) all_popped.push_back(*v);
    stack.reclaim_offline();

    std::sort(all_pushed.begin(), all_pushed.end());
    std::sort(all_popped.begin(), all_popped.end());
    EXPECT_EQ(all_popped, all_pushed)
        << "value lost, duplicated, or invented under churn";

    domain.drain_all();
    const rc::Stats s = domain.stats();
    EXPECT_EQ(s.retired, s.freed + s.in_limbo());
}

// FIFO twin of the stack churn: the queues' dequeue paths are where the
// hazard discipline is hardest (MS protects the dummy AND its successor in
// two slots at once; SEC_Q's combiner walks a detached chain whose new
// dummy a later dequeuer may retire), so run the same conserve-under-churn
// soak through MsQueue and SecQueue on every scheme. This is what covers
// MS@hp and SEC_Q@ebr under TSan/ASan in CI.
template <class Q, class R>
void queue_churn(Q& queue) {
    constexpr unsigned kThreads = 4;
    constexpr std::uint32_t kOps = 20000;
    using Value = std::uint64_t;
    auto tag = [](unsigned thread, std::uint32_t seq) {
        return (static_cast<Value>(thread + 1) << 32) | seq;
    };

    std::vector<std::vector<Value>> pushed(kThreads);
    std::vector<std::vector<Value>> popped(kThreads);
    sec::exec::WorkerPool::run(kThreads, [&](sec::exec::WorkerContext& wc) {
        const unsigned t = wc.index;
        sec::Xoshiro256 rng((t + 1) * 0x9E3779B97F4A7C15ull);
        std::uint32_t seq = 0;
        for (std::uint32_t i = 0; i < kOps; ++i) {
            queue.quiesce();
            const std::uint64_t r = rng.next_below(4);
            if (r == 0) {
                const Value v = tag(t, seq++);
                queue.put(v);
                pushed[t].push_back(v);
            } else if (r == 1) {
                (void)queue.peek();
            } else if (auto v = queue.take()) {
                popped[t].push_back(*v);
            }
        }
        queue.reclaim_offline();
    });

    std::vector<Value> all_pushed, all_popped;
    for (unsigned t = 0; t < kThreads; ++t) {
        all_pushed.insert(all_pushed.end(), pushed[t].begin(),
                          pushed[t].end());
        all_popped.insert(all_popped.end(), popped[t].begin(),
                          popped[t].end());
    }
    while (auto v = queue.take()) all_popped.push_back(*v);
    queue.reclaim_offline();

    std::sort(all_pushed.begin(), all_pushed.end());
    std::sort(all_popped.begin(), all_popped.end());
    EXPECT_EQ(all_popped, all_pushed)
        << "value lost, duplicated, or invented under FIFO churn";
}

TYPED_TEST(ReclaimConformanceTest, QueueChurnIsSafeAndConserving) {
    using R = TypeParam;
    using Value = std::uint64_t;
    {
        R domain;
        sec::MsQueue<Value, R> ms(16, domain);
        queue_churn<decltype(ms), R>(ms);
        domain.drain_all();
        const rc::Stats s = domain.stats();
        EXPECT_EQ(s.retired, s.freed + s.in_limbo());
    }
    {
        R domain;
        sec::Config cfg;
        cfg.max_threads = 16;
        sec::SecQueue<Value, R> sq(cfg, domain);
        queue_churn<decltype(sq), R>(sq);
        domain.drain_all();
        const rc::Stats s = domain.stats();
        EXPECT_EQ(s.retired, s.freed + s.in_limbo());
    }
}

// The ABA oracle for recycled spine nodes. Popped nodes return to the node
// cache through the reclaimer, so a node is pushed again only once no pop
// can still hold it. On a stack kept 0-2 deep, every pop races pushes onto
// the very nodes it is unlinking: a node reused while a pop still held it
// lets that pop's CAS succeed against a stale `next`, and a token is lost
// or popped twice. `depth` counts pushes begun minus pops done, so it never
// reads below the stack's size.
template <class S>
void shallow_churn(S& stack) {
    constexpr unsigned kThreads = 4;
    constexpr std::uint32_t kOps = 50000;
    std::atomic<int> depth{0};
    std::vector<std::vector<sec::testing::Value>> pushed(kThreads);
    std::vector<std::vector<sec::testing::Value>> popped(kThreads);
    sec::exec::WorkerPool::run(kThreads, [&](sec::exec::WorkerContext& wc) {
        const unsigned t = wc.index;
        sec::Xoshiro256 rng((t + 1) * 0x9E3779B97F4A7C15ull);
        std::uint32_t seq = 0;
        for (std::uint32_t i = 0; i < kOps; ++i) {
            stack.quiesce();
            if (rng.next_below(2) == 0) {
                if (depth.fetch_add(1) < 2) {
                    const sec::testing::Value v = sec::testing::tag(t, seq++);
                    stack.push(v);
                    pushed[t].push_back(v);
                } else {
                    depth.fetch_sub(1);
                }
            } else if (auto v = stack.pop()) {
                depth.fetch_sub(1);
                popped[t].push_back(*v);
            }
        }
        stack.reclaim_offline();
    });
    std::vector<sec::testing::Value> all_pushed, all_popped;
    for (unsigned t = 0; t < kThreads; ++t) {
        all_pushed.insert(all_pushed.end(), pushed[t].begin(),
                          pushed[t].end());
        all_popped.insert(all_popped.end(), popped[t].begin(),
                          popped[t].end());
    }
    while (auto v = stack.pop()) all_popped.push_back(*v);
    sec::testing::expect_same_multiset(all_pushed, all_popped);
}

TYPED_TEST(ReclaimConformanceTest, ShallowStackChurnConservesTokens) {
    using R = TypeParam;
    using Value = sec::testing::Value;
    {
        R domain;
        sec::TreiberStack<Value, R> trb(16, domain);
        shallow_churn(trb);
    }
    {
        R domain;
        sec::Config cfg;
        cfg.max_threads = 16;
        sec::SecStack<Value, R> sec_stack(cfg, domain);
        shallow_churn(sec_stack);
    }
}

// Short-lived threads leave nodes in their magazines, in the depot and in
// the reclaimer's limbo. Pushers and poppers are different threads, so
// nodes cross threads through the depot. Destroying the stack and then the
// domain afterwards must neither leak (LeakSanitizer) nor touch a node
// after it was freed (AddressSanitizer, ThreadSanitizer).
TYPED_TEST(ReclaimConformanceTest, NodeCacheSurvivesThreadExitAndTeardown) {
    using R = TypeParam;
    using Value = sec::testing::Value;
    constexpr unsigned kRounds = 20;
    constexpr unsigned kThreads = 4;
    constexpr std::uint32_t kPerThread = 300;
    std::vector<Value> all_pushed, all_popped;
    {
        R domain;
        sec::Config cfg;
        cfg.max_threads = 16;
        sec::SecStack<Value, R> stack(cfg, domain);
        for (unsigned round = 0; round < kRounds; ++round) {
            std::vector<std::vector<Value>> pushed(kThreads);
            std::vector<std::vector<Value>> popped(kThreads);
            sec::exec::WorkerPool::run(
                kThreads, [&](sec::exec::WorkerContext& wc) {
                    const unsigned t = wc.index;
                    for (std::uint32_t i = 0; i < kPerThread; ++i) {
                        stack.quiesce();
                        if (t % 2 == 0) {
                            const Value v = sec::testing::tag(
                                t, round * kPerThread + i);
                            stack.push(v);
                            pushed[t].push_back(v);
                        } else if (auto v = stack.pop()) {
                            popped[t].push_back(*v);
                        }
                    }
                    stack.reclaim_offline();
                });
            for (unsigned t = 0; t < kThreads; ++t) {
                all_pushed.insert(all_pushed.end(), pushed[t].begin(),
                                  pushed[t].end());
                all_popped.insert(all_popped.end(), popped[t].begin(),
                                  popped[t].end());
            }
        }
        // Pop half of what is left; the destructor frees the rest.
        for (std::size_t left = (all_pushed.size() - all_popped.size()) / 2;
             left > 0; --left) {
            auto v = stack.pop();
            ASSERT_TRUE(v.has_value());
            all_popped.push_back(*v);
        }
    }
    // Every token popped was pushed, and none came out twice.
    std::sort(all_pushed.begin(), all_pushed.end());
    std::sort(all_popped.begin(), all_popped.end());
    EXPECT_EQ(std::adjacent_find(all_popped.begin(), all_popped.end()),
              all_popped.end());
    EXPECT_TRUE(std::includes(all_pushed.begin(), all_pushed.end(),
                              all_popped.begin(), all_popped.end()));
}

// A thread that recycles more nodes than the caches hold fills the depot to
// its bound and hands the rest back to the heap.
TEST(SpineNodeCache, DepotStaysBounded) {
    using Value = sec::testing::Value;
    using Cache = sec::detail::SpineNodeCache<Value>;
    constexpr std::size_t kNodes = (Cache::kDepotMagazines + 8) *
                                   Cache::kMagazine;
    rc::EpochDomain domain;
    sec::TreiberStack<Value> stack(1, domain);
    sec::exec::WorkerPool::run(1, [&](sec::exec::WorkerContext&) {
        for (Value v = 0; v < kNodes; ++v) stack.push(v);
        for (Value v = 0; v < kNodes; ++v) ASSERT_TRUE(stack.pop());
        domain.drain_all();  // every deleter runs on this thread
        EXPECT_EQ(domain.stats().in_limbo(), 0u);
    });
    EXPECT_EQ(Cache::depot_magazines(), Cache::kDepotMagazines);
}

// A value with a destructor bypasses the cache: its nodes keep new/delete,
// so the value's destructor runs exactly once per node.
TEST(SpineNodeCache, NonTrivialValuesUseTheHeap) {
    static_assert(!sec::detail::kCachedNode<std::string>);
    rc::EpochDomain domain;
    {
        sec::TreiberStack<std::string> stack(4, domain);
        for (int i = 0; i < 1000; ++i) {
            stack.push(std::string(64, static_cast<char>('a' + i % 26)));
        }
        for (int i = 0; i < 500; ++i) ASSERT_TRUE(stack.pop().has_value());
    }
    domain.drain_all();
    EXPECT_EQ(domain.stats().in_limbo(), 0u);
}

// The registry's cross-product covers >= 4 schemes x >= 2 algorithms, every
// variant round-trips through the erased handle, and a handle of the right
// scheme is accepted where a mismatched one falls back to a private domain.
TEST(ReclaimRegistry, CrossProductRoundTripsAndBindsDomains) {
    auto& algo_reg = sec::bench::AlgorithmRegistry::instance();
    auto& rec_reg = sec::bench::ReclaimerRegistry::instance();
    ASSERT_GE(rec_reg.all().size(), 4u);
    unsigned combos = 0;
    for (const sec::bench::ReclaimerSpec* scheme : rec_reg.all()) {
        for (const char* base :
             {"TRB", "SEC", "EB", "TSI", "POOL", "MS", "SEC_Q"}) {
            const sec::bench::AlgoSpec* spec =
                algo_reg.find_variant(base, scheme->name);
            if (spec == nullptr) continue;  // TSI@hp intentionally absent
            SCOPED_TRACE(std::string(base) + "@" + scheme->name);
            rc::DomainHandle domain = scheme->make_domain();
            EXPECT_EQ(domain.scheme(), scheme->name);
            sec::bench::StackParams params;
            params.threads = 2;
            params.domain = &domain;
            sec::AnyStack stack = spec->make(params);
            for (std::uint64_t v = 1; v <= 16; ++v) {
                EXPECT_TRUE(stack.push(v));
            }
            for (int i = 0; i < 16; ++i) {
                EXPECT_TRUE(stack.pop().has_value());
            }
            EXPECT_FALSE(stack.pop().has_value());
            // 16 pops through the external domain: retires must have landed
            // there (TSI retires only on dead-prefix detach, so >= 0).
            EXPECT_LE(domain.stats().freed, domain.stats().retired);
            ++combos;
        }
    }
    EXPECT_GE(combos, 4u * 2u);
    EXPECT_EQ(algo_reg.find("TSI@hp"), nullptr);  // blanket-only structure
}

}  // namespace
