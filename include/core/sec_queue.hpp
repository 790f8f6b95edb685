// core/sec_queue.hpp — the SEC queue: the same K-aggregator batching engine
// as SecStack (core/aggregator.hpp) applied to the FIFO spine
// (core/fifo_spine.hpp).
//
// Nothing about batched publication + single-atomic application is
// LIFO-specific: a run of n enqueues links a private chain behind the tail
// with ONE exchange, and a combiner drains a run of n dequeues with ONE
// head CAS, so the spine sees at most K concurrent writers per end instead
// of one per thread. What does NOT carry over is elimination — handing a
// dequeuer the value of a *concurrent* enqueue would skip every older
// element, which is only linearizable for LIFO — so the aggregators are
// constructed with Config::eliminate forced off and every batch is applied
// to the spine (stats therefore report eliminated_ops == 0 by
// construction). Per-producer FIFO still holds across batches: a producer
// owns one publication slot, so it has at most one enqueue per batch, and
// its k-th enqueue's tail exchange lands before its (k+1)-th is even
// published. See DESIGN.md §12 and the order oracle in
// tests/container_conformance_test.cpp.
//
// Node reclamation is pluggable (sec::reclaim); EBR remains the default.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "core/aggregator.hpp"
#include "core/common.hpp"
#include "core/config.hpp"
#include "core/container_concept.hpp"
#include "core/fifo_spine.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaimer.hpp"

namespace sec {

template <class V, reclaim::Reclaimer R = reclaim::EpochDomain>
class SecQueue {
public:
    using value_type = V;
    using reclaimer_type = R;
    static constexpr ContainerShape kShape = ContainerShape::fifo;

    explicit SecQueue(Config cfg) : aggs_(fifo_config(cfg)) {
        detail::fifo_init(head_, tail_);
    }
    SecQueue(Config cfg, R& domain)
        : aggs_(fifo_config(cfg)), domain_(domain) {
        detail::fifo_init(head_, tail_);
    }

    ~SecQueue() { detail::fifo_destroy(head_, tail_); }

    SecQueue(const SecQueue&) = delete;
    SecQueue& operator=(const SecQueue&) = delete;

    bool put(const V& v) {
        (void)apply(Aggs::kOpPush, v);
        return true;
    }

    std::optional<V> take() { return apply(Aggs::kOpPop, V{}); }

    // Front element (what take() would return).
    std::optional<V> peek() const {
        typename R::Guard guard(*domain_);
        return detail::fifo_peek(head_, guard);
    }

    // Harness aliases (container_concept.hpp) and queue-idiomatic names.
    bool push(const V& v) { return put(v); }
    std::optional<V> pop() { return take(); }
    bool enqueue(const V& v) { return put(v); }
    std::optional<V> dequeue() { return take(); }

    // Reclamation hooks the workload runner drives (see runner.hpp).
    void quiesce() { domain_->quiesce(); }
    void reclaim_offline() { domain_->offline(); }

    // Degree counters (Table 1); meaningful when Config::collect_stats.
    // eliminated_ops is structurally zero — see the header comment.
    StatsSnapshot stats() const { return aggs_.stats(); }

    const Config& config() const noexcept { return aggs_.config(); }

private:
    using Aggs = detail::AggregatorSet<V>;

    // FIFO makes elimination illegal regardless of what the caller's
    // Config says; force it off so no sweep or hand-built Config can
    // accidentally construct a non-linearizable queue.
    static Config fifo_config(Config cfg) {
        cfg.eliminate = false;
        return cfg;
    }

    // One op through the aggregators; leftover runs hit the FIFO spine.
    std::optional<V> apply(std::uint32_t op, const V& v) {
        return aggs_.execute(
            op, v,
            [this](std::size_t, const V* vals, std::size_t n) {
                detail::fifo_put_chain(tail_, vals, n);
            },
            [this](std::size_t, V* out, std::size_t n) {
                typename R::Guard guard(*domain_);
                return detail::fifo_take_chain(head_, guard, out, n);
            });
    }

    Aggs aggs_;
    reclaim::DomainRef<R> domain_;
    alignas(kCacheLineSize) std::atomic<detail::QueueNode<V>*> head_{nullptr};
    alignas(kCacheLineSize) std::atomic<detail::QueueNode<V>*> tail_{nullptr};
};

}  // namespace sec
