// core/elim_pool.hpp — the SEC machinery generalised to an unordered pool
// (paper conclusion: the sharded elimination/combining layer is not
// stack-specific). Unlike SecStack, which funnels every combined run through
// ONE top pointer, ElimPool gives each aggregator its own spine: the last
// shared contention point disappears, at the price of LIFO order. extract()
// falls back to stealing from sibling spines when the local one is empty.
// bench/ablation_pool_vs_stack.cpp measures what that buys. Reclamation is
// pluggable (sec::reclaim); EBR remains the default.
//
// Adaptivity note: with Config::tuning attached, combines land only on the
// active prefix of the aggregator set, but extract()'s steal loop always
// walks ALL num_aggregators spines — values parked on a since-deactivated
// aggregator's spine stay reachable after a shrink.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "core/aggregator.hpp"
#include "core/common.hpp"
#include "core/config.hpp"
#include "core/spine.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaimer.hpp"

namespace sec {

template <class V, reclaim::Reclaimer R = reclaim::EpochDomain>
class ElimPool {
public:
    using value_type = V;
    using reclaimer_type = R;

    explicit ElimPool(Config cfg)
        : aggs_(cfg),
          spines_(std::make_unique<Spine[]>(aggs_.num_aggregators())) {}
    ElimPool(Config cfg, R& domain)
        : aggs_(cfg),
          domain_(domain),
          spines_(std::make_unique<Spine[]>(aggs_.num_aggregators())) {}

    ~ElimPool() {
        for (std::size_t a = 0; a < aggs_.num_aggregators(); ++a) {
            detail::spine_destroy(spines_[a].top);
        }
    }

    ElimPool(const ElimPool&) = delete;
    ElimPool& operator=(const ElimPool&) = delete;

    bool insert(const V& v) {
        (void)apply(Aggs::kOpPush, v);
        return true;
    }

    std::optional<V> extract() { return apply(Aggs::kOpPop, V{}); }

    // Reclamation hooks the workload runner drives (see runner.hpp).
    void quiesce() { domain_->quiesce(); }
    void reclaim_offline() { domain_->offline(); }

    StatsSnapshot stats() const { return aggs_.stats(); }

private:
    using Aggs = detail::AggregatorSet<V>;

    struct alignas(kCacheLineSize) Spine {
        std::atomic<detail::SpineNode<V>*> top{nullptr};
    };

    // One op through the aggregators; aggregator a's leftover runs hit its
    // own spine.
    std::optional<V> apply(std::uint32_t op, const V& v) {
        return aggs_.execute(
            op, v,
            [this](std::size_t a, const V* vals, std::size_t n) {
                detail::spine_push_chain(spines_[a].top, vals, n);
            },
            [this](std::size_t a, V* out, std::size_t n) {
                return pop_any(a, out, n);
            });
    }

    // Pop up to n values, preferring the local spine, then stealing.
    std::size_t pop_any(std::size_t a, V* out, std::size_t n) {
        std::size_t got =
            detail::spine_pop_chain(spines_[a].top, *domain_, out, n);
        const std::size_t k = aggs_.num_aggregators();
        for (std::size_t step = 1; got < n && step < k; ++step) {
            got += detail::spine_pop_chain(spines_[(a + step) % k].top,
                                           *domain_, out + got, n - got);
        }
        return got;
    }

    Aggs aggs_;
    reclaim::DomainRef<R> domain_;
    std::unique_ptr<Spine[]> spines_;
};

}  // namespace sec
