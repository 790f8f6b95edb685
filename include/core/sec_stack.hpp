// core/sec_stack.hpp — the SEC stack: sharded elimination-combining on top
// of a single lock-free (Treiber) spine.
//
// Threads batch their operations in K aggregators (core/aggregator.hpp);
// eliminated pairs never reach the spine, and each leftover run is applied
// with ONE CAS — a run of n pushes links its chain under the top in a single
// exchange, a run of n pops detaches n nodes in a single exchange. The spine
// therefore sees at most K concurrent writers instead of one per thread,
// which is where the paper's high-thread-count wins come from (Figure 2),
// while keeping full LIFO semantics and per-op linearizability. Node
// reclamation is pluggable (sec::reclaim); EBR remains the default.
//
// Runtime self-tuning: attach a sec::TuningState via Config::tuning (and an
// adapt::AdaptiveController driving it) and the ACTIVE aggregator count and
// freezer backoff follow the workload at runtime — the aggregator engine
// re-reads both with one relaxed load per operation and tolerates the
// active set shrinking mid-flight (core/aggregator.hpp, DESIGN.md §5). The
// registry's SEC@adaptive variant wires this up; a plain Config keeps the
// paper's static behaviour bit-for-bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "core/aggregator.hpp"
#include "core/common.hpp"
#include "core/config.hpp"
#include "core/container_concept.hpp"
#include "core/spine.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaimer.hpp"

namespace sec {

template <class V, reclaim::Reclaimer R = reclaim::EpochDomain>
class SecStack {
public:
    using value_type = V;
    using reclaimer_type = R;
    static constexpr ContainerShape kShape = ContainerShape::lifo;

    explicit SecStack(Config cfg) : aggs_(cfg) {}
    SecStack(Config cfg, R& domain) : aggs_(cfg), domain_(domain) {}

    ~SecStack() { detail::spine_destroy(top_); }

    SecStack(const SecStack&) = delete;
    SecStack& operator=(const SecStack&) = delete;

    bool push(const V& v) {
        (void)apply(Aggs::kOpPush, v);
        return true;
    }

    std::optional<V> pop() { return apply(Aggs::kOpPop, V{}); }

    std::optional<V> peek() const {
        typename R::Guard guard(*domain_);
        return detail::spine_peek(top_, guard);
    }

    // Reclamation hooks the workload runner drives (see runner.hpp).
    void quiesce() { domain_->quiesce(); }
    void reclaim_offline() { domain_->offline(); }

    // Degree counters (Table 1); meaningful when Config::collect_stats.
    StatsSnapshot stats() const { return aggs_.stats(); }

    const Config& config() const noexcept { return aggs_.config(); }

    // Shape-neutral aliases (container_concept.hpp).
    bool put(const V& v) { return push(v); }
    std::optional<V> take() { return pop(); }

private:
    using Aggs = detail::AggregatorSet<V>;

    // One op through the aggregators; leftover runs hit the spine.
    std::optional<V> apply(std::uint32_t op, const V& v) {
        return aggs_.execute(
            op, v,
            [this](std::size_t, const V* vals, std::size_t n) {
                detail::spine_push_chain(top_, vals, n);
            },
            [this](std::size_t, V* out, std::size_t n) {
                return detail::spine_pop_chain(top_, *domain_, out, n);
            });
    }

    Aggs aggs_;
    reclaim::DomainRef<R> domain_;
    alignas(kCacheLineSize) std::atomic<detail::SpineNode<V>*> top_{nullptr};
};

}  // namespace sec
