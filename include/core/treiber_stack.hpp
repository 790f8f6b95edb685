// core/treiber_stack.hpp — the classic lock-free stack (Treiber '86): a
// single top pointer updated by CAS. The contention baseline of Figure 2
// ("TRB collapses under contention": every operation fights for one line).
// Push/pop are the n=1 case of the shared spine primitives. Templated over
// the reclamation scheme (sec::reclaim); EBR remains the default.
#pragma once

#include <atomic>
#include <optional>

#include "core/common.hpp"
#include "core/container_concept.hpp"
#include "core/spine.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaimer.hpp"

namespace sec {

template <class V, reclaim::Reclaimer R = reclaim::EpochDomain>
class TreiberStack {
public:
    using value_type = V;
    using reclaimer_type = R;
    static constexpr ContainerShape kShape = ContainerShape::lifo;

    explicit TreiberStack(std::size_t /*max_threads*/) {}
    TreiberStack(std::size_t /*max_threads*/, R& domain) : domain_(domain) {}

    ~TreiberStack() { detail::spine_destroy(top_); }

    TreiberStack(const TreiberStack&) = delete;
    TreiberStack& operator=(const TreiberStack&) = delete;

    bool push(const V& v) {
        detail::spine_push_chain(top_, &v, 1);
        return true;
    }

    std::optional<V> pop() {
        V out;
        return detail::spine_pop_chain(top_, *domain_, &out, 1) == 1
                   ? std::optional<V>(out)
                   : std::nullopt;
    }

    std::optional<V> peek() const {
        typename R::Guard guard(*domain_);
        return detail::spine_peek(top_, guard);
    }

    // Reclamation hooks the workload runner drives (see runner.hpp).
    void quiesce() { domain_->quiesce(); }
    void reclaim_offline() { domain_->offline(); }

    // Shape-neutral aliases (container_concept.hpp).
    bool put(const V& v) { return push(v); }
    std::optional<V> take() { return pop(); }

private:
    reclaim::DomainRef<R> domain_;
    std::atomic<detail::SpineNode<V>*> top_{nullptr};
};

}  // namespace sec
