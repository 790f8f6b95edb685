// core/aggregator.hpp — the SEC batching engine (paper §3).
//
// An AggregatorSet partitions threads across K aggregators (contiguous
// blocks or round-robin). A thread publishes its operation in its own
// cache-line slot, then races for its aggregator's freezer lock by
// test-and-test-and-set: it attempts the lock only when it reads it free and
// otherwise keeps spinning on its own slot, so waiters never bounce the lock
// line while the freezer works. The winner — the freezer — backs off so the
// batch can grow (§3.1: "a short backoff before freezing B to increase the
// elimination degree"), but only until every live member of its aggregator
// has announced: the freezer-backoff window is an upper bound, and a batch
// that already holds everyone who could join freezes at once. Then it
// freezes the batch:
//   1. elimination — concurrent push/pop pairs exchange values directly,
//      two slot writes per pair, never touching the shared structure;
//   2. combining  — leftover same-direction operations are applied to the
//      backing structure in ONE batched call (a single CAS on a Treiber
//      spine for an arbitrarily long run of pushes or pops).
// An op that can share no batch skips all of this and is applied directly:
// the op of a thread that is its aggregator's only live member (static
// configurations), and the op of a thread past Config::max_threads, which
// has no slot.
// Per-batch degree counters back the paper's Table 1. Every knob (count,
// unit, legal range, paper section) is documented on sec::Config
// (core/config.hpp); this engine consumes it verbatim — K is
// Config::num_aggregators in [1, kMaxAggregators], the backoff window is
// Config::freezer_backoff_ns in nanoseconds with 0 meaning "freeze
// immediately".
//
// Runtime adaptivity (DESIGN.md §5): when Config::tuning is set, the number
// of ACTIVE aggregators and the backoff window are re-read from the
// TuningState — one relaxed load per operation attempt — instead of being
// frozen at construction. Threads map into the active prefix [0, active).
// Because freezers running under different active-count views may scan
// overlapping member lists during a transition, ownership of a pending op
// is pinned by the OWNER: the pending state word carries the aggregator
// index the op was published to, and a freezer serves only slots pinned to
// it — plain loads, no hot-path RMW. One word for both means a freezer can
// never pair one op's kind with another op's pin: an owner whose op another
// aggregator completed may already have published its next one. When
// the mapping moves under a waiting owner, the owner re-points its pin
// under the OLD aggregator's lock (so no freezer of the old index is
// mid-scan) after re-checking it is still unserved; it re-maps every spin
// iteration and always scans its own slot once it takes a freezer lock, so
// an op stranded by a shrink always rescues itself. Static configurations
// (tuning == nullptr) always pin 0 and keep the original protocol and its
// exact performance.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>  // std::lock_guard
#include <optional>
#include <vector>

#include "core/adaptive.hpp"
#include "core/common.hpp"
#include "core/config.hpp"

namespace sec::detail {

template <class V>
class AggregatorSet {
public:
    static constexpr std::uint32_t kOpPush = 1;
    static constexpr std::uint32_t kOpPop = 2;

    explicit AggregatorSet(const Config& cfg) : cfg_(cfg) {
        cfg_.validate();
        num_aggs_ = std::min(cfg_.num_aggregators, cfg_.max_threads);
        slots_ = std::make_unique<Slot[]>(cfg_.max_threads);
        aggs_ = std::make_unique<Agg[]>(num_aggs_);
        for (std::size_t a = 0; a < num_aggs_; ++a) aggs_[a].index = a;
        for (std::size_t t = 0; t < cfg_.max_threads; ++t) {
            aggs_[agg_of(t, num_aggs_)].tids.push_back(
                static_cast<std::uint32_t>(t));
        }
        if (cfg_.tuning != nullptr) {
            // Member lists for every possible active count: under active
            // count A, the freezer of aggregator a scans exactly the
            // threads that agg_of(t, A) assigns to a. Built once; 5 *
            // max_threads ids at most.
            tids_by_active_.resize(num_aggs_);
            for (std::size_t active = 1; active <= num_aggs_; ++active) {
                auto& per_agg = tids_by_active_[active - 1];
                per_agg.resize(num_aggs_);
                for (std::size_t t = 0; t < cfg_.max_threads; ++t) {
                    per_agg[agg_of(t, active)].push_back(
                        static_cast<std::uint32_t>(t));
                }
            }
        }
        for (std::size_t a = 0; a < num_aggs_; ++a) {
            Agg& agg = aggs_[a];
            // Scratch must hold the largest member list this aggregator can
            // ever scan — under adaptivity that is its list at active == 1
            // (aggregator 0 then owns every thread).
            std::size_t cap = agg.tids.size();
            for (const auto& per_agg : tids_by_active_) {
                cap = std::max(cap, per_agg[a].size());
            }
            agg.scratch_push = std::make_unique<std::uint32_t[]>(cap);
            agg.scratch_pop = std::make_unique<std::uint32_t[]>(cap);
            agg.scratch_absent = std::make_unique<std::uint32_t[]>(cap);
            agg.scratch_vals = std::make_unique<V[]>(cap);
        }
    }

    std::size_t num_aggregators() const noexcept { return num_aggs_; }
    const Config& config() const noexcept { return cfg_; }

    // Run one operation through the batching protocol. `apply_pushes(agg,
    // vals, n)` must push n values onto the backing structure; `apply_pops(
    // agg, out, n)` must pop up to n values, returning how many it got.
    // Both must be safe to call concurrently with each other: an op that
    // can share no batch bypasses the freezer lock (see below).
    // Returns the popped value for kOpPop (nullopt: empty), nullopt for push.
    template <class ApplyPushes, class ApplyPops>
    std::optional<V> execute(std::uint32_t op, const V& in,
                             ApplyPushes&& apply_pushes,
                             ApplyPops&& apply_pops) {
        const bool adaptive = cfg_.tuning != nullptr;
        const std::size_t id = detail::tid();
        // A thread past Config::max_threads has no slot; it applies its op
        // directly, as aggregator 0, and is not counted.
        if (SEC_UNLIKELY(id >= cfg_.max_threads)) {
            return apply_one(0, op, in, apply_pushes, apply_pops);
        }
        Slot& slot = slots_[id];
        Tune tune = current_tune();
        std::size_t recorded = agg_of(id, tune.active);
        if (!adaptive && alone_in(aggs_[recorded])) {
            // Nobody else can join our batch, so publishing, the freezer
            // lock and the scan would buy nothing: apply the op directly.
            // Counted as a batch of one, as the protocol would.
            if (cfg_.collect_stats) {
                std::lock_guard lock(aggs_[recorded].lock);
                count_batch(aggs_[recorded], 1, 0);
            }
            return apply_one(recorded, op, in, apply_pushes, apply_pops);
        }
        slot.in = in;
        slot.state.store(adaptive ? pinned(op, recorded) : op,
                         std::memory_order_release);
        Backoff backoff;
        for (;;) {
            std::uint32_t st = slot.state.load(std::memory_order_acquire);
            if (st >= kDonePushed) return consume(slot, st);
            // Static configurations never remap: `recorded` IS the home
            // aggregator for the thread's lifetime, so the mul/div mapping
            // is hoisted out of the attempt loop entirely.
            const std::size_t cur =
                adaptive ? agg_of(id, tune.active) : recorded;
            if (SEC_UNLIKELY(adaptive && cur != recorded)) {
                // The active count moved under us: re-point our pin to
                // the current aggregator, under the OLD one's lock so no
                // freezer of the old index can be scanning concurrently —
                // and only if we are still unserved (a freezer that beat us
                // to the lock may have completed the op already).
                Agg& old_agg = aggs_[recorded];
                old_agg.lock.lock();
                if (is_pending(slot.state.load(std::memory_order_relaxed))) {
                    slot.state.store(pinned(op, cur), std::memory_order_release);
                    recorded = cur;
                }
                old_agg.lock.unlock();
                continue;  // state may have gone done meanwhile
            }
            Agg& agg = aggs_[cur];
            // TTAS: while the lock reads held, spin on our own slot instead.
            if (agg.lock.try_lock()) {
                // We are the freezer. A previous freezer may have served us
                // between our load and the lock; only combine while our own
                // op is still open.
                if (is_pending(slot.state.load(std::memory_order_relaxed))) {
                    combine(agg, tune, apply_pushes, apply_pops);
                }
                agg.lock.unlock();
                st = slot.state.load(std::memory_order_acquire);
                if (st >= kDonePushed) return consume(slot, st);
            }
            backoff.pause();
            // One relaxed TuningState load per attempt keeps the mapping
            // and the freeze parameters current while we wait. Static
            // configurations hoist it: their Tune is immutable, and the
            // extra null-check-plus-copy per attempt was measurable on the
            // uncontended path.
            if (adaptive) tune = current_tune();
        }
    }

    // One consistent snapshot: the counters are written with plain
    // load+store under each aggregator's freezer lock (see combine()), so a
    // lock-free reader could both under-count a mid-batch bump and tear
    // ACROSS counters — batched already bumped, eliminated not yet — and
    // Table 1 / the adaptive controller divide one counter by another.
    // Taking the lock per aggregator makes the four counters mutually
    // consistent and flushes every completed batch into the read (lock
    // hand-off: the freezer's release store pairs with our acquiring
    // lock()). Held only for four relaxed loads, so a concurrent freezer
    // waits nanoseconds, and stats() never holds two locks at once.
    StatsSnapshot stats() const {
        StatsSnapshot s;
        for (std::size_t a = 0; a < num_aggs_; ++a) {
            Agg& agg = aggs_[a];
            std::lock_guard lock(agg.lock);
            s.batches += agg.batches.load(std::memory_order_relaxed);
            s.batched_ops += agg.batched.load(std::memory_order_relaxed);
            s.eliminated_ops += agg.eliminated.load(std::memory_order_relaxed);
            s.combined_ops += agg.combined.load(std::memory_order_relaxed);
        }
        return s;
    }

private:
    // Slot states: 0 idle; pending = kOpPush/kOpPop | pin << kPinShift,
    // where the pin is the aggregator index the op is published to (always
    // 0 in static configurations); >= kDonePushed terminal.
    static constexpr std::uint32_t kIdle = 0;
    static constexpr std::uint32_t kOpMask = 3;
    static constexpr unsigned kPinShift = 2;
    static constexpr std::uint32_t kDonePushed = 32;
    static constexpr std::uint32_t kDoneValue = 33;
    static constexpr std::uint32_t kDoneEmpty = 34;
    static_assert((kMaxAggregators << kPinShift) < kDonePushed);

    static constexpr std::uint32_t pinned(std::uint32_t op, std::size_t agg) {
        return op | static_cast<std::uint32_t>(agg << kPinShift);
    }
    static constexpr bool is_pending(std::uint32_t st) {
        return st != kIdle && st < kDonePushed;
    }

    struct alignas(kCacheLineSize) Slot {
        std::atomic<std::uint32_t> state{kIdle};
        V in{};   // owner-written before the pending release store
        V out{};  // freezer-written before the kDoneValue release store
    };

    struct alignas(kCacheLineSize) Agg {
        SpinLock lock;
        std::size_t index = 0;
        std::vector<std::uint32_t> tids;  // members under the full active set
        // Scratch for the freezer; guarded by `lock`.
        std::unique_ptr<std::uint32_t[]> scratch_push;
        std::unique_ptr<std::uint32_t[]> scratch_pop;
        std::unique_ptr<std::uint32_t[]> scratch_absent;  // live, not pending
        std::unique_ptr<V[]> scratch_vals;
        // Degree counters (Table 1); freezer-only writers.
        std::atomic<std::uint64_t> batches{0};
        std::atomic<std::uint64_t> batched{0};
        std::atomic<std::uint64_t> eliminated{0};
        std::atomic<std::uint64_t> combined{0};
    };

    // The knobs one operation attempt runs under. Static configurations
    // read the Config once; adaptive ones decode a single relaxed load of
    // the TuningState (clamped into [1, num_aggs_] so a controller bug can
    // never index out of range).
    struct Tune {
        std::size_t active;
        std::uint64_t backoff_ns;
    };

    Tune current_tune() const noexcept {
        if (cfg_.tuning == nullptr) {
            return {num_aggs_, cfg_.freezer_backoff_ns};
        }
        const TuningState::Tuning t = cfg_.tuning->load();
        const std::size_t active = std::min<std::size_t>(
            std::max<std::uint32_t>(t.active_aggregators, 1), num_aggs_);
        return {active, t.backoff_ns};
    }

    // Thread → aggregator under `active` aggregators (the active prefix).
    std::size_t agg_of(std::size_t tid, std::size_t active) const noexcept {
        if (cfg_.mapping == AggregatorMapping::kRoundRobin) {
            return tid % active;
        }
        return tid * active / cfg_.max_threads;  // contiguous blocks
    }

    // The op `s` holds if this aggregator's freezer may serve it (kOpPush or
    // kOpPop), else kIdle. Adaptive: only ops pinned to `agg` count — a
    // not-yet-migrated op from another view is its owner's job.
    std::uint32_t pending_here(const Slot& s, std::size_t agg) const noexcept {
        const std::uint32_t st = s.state.load(std::memory_order_acquire);
        if (!is_pending(st)) return kIdle;
        if (cfg_.tuning != nullptr && (st >> kPinShift) != agg) return kIdle;
        return st & kOpMask;
    }

    // True when the caller, a member of `agg`, is its only live member.
    // Static configurations only (member lists are ascending). A stale
    // tid_hwm() can miss a brand-new member; the two then apply ops side by
    // side, which apply_pushes/apply_pops allow.
    bool alone_in(const Agg& agg) const noexcept {
        return agg.tids.size() < 2 || agg.tids[1] >= detail::tid_hwm();
    }

    template <class ApplyPushes, class ApplyPops>
    static std::optional<V> apply_one(std::size_t agg, std::uint32_t op,
                                      const V& in, ApplyPushes& apply_pushes,
                                      ApplyPops& apply_pops) {
        if (op == kOpPush) {
            apply_pushes(agg, &in, 1);
            return std::nullopt;
        }
        V out{};
        if (apply_pops(agg, &out, 1) == 1) return out;
        return std::nullopt;
    }

    // Add one frozen batch to the degree counters. Plain load+store, not
    // fetch_add: callers hold agg.lock, so each counter has one writer at a
    // time (the lock hand-off orders successive writers) and an atomic RMW
    // per counter per batch would be pure waste — 4 RMWs dominate the
    // per-op cost when batches are small. stats() takes the same lock, so
    // readers see whole batches only, never a mid-bump tear.
    static void count_batch(Agg& agg, std::size_t batch, std::size_t pairs) {
        auto bump = [](std::atomic<std::uint64_t>& c, std::uint64_t x) {
            c.store(c.load(std::memory_order_relaxed) + x,
                    std::memory_order_relaxed);
        };
        bump(agg.batches, 1);
        bump(agg.batched, batch);
        bump(agg.eliminated, 2 * pairs);
        bump(agg.combined, batch - 2 * pairs);
    }

    // The freezer backoff: spin until every member in absent[0, n) has an
    // op pending for `agg`, or `ns` pass. Only absent slots are polled:
    // pending ones stay pending under the lock (see scan in combine()).
    void await_absent(std::size_t agg, std::uint32_t* absent, std::size_t n,
                      std::uint64_t ns) const noexcept {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
        do {
            std::size_t left = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (pending_here(slots_[absent[i]], agg) == kIdle) {
                    absent[left++] = absent[i];
                }
            }
            n = left;
            if (n == 0) return;
            detail::cpu_relax();
        } while (std::chrono::steady_clock::now() < deadline);
    }

    std::optional<V> consume(Slot& slot, std::uint32_t st) {
        std::optional<V> r;
        if (st == kDoneValue) r = slot.out;
        slot.state.store(kIdle, std::memory_order_relaxed);
        return r;
    }

    template <class ApplyPushes, class ApplyPops>
    void combine(Agg& agg, const Tune& tune, ApplyPushes&& apply_pushes,
                 ApplyPops&& apply_pops) {
        const bool adaptive = cfg_.tuning != nullptr;
        const std::vector<std::uint32_t>& members =
            adaptive ? tids_by_active_[tune.active - 1][agg.index] : agg.tids;
        // Pending pushes, pending pops, and live members with nothing
        // pending here, as of the last scan.
        std::size_t np = 0, nq = 0, na = 0;
        // Member lists are ascending, so every live slot sits in the prefix
        // below the tid high-water mark — stop there instead of walking all
        // max_threads entries. A stale (smaller) view can only miss a
        // brand-new thread, which re-drives its own aggregator until served.
        const std::size_t hwm = detail::tid_hwm();
        auto scan = [&] {
            // Rebuilding from scratch on the rescan is safe in both modes:
            // only a freezer holding THIS aggregator's lock may serve a
            // slot pinned (or statically assigned) to it, and an owner
            // needs the same lock to re-point its pin — pending slots stay
            // pending across the backoff.
            np = nq = na = 0;
            const std::size_t m = members.size();
            for (std::size_t j = 0; j < m; ++j) {
                const std::uint32_t t = members[j];
                if (t >= hwm) break;
                // Each Slot is its own cache line; touch the next member's
                // line while this one's acquire load resolves.
                if (j + 1 < m && members[j + 1] < hwm) {
                    prefetch(&slots_[members[j + 1]]);
                }
                const std::uint32_t st = pending_here(slots_[t], agg.index);
                if (st == kIdle) {
                    agg.scratch_absent[na++] = t;
                } else if (st == kOpPush) {
                    agg.scratch_push[np++] = t;
                } else {
                    agg.scratch_pop[nq++] = t;
                }
            }
        };
        scan();
        if (tune.backoff_ns > 0 && np + nq > 1 && na > 0) {
            // Freezer backoff: let the batch fill before freezing it, but
            // only while some live member can still join.
            await_absent(agg.index, agg.scratch_absent.get(), na,
                         tune.backoff_ns);
            scan();
        }
        const std::size_t batch = np + nq;
        if (batch == 0) return;

        // Freeze: the snapshot is the batch. Eliminate push/pop pairs —
        // unless the owning container is FIFO-shaped, where pairing a pop
        // with a concurrent push is not linearizable (Config::eliminate).
        const std::size_t pairs =
            cfg_.eliminate ? std::min(np, nq) : std::size_t{0};
        for (std::size_t i = 0; i < pairs; ++i) {
            Slot& ps = slots_[agg.scratch_push[i]];
            Slot& qs = slots_[agg.scratch_pop[i]];
            qs.out = ps.in;
            qs.state.store(kDoneValue, std::memory_order_release);
            ps.state.store(kDonePushed, std::memory_order_release);
        }

        // Combine the leftover run (all pushes or all pops) in one shot.
        if (np > pairs) {
            const std::size_t n = np - pairs;
            for (std::size_t i = 0; i < n; ++i) {
                agg.scratch_vals[i] = slots_[agg.scratch_push[pairs + i]].in;
            }
            apply_pushes(agg.index, agg.scratch_vals.get(), n);
            for (std::size_t i = 0; i < n; ++i) {
                slots_[agg.scratch_push[pairs + i]].state.store(
                    kDonePushed, std::memory_order_release);
            }
        } else if (nq > pairs) {
            const std::size_t n = nq - pairs;
            const std::size_t got =
                apply_pops(agg.index, agg.scratch_vals.get(), n);
            for (std::size_t i = 0; i < got; ++i) {
                Slot& qs = slots_[agg.scratch_pop[pairs + i]];
                qs.out = agg.scratch_vals[i];
                qs.state.store(kDoneValue, std::memory_order_release);
            }
            for (std::size_t i = got; i < n; ++i) {
                slots_[agg.scratch_pop[pairs + i]].state.store(
                    kDoneEmpty, std::memory_order_release);
            }
        }

        if (cfg_.collect_stats) count_batch(agg, batch, pairs);
    }

    Config cfg_;
    std::size_t num_aggs_ = 1;
    std::unique_ptr<Slot[]> slots_;
    std::unique_ptr<Agg[]> aggs_;
    // [active - 1][agg] -> member tids; built only under Config::tuning.
    std::vector<std::vector<std::vector<std::uint32_t>>> tids_by_active_;
};

}  // namespace sec::detail
