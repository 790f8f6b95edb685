// lifo.hpp — the closed-loop workloads: 4 pinned workers drive one SEC
// stack directly.
//
//   lifo_mixed       50% push / 50% pop in seeded random order over a
//                    prefilled stack. Each worker's pops never exceed its
//                    pushes by more than its share of the prefill, so the
//                    stack can never be empty and an empty pop is a failure.
//                    Push/pop overlap, so elimination and combining work.
//   lifo_fill_drain  barrier-separated rounds on the same prefill: every
//                    worker pushes R values, then every worker pops R
//                    values. No pop can find the stack empty, no batch
//                    mixes pushes with pops, so nothing is eliminated:
//                    every push allocates a spine node and every pop
//                    retires one.
//
// Throughput is read in windows of equal length. It differs by up to ±15%
// from one set-up of the same stack to the next, far more than between the
// windows of one set-up, so an untraced run measures kMeasuredSetups
// set-ups in turn and reports the median window over all of them. Each
// worker times every block of kBlockCalls consecutive calls; in a traced
// run it also times every kSampleEvery-th container call. Quantiles are
// taken per window, then the median window is reported.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "alloc_hooks.hpp"
#include "common.hpp"
#include "exec/worker_pool.hpp"
#include "report.hpp"
#include "stack.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr unsigned kLifoWorkers = 4;
// Per worker: how far its pops may run ahead of its pushes (lifo_mixed).
// The prefill is kLifoWorkers times this, so the stack never empties. A
// 50/50 walk of 10^8 steps strays about 10^4 from its start; the cap only
// bounds the rare excursion beyond it. lifo_fill_drain's rounds run on top
// of the same prefill, which no pop reaches: it gives both workloads the
// same set-up work, which times far steadier than a thread start alone.
inline constexpr std::int64_t kMixedDeficitCap = 32768;
inline constexpr std::uint64_t kPrefill =
    kLifoWorkers * static_cast<std::uint64_t>(kMixedDeficitCap);
// Per worker and round: values pushed, then popped (lifo_fill_drain).
inline constexpr std::uint64_t kRoundOps = 32768;
inline constexpr std::size_t kSpansPerWorker = 1 << 18;
inline constexpr unsigned kSpanEvery = 4;
// Traced runs only: every kSampleEvery-th call is timed on its own.
inline constexpr unsigned kSampleEvery = 64;
inline constexpr std::uint64_t kBlockCalls = 256;
inline constexpr int kMeasuredSetups = 20;
inline constexpr unsigned kWindowsPerSetup = 4;
inline constexpr int kTracedPairs = 4;

namespace lifo_detail {

inline constexpr std::uint64_t kNoRound = std::numeric_limits<std::uint64_t>::max();

// Sample word: window << 33 | is_pop << 32 | nanoseconds (saturated).
inline std::uint64_t sample_word(std::uint32_t window, bool pop,
                                 std::uint64_t ns) {
    return (std::uint64_t{window} << 33) | (std::uint64_t{pop} << 32) |
           std::min<std::uint64_t>(ns, 0xFFFFFFFFull);
}

// Unique per (worker, sequence); the prefill uses worker id 0.
inline std::uint64_t value_of(unsigned worker, std::uint64_t seq) {
    return (std::uint64_t{worker + 1} << 48) | seq;
}

struct alignas(64) WorkerOut {
    std::atomic<std::uint64_t> ops{0};  // progress, published every 64 ops
    std::uint64_t empty_pops = 0;
    Conservation pushed;
    Conservation popped;
    std::vector<std::uint64_t>* samples = nullptr;  // sampled calls
    std::vector<std::uint64_t>* blocks = nullptr;   // timed call blocks
    alloc::Counts allocs;
    trace::Buffer* spans = nullptr;
};

struct Shared {
    std::atomic<bool> abandon{false};
    std::atomic<bool> stop{false};
    std::atomic<std::uint32_t> window{0};
    // lifo_fill_drain: the last round, chosen by worker 0 before a round's
    // middle barrier and read by everyone after that round's end barrier.
    std::atomic<std::uint64_t> stop_round{kNoRound};
    std::barrier<> rounds{kLifoWorkers};
};

// Per-worker op loop state.
template <class Stack, bool Traced>
class Worker {
public:
    Worker(Stack& stack, WorkerOut& out, Shared& sh, unsigned index,
           unsigned every, std::uint64_t seed)
        : stack_(stack),
          out_(out),
          sh_(sh),
          index_(index),
          every_(every),
          rng_(seed, 1000 + index) {
        // Stagger the first sample per worker; after it, every `every`th op.
        until_sample_ = every_ == 0 ? 0 : 1 + rng_.next() % every_;
    }

    void run_mixed() {
        std::int64_t deficit = 0;  // own pops minus own pushes
        while (!sh_.stop.load(std::memory_order_relaxed)) {
            std::uint64_t bits = rng_.next();
            block_begin();
            for (int k = 0; k < 64; ++k, bits >>= 1) {
                const bool push = (bits & 1) != 0 || deficit >= kMixedDeficitCap;
                deficit += push ? -1 : 1;
                op(push);
            }
            block_end();
            publish(64);
        }
    }

    void run_fill_drain() {
        for (std::uint64_t round = 0;; ++round) {
            phase(true);
            if (index_ == 0 && sh_.stop.load(std::memory_order_acquire) &&
                sh_.stop_round.load(std::memory_order_relaxed) == kNoRound) {
                sh_.stop_round.store(round, std::memory_order_release);
            }
            sh_.rounds.arrive_and_wait();
            phase(false);
            sh_.rounds.arrive_and_wait();
            if (round >= sh_.stop_round.load(std::memory_order_acquire)) break;
        }
    }

private:
    void phase(bool push) {
        for (std::uint64_t i = 0; i < kRoundOps; i += 64) {
            block_begin();
            for (int k = 0; k < 64; ++k) op(push);
            block_end();
            publish(64);
        }
    }

    // Every run of kBlockCalls consecutive calls is timed as a whole: what
    // a closed-loop client sees per call, its own bookkeeping included.
    // Blocks average over the eliminated fast path and the freezer wait,
    // whose mix shifts from run to run.
    void block_begin() {
        if (calls_in_block_ == 0) block_t0_ = now_ns();
    }
    void block_end() {
        calls_in_block_ += 64;
        if (calls_in_block_ < kBlockCalls) return;
        calls_in_block_ = 0;
        out_.blocks->push_back(sample_word(
            sh_.window.load(std::memory_order_relaxed), false,
            now_ns() - block_t0_));
    }

    void publish(std::uint64_t n) {
        ops_ += n;
        out_.ops.store(ops_, std::memory_order_relaxed);
    }

    void op(bool push) {
        const std::uint64_t v = push ? value_of(index_, seq_++) : 0;
        std::optional<Value> got;
        if (every_ != 0 && --until_sample_ == 0) {
            until_sample_ = every_;
            got = sampled_call(push, v);
        } else {
            got = call(push, v);
        }
        if (push) {
            out_.pushed.add(v);
        } else if (got) {
            out_.popped.add(*got);
        } else {
            ++out_.empty_pops;
        }
    }

    std::optional<Value> call(bool push, Value v) {
        if constexpr (Traced) {
            alloc::OpScope scope(&out_.allocs);
            return raw_call(push, v);
        } else {
            return raw_call(push, v);
        }
    }

    std::optional<Value> raw_call(bool push, Value v) {
        if (push) {
            stack_.push(v);
            return std::nullopt;
        }
        return stack_.pop();
    }

    std::optional<Value> sampled_call(bool push, Value v) {
        // One sampled call in kSpanEvery becomes a span (with its allocator
        // children), which keeps a traced run's spans within the buffers.
        const bool span =
            Traced && out_.spans != nullptr && ++span_tick_ % kSpanEvery == 0;
        std::uint64_t id = 0;
        if (span) {
            id = out_.spans->next_id();
            trace::t_buffer = out_.spans;
            trace::t_parent = id;
        }
        const std::uint64_t t0 = now_ns();
        std::optional<Value> got = call(push, v);
        const std::uint64_t t1 = now_ns();
        if (span) {
            trace::t_buffer = nullptr;
            out_.spans->record(push ? trace::Name::kPush : trace::Name::kPop,
                               id, 0, t0, t1);
        }
        out_.samples->push_back(
            sample_word(sh_.window.load(std::memory_order_relaxed), !push,
                        t1 - t0));
        return got;
    }

    Stack& stack_;
    WorkerOut& out_;
    Shared& sh_;
    unsigned index_;
    unsigned every_;
    Rng rng_;
    std::uint64_t until_sample_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t ops_ = 0;
    std::uint64_t calls_in_block_ = 0;
    std::uint64_t block_t0_ = 0;
    std::uint64_t span_tick_ = 0;
};

// Per-worker timing samples, allocated once per run (prefault).
struct SampleStore {
    std::array<std::vector<std::uint64_t>, kLifoWorkers> calls, blocks;
};

// Room for one set-up measured for `seconds`; `sample_every`: 0 when no
// call is timed on its own.
inline SampleStore make_sample_store(double seconds, unsigned sample_every) {
    SampleStore store;
    // A worker completes at most ~3 M calls/s on current hardware; more
    // samples than this only grow the vectors.
    const double per_worker = 3e6 * seconds;
    for (unsigned w = 0; w < kLifoWorkers; ++w) {
        if (sample_every != 0) {
            prefault(store.calls[w],
                     static_cast<std::size_t>(per_worker / sample_every));
        }
        prefault(store.blocks[w],
                 static_cast<std::size_t>(per_worker / kBlockCalls));
    }
    return store;
}

// What one measured set-up yields.
struct Measured {
    std::vector<double> mops;  // per window
    std::vector<double> p50_ns, p99_ns;        // sampled calls, per window
    std::uint64_t latency_samples = 0;
    std::vector<double> block_p50_ns, block_p99_ns;  // per call, per window
    std::uint64_t block_samples = 0;
    double push_p50 = 0, push_p99 = 0, pop_p50 = 0, pop_p99 = 0;
    std::uint64_t ops = 0;        // every call made by the workers
    std::uint64_t empty_pops = 0;
    double wall_s = 0.0;          // release to the last worker's exit
    Usage usage;                  // process CPU over the same span
    sec::StatsSnapshot agg;       // degree counter deltas
    sec::reclaim::Stats reclaim;  // retire/free deltas (hwm: absolute)
    alloc::Counts allocs;
    double drain_ms = 0.0;
    double rss_mib = 0.0;         // peak over the baseline, up to the stop
    bool conserved = false;
    std::uint64_t conservation_gap = 0;
    sec::exec::PerfTotals perf;
    unsigned pinned = 0;
};

// One set-up of the workload: domain + stack + prefill + started pool.
// `sample_every`: time every Nth call on its own (0: none).
template <class Stack>
class Setup {
public:
    Setup(const RunOptions& opts, SampleStore& samples, bool fill_drain,
          unsigned sample_every, bool traced, trace::Recorder* rec)
        : opts_(opts),
          fill_drain_(fill_drain),
          sample_every_(sample_every),
          traced_(traced) {
        const std::uint64_t t0 = now_ns();
        domain_ = std::make_unique<sec::reclaim::EpochDomain>();
        stack_ = std::make_unique<Stack>(bench_config(kLifoWorkers, traced),
                                         *domain_);
        on_own_thread([&] {
            for (std::uint64_t i = 0; i < kPrefill; ++i) {
                const Value v = value_of(kLifoWorkers, i);
                stack_->push(v);
                prefill_.add(v);
            }
        });
        for (unsigned w = 0; w < kLifoWorkers; ++w) {
            outs_[w] = std::make_unique<WorkerOut>();
            samples.calls[w].clear();
            samples.blocks[w].clear();
            outs_[w]->samples = &samples.calls[w];
            outs_[w]->blocks = &samples.blocks[w];
            if (rec != nullptr) outs_[w]->spans = &rec->add_buffer(kSpansPerWorker);
        }
        const std::uint64_t tp = now_ns();
        sec::exec::PoolOptions popts;
        popts.pin = sec::topo::PinPolicy::kCompact;
        popts.counters = traced;
        popts.coordinator_in_barrier = true;
        pool_ = std::make_unique<sec::exec::WorkerPool>(kLifoWorkers, popts);
        pool_->start([this](sec::exec::WorkerContext& ctx) { body(ctx); });
        setup_start_ns_ = t0;
        pool_start_ns_ = tp;
    }

    ~Setup() {
        if (!released_) release(true);
        pool_->join();
    }

    Setup(const Setup&) = delete;
    Setup& operator=(const Setup&) = delete;

    // Release the workers (abandon: they exit at once). Returns the set-up
    // time: construction start to the barrier every worker has reached.
    double release(bool abandon) {
        sh_.abandon.store(abandon, std::memory_order_relaxed);
        agg0_ = stack_->stats();
        reclaim0_ = domain_->stats();
        usage0_ = usage_self();
        pool_->sync();
        released_ = true;
        release_ns_ = now_ns();
        pool_start_ms_ = static_cast<double>(release_ns_ - pool_start_ns_) * 1e-6;
        return static_cast<double>(release_ns_ - setup_start_ns_) * 1e-9;
    }

    double pool_start_ms() const noexcept { return pool_start_ms_; }

    // Run `windows` windows of `window_s` seconds, stop, and check. `rss`
    // (optional) reads the resident peak once the workers have stopped,
    // before the oracle's drain retires the whole stack.
    Measured measure(unsigned windows, double window_s,
                     const RssPeak* rss = nullptr) {
        Measured m;
        std::uint64_t prev_ops = total_ops();
        std::uint64_t prev_t = now_ns();
        const auto start = std::chrono::steady_clock::now();
        for (unsigned w = 0; w < windows; ++w) {
            std::this_thread::sleep_until(
                start + std::chrono::duration<double>(window_s * (w + 1)));
            const std::uint64_t t = now_ns();
            const std::uint64_t ops = total_ops();
            sh_.window.store(w + 1, std::memory_order_relaxed);
            m.mops.push_back(static_cast<double>(ops - prev_ops) * 1e3 /
                             static_cast<double>(t - prev_t));
            prev_ops = ops;
            prev_t = t;
        }
        sh_.stop.store(true, std::memory_order_release);
        pool_->join();
        const std::uint64_t end_ns = now_ns();
        m.wall_s = static_cast<double>(end_ns - release_ns_) * 1e-9;
        m.usage = usage_self() - usage0_;
        m.perf = pool_->counters();
        m.pinned = pinned_.load();
        if (rss != nullptr) m.rss_mib = rss->peak_mib();

        m.agg = stats_delta(stack_->stats(), agg0_);
        const sec::reclaim::Stats rs = domain_->stats();
        m.reclaim.retired = rs.retired - reclaim0_.retired;
        m.reclaim.freed = rs.freed - reclaim0_.freed;
        m.reclaim.limbo_hwm = rs.limbo_hwm;
        const std::uint64_t d0 = now_ns();
        domain_->drain_all();
        m.drain_ms = static_cast<double>(now_ns() - d0) * 1e-6;

        Conservation pushed = prefill_;
        Conservation popped;
        for (const auto& o : outs_) {
            m.ops += o->ops.load(std::memory_order_relaxed);
            m.empty_pops += o->empty_pops;
            pushed.merge(o->pushed);
            popped.merge(o->popped);
            m.allocs.allocs += o->allocs.allocs;
            m.allocs.frees += o->allocs.frees;
        }
        on_own_thread([&] {
            while (const std::optional<Value> v = stack_->pop()) popped.add(*v);
        });
        m.conserved = pushed == popped;
        m.conservation_gap = pushed.count > popped.count
                                 ? pushed.count - popped.count
                                 : popped.count - pushed.count;
        if (!m.conserved && m.conservation_gap == 0) m.conservation_gap = 1;
        latencies(m, windows);
        return m;
    }

private:
    std::uint64_t total_ops() const {
        std::uint64_t n = 0;
        for (const auto& o : outs_) n += o->ops.load(std::memory_order_relaxed);
        return n;
    }

    void body(sec::exec::WorkerContext& ctx) {
        if (ctx.cpu >= 0) pinned_.fetch_add(1);
        ctx.sync();
        if (sh_.abandon.load(std::memory_order_relaxed)) return;
        ctx.counters_restart();
        const std::uint64_t seed = opts_.seed * 7919 + (fill_drain_ ? 1 : 0);
        WorkerOut& out = *outs_[ctx.index];
        if (traced_) {
            Worker<Stack, true> w(*stack_, out, sh_, ctx.index,
                                  sample_every_, seed);
            fill_drain_ ? w.run_fill_drain() : w.run_mixed();
        } else {
            Worker<Stack, false> w(*stack_, out, sh_, ctx.index,
                                   sample_every_, seed);
            fill_drain_ ? w.run_fill_drain() : w.run_mixed();
        }
    }

    void latencies(Measured& m, unsigned windows) {
        std::vector<std::vector<std::uint32_t>> per(windows);
        std::vector<std::uint32_t> push, pop;
        for (const auto& o : outs_) {
            for (const std::uint64_t s : *o->samples) {
                const auto w = static_cast<std::uint32_t>(s >> 33);
                if (w >= windows) continue;  // after the last window closed
                const auto ns = static_cast<std::uint32_t>(s);
                per[w].push_back(ns);
                ((s >> 32) & 1 ? pop : push).push_back(ns);
            }
        }
        for (auto& v : per) {
            if (v.empty()) continue;
            m.latency_samples += v.size();
            m.p50_ns.push_back(quantile(v, 0.50));
            m.p99_ns.push_back(quantile(v, 0.99));
        }
        std::vector<std::vector<double>> blocks(windows);
        for (const auto& o : outs_) {
            for (const std::uint64_t s : *o->blocks) {
                const auto w = static_cast<std::uint32_t>(s >> 33);
                if (w < windows) {
                    blocks[w].push_back(static_cast<double>(s & 0xFFFFFFFFull) /
                                        kBlockCalls);
                }
            }
        }
        for (auto& v : blocks) {
            if (v.empty()) continue;
            m.block_samples += v.size();
            m.block_p50_ns.push_back(quantile(v, 0.50));
            m.block_p99_ns.push_back(quantile(v, 0.99));
        }
        m.push_p50 = quantile(push, 0.50);
        m.push_p99 = quantile(push, 0.99);
        m.pop_p50 = quantile(pop, 0.50);
        m.pop_p99 = quantile(pop, 0.99);
    }

    const RunOptions& opts_;
    bool fill_drain_;
    unsigned sample_every_;
    bool traced_;
    std::unique_ptr<sec::reclaim::EpochDomain> domain_;
    std::unique_ptr<Stack> stack_;
    Conservation prefill_;
    std::array<std::unique_ptr<WorkerOut>, kLifoWorkers> outs_;
    Shared sh_;
    std::atomic<unsigned> pinned_{0};
    sec::StatsSnapshot agg0_;
    sec::reclaim::Stats reclaim0_;
    Usage usage0_;
    std::uint64_t setup_start_ns_ = 0, pool_start_ns_ = 0, release_ns_ = 0;
    double pool_start_ms_ = 0.0;
    bool released_ = false;
    // Declared last: joined (in the destructor) before anything above dies.
    std::unique_ptr<sec::exec::WorkerPool> pool_;
};

inline void check(const Measured& m, Report& r) {
    r.attempted += m.ops;
    r.failed += m.empty_pops + m.conservation_gap;
    if (m.empty_pops > 0) {
        r.fail(std::to_string(m.empty_pops) +
               " pops found the stack empty though the workload keeps it "
               "non-empty");
    }
    if (!m.conserved) {
        r.fail("conservation: pushed and popped+drained values differ (count "
               "gap " + std::to_string(m.conservation_gap) + ")");
    }
}

}  // namespace lifo_detail

// Untraced run: every end-to-end metric.
template <class Stack>
void run_lifo(const RunOptions& opts, bool fill_drain, Report& r) {
    using namespace lifo_detail;
    const double per_setup_s = opts.seconds / kMeasuredSetups;
    SampleStore samples = make_sample_store(per_setup_s, 0);
    const RssPeak rss;
    double rss_mib = 0.0;
    std::vector<double> setups;
    std::vector<double> mops;
    std::string per_setup = "set-up median window Mops/s:";
    // Each measured set-up is followed by an abandoned one, so the timed
    // set-ups sample the host over the whole run, not its first moments.
    for (int i = 0; i < kMeasuredSetups; ++i) {
        {
            Setup<Stack> s(opts, samples, fill_drain, 0, false, nullptr);
            setups.push_back(s.release(false));
            const Measured m =
                s.measure(kWindowsPerSetup, per_setup_s / kWindowsPerSetup,
                          i == 0 ? &rss : nullptr);
            check(m, r);
            mops.insert(mops.end(), m.mops.begin(), m.mops.end());
            per_setup += " " + std::to_string(median(m.mops));
            if (i == 0) rss_mib = m.rss_mib;
        }
        for (int k = 1; k < kSetupRepeats / kMeasuredSetups; ++k) {
            Setup<Stack> s(opts, samples, fill_drain, 0, false, nullptr);
            setups.push_back(s.release(true));
        }
    }
    r.note(per_setup);

    const double mops_median = median(mops);
    r.add("setup_s", median(setups), setups.size());
    r.add("throughput_mops", mops_median, mops.size());
    // Closed loop: the load the clients sustain is the throughput.
    r.add("served_knee_kops", mops_median * 1e3, mops.size());
    r.add("peak_rss_mb", rss_mib);
}

// Traced run: kTracedPairs pairs of an untraced set-up (the reference for
// trace.overhead_pct, and the only place per-call latencies are timed) and
// a traced one. Throughput differs from set-up to set-up by more than the
// tracing costs, so the overhead compares medians over all pairs. The last
// traced set-up records the spans and yields the per-layer metrics.
template <class Stack>
void run_lifo_traced(const RunOptions& opts, bool fill_drain, Report& r,
                     trace::Recorder& rec) {
    using namespace lifo_detail;
    const unsigned windows = 4;
    const double window_s = opts.seconds / (2 * kTracedPairs * windows);
    SampleStore samples = make_sample_store(windows * window_s, kSampleEvery);
    std::vector<double> untraced_mops, traced_mops, p50_ns, p99_ns, block_p50_ns,
        block_p99_ns;
    std::uint64_t latency_samples = 0, block_samples = 0;
    Measured m;
    double pool_start_ms = 0.0;
    for (int i = 0; i < kTracedPairs; ++i) {
        {
            Setup<Stack> s(opts, samples, fill_drain, kSampleEvery, false, nullptr);
            s.release(false);
            const Measured u = s.measure(windows, window_s);
            check(u, r);
            untraced_mops.insert(untraced_mops.end(), u.mops.begin(), u.mops.end());
            p50_ns.insert(p50_ns.end(), u.p50_ns.begin(), u.p50_ns.end());
            p99_ns.insert(p99_ns.end(), u.p99_ns.begin(), u.p99_ns.end());
            block_p50_ns.insert(block_p50_ns.end(), u.block_p50_ns.begin(),
                                u.block_p50_ns.end());
            block_p99_ns.insert(block_p99_ns.end(), u.block_p99_ns.begin(),
                                u.block_p99_ns.end());
            latency_samples += u.latency_samples;
            block_samples += u.block_samples;
        }
        const bool last = i + 1 == kTracedPairs;
        Setup<Stack> s(opts, samples, fill_drain, kSampleEvery, true,
                       last ? &rec : nullptr);
        s.release(false);
        m = s.measure(windows, window_s);
        check(m, r);
        traced_mops.insert(traced_mops.end(), m.mops.begin(), m.mops.end());
        pool_start_ms = s.pool_start_ms();
    }
    // Per-call latencies are too unsteady on small VMs to gate; they are
    // timed in the untraced set-ups here and nowhere else.
    r.add("op_p50_ns", median(p50_ns), latency_samples);
    r.add("op_p99_ns", median(p99_ns), latency_samples);
    // Closed loop: a call is due the moment its predecessor returns, so a
    // client's sojourn per call is the time per call over its timed blocks.
    r.add("sojourn_p50_us", median(block_p50_ns) * 1e-3, block_samples);
    r.add("sojourn_p99_us", median(block_p99_ns) * 1e-3, block_samples);
    const double ops = static_cast<double>(std::max<std::uint64_t>(m.ops, 1));
    const trace::Summary sum = rec.summarize();
    const auto& push = sum[trace::Name::kPush];
    const auto& pop = sum[trace::Name::kPop];
    const double sampled = static_cast<double>(push.count + pop.count);

    r.add("core.agg.batch_degree", m.agg.batching_degree());
    r.add("core.agg.elim_share",
          m.agg.batched_ops ? static_cast<double>(m.agg.eliminated_ops) /
                                  static_cast<double>(m.agg.batched_ops)
                            : 0.0);
    r.add("core.agg.batches_per_kop",
          static_cast<double>(m.agg.batches) * 1e3 / ops);
    r.add("core.push_ns_p50", m.push_p50, push.count);
    r.add("core.push_ns_p99", m.push_p99, push.count);
    r.add("core.pop_ns_p50", m.pop_p50, pop.count);
    r.add("core.pop_ns_p99", m.pop_p99, pop.count);
    r.add("core.self_ns_per_op",
          sampled > 0 ? (push.self_ns + pop.self_ns) / sampled : 0.0,
          push.count + pop.count);

    r.add("alloc.allocs_per_op", static_cast<double>(m.allocs.allocs) / ops);
    r.add("alloc.frees_per_op", static_cast<double>(m.allocs.frees) / ops);
    r.add("alloc.ns_per_op",
          sampled > 0 ? (sum[trace::Name::kAlloc].total_ns +
                         sum[trace::Name::kFree].total_ns) /
                            sampled
                      : 0.0, push.count + pop.count);

    r.add("reclaim.retired_per_op",
          static_cast<double>(m.reclaim.retired) / ops);
    r.add("reclaim.freed_share",
          m.reclaim.retired ? static_cast<double>(m.reclaim.freed) /
                                  static_cast<double>(m.reclaim.retired)
                            : 0.0);
    r.add("reclaim.limbo_hwm", static_cast<double>(m.reclaim.limbo_hwm));
    r.add("reclaim.drain_ms", m.drain_ms);

    r.add("exec.pool_start_ms", pool_start_ms);
    r.add("exec.pinned_workers", m.pinned);
    r.add("exec.cpu_util", m.usage.cpu_s() / (m.wall_s * kLifoWorkers));
    r.add("exec.ctx_switches_per_kop",
          static_cast<double>(m.usage.ctx_switches) * 1e3 / ops);
    if (m.perf.any()) {
        r.add("exec.cycles_per_op", static_cast<double>(m.perf.cycles) / ops);
    } else {
        const std::string why = hw_counter_unavailable_reason();
        r.add_missing("exec.cycles_per_op",
                      why.empty() ? "counter group did not open" : why);
    }

    const std::string no_net = "not exercised: this workload has no network layer";
    for (const char* name :
         {"net.server_batch_degree", "net.rtt_p50_us", "net.rtt_p99_us",
          "net.encode_ns", "net.decode_ns", "net.cpu_us_per_req",
          "net.sys_share"}) {
        r.add_missing(name, no_net);
    }
    r.add_missing("loadgen.lag_p99_us",
                  "not exercised: a closed loop has no schedule to lag");
    const double base = median(untraced_mops);
    r.add("trace.overhead_pct",
          base > 0 ? (base - median(traced_mops)) * 100.0 / base : 0.0);
    r.add("failed_frac",
          static_cast<double>(r.failed) /
              static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)));
    if (sum.dropped > 0) {
        r.note("trace: " + std::to_string(sum.dropped) +
               " spans dropped (buffers full)");
    }
}

}  // namespace perfbench
