// served.hpp — served_loopback: an in-process SecServer (epoll, one loop
// thread) over the SEC stack, driven open-loop by LoadGen from one pinned
// generator thread.
//
// The server owns an AnyStack; the benchmark hands it a model that borrows
// the benchmark's own stack, so the stack's degree counters stay readable
// and, in a traced run, every Nth container call the loop thread makes can
// be timed at the net → core boundary.
//
// An untraced run measures two reference windows at kReferenceRate, then
// spends the rest of its time on a staircase search for the knee on a
// geometric rate grid. A traced run measures reference windows only
// (sojourn, container-call latency, the per-layer counters). Each probe of
// the search is one window: any failed request, an overloaded
// window, or a sojourn or lag p99 past its limit fails it. Afterwards the
// stack is drained over the wire and the conservation oracle compares
// every acknowledged push with every pop.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_hooks.hpp"
#include "common.hpp"
#include "core/stack_concept.hpp"
#include "exec/placement.hpp"
#include "exec/worker_pool.hpp"
#include "loadgen.hpp"
#include "net/server.hpp"
#include "report.hpp"
#include "stack.hpp"
#include "trace.hpp"

namespace perfbench {

// Offered load of the reference windows: well below the knee, and above
// ~100 Kops/s, where the idle loop's wake-ups dominate p99.
inline constexpr double kReferenceRate = 200e3;
// The knee's limit on the sojourn p99. Below the server's capacity a
// request waits at most about as long as the longest stall of the host in
// its window, whatever the load; past capacity the queue, and with it the
// sojourn, grows without bound (2% over capacity adds ~10 ms within one
// probe window). On a shared VM stalls of 5-15 ms come and go for minutes:
// with a 5 ms limit they, not the server, set the knee. 20 ms lies above
// them and still within the steep part of the latency curve.
inline constexpr double kSojournLimitUs = 20000.0;
// A window whose generator lag p99 passes this fell behind on the
// generator's side; it is invalid, neither pass nor fail. Near the knee
// the lag p99 reads 0.3-2.5 ms; with a 1 ms limit most probes there were
// invalid.
inline constexpr double kLagLimitUs = kSojournLimitUs / 4;
// Knee grid: kGridBase * kGridStep^k requests/s, k in [0, kGridTop].
inline constexpr double kGridBase = 100e3;
inline constexpr double kGridStep = 1.025;
inline constexpr int kGridTop = 150;  // 4.1 Mops/s
// The staircase: kKneeProbes probes, the first at grid index kStairStart
// (0.97 Mops/s), moving kStairFirstStep grid steps at first; see knee().
inline constexpr int kKneeProbes = 60;
inline constexpr int kStairStart = 92;
inline constexpr int kStairFirstStep = 16;
inline constexpr unsigned kServedSampleEvery = 8;
inline constexpr std::size_t kServerSpans = 1 << 18;
inline constexpr std::size_t kGeneratorSpans = 1 << 19;

namespace served_detail {

inline constexpr std::uint32_t kNoWindow = 0xFFFFFFFFu;

inline double grid_rate(int k) { return kGridBase * std::pow(kGridStep, k); }

// Window lengths as shares of --seconds: an untraced run's two reference
// windows take a sixteenth of it, the knee's probes the rest.
inline double ref_window_s(const RunOptions& o) { return o.seconds / 32; }
inline double probe_window_s(const RunOptions& o) { return o.seconds / 64; }

// Prefill values carry bit 62, which no request tag has.
inline Value prefill_value(std::uint64_t i) {
    return (std::uint64_t{1} << 62) | i;
}

// What the loop thread records about the container calls it makes.
struct CallLog {
    std::atomic<std::uint32_t> window{kNoWindow};  // set by the generator
    std::atomic<bool> traced{false};
    // window << 33 | pop << 32 | ns; null: no call is timed (untraced runs)
    std::vector<std::uint64_t>* samples = nullptr;
    std::uint64_t calls = 0;
    std::uint64_t traced_calls = 0;
    alloc::Counts allocs;
    trace::Buffer* spans = nullptr;
    int loop_cpu = -2;  // -2: no call seen yet
};

// AnyStack model over a stack the benchmark owns. The loop thread is its
// only caller; the phase entry points are never used by SecServer.
template <class Stack>
class BorrowedModel final : public sec::AnyStack::Model {
public:
    BorrowedModel(Stack& stack, CallLog& log) : stack_(stack), log_(log) {}

    bool push(Value v) override {
        call(false, v);
        return true;
    }
    std::optional<Value> pop() override { return call(true, 0); }
    std::optional<Value> peek() override { return stack_.peek(); }
    sec::ContainerShape shape() const override {
        return sec::ContainerShape::lifo;
    }
    bool has_stats() const override { return true; }
    sec::StatsSnapshot stats() const override { return stack_.stats(); }

    void prefill(std::size_t, const sec::PhaseArgs&) override { unused(); }
    std::uint64_t mixed_until(const std::atomic<bool>&,
                              const sec::PhaseArgs&) override {
        unused();
    }
    std::uint64_t mixed_ops(std::uint64_t, const sec::PhaseArgs&) override {
        unused();
    }
    std::uint64_t timed_until(const std::atomic<bool>&, const sec::PhaseArgs&,
                              sec::bench::LatencyHistogram&) override {
        unused();
    }
    std::uint64_t serve_produce(const sec::ServeProduceArgs&) override {
        unused();
    }
    std::uint64_t serve_consume(const std::atomic<bool>&,
                                const sec::ServeConsumeArgs&,
                                sec::bench::LatencyHistogram&,
                                sec::bench::LatencyHistogram&) override {
        unused();
    }

private:
    [[noreturn]] static void unused() {
        throw std::logic_error("perfbench: phase call on a served stack");
    }

    std::optional<Value> call(bool pop, Value v) {
        if (log_.loop_cpu == -2) log_.loop_cpu = sec::exec::this_thread_placement().cpu;
        const bool traced = log_.traced.load(std::memory_order_relaxed);
        if (log_.samples == nullptr || ++log_.calls % kServedSampleEvery != 0) {
            if (!traced) return raw(pop, v);
            ++log_.traced_calls;
            alloc::OpScope scope(&log_.allocs);
            return raw(pop, v);
        }
        // One sampled call in 4 becomes a span with allocator children.
        const bool span = traced && log_.calls % (4 * kServedSampleEvery) == 0;
        std::uint64_t id = 0;
        if (traced) ++log_.traced_calls;
        if (span) {
            id = log_.spans->next_id();
            trace::t_buffer = log_.spans;
            trace::t_parent = id;
        }
        const std::uint64_t t0 = now_ns();
        std::optional<Value> got;
        if (traced) {
            alloc::OpScope scope(&log_.allocs);
            got = raw(pop, v);
        } else {
            got = raw(pop, v);
        }
        const std::uint64_t t1 = now_ns();
        if (span) {
            trace::t_buffer = nullptr;
            log_.spans->record(pop ? trace::Name::kPop : trace::Name::kPush,
                               id, 0, t0, t1);
        }
        const std::uint32_t w = log_.window.load(std::memory_order_relaxed);
        if (w != kNoWindow) {
            log_.samples->push_back((std::uint64_t{w} << 33) |
                                   (std::uint64_t{pop} << 32) |
                                   std::min<std::uint64_t>(t1 - t0, 0xFFFFFFFFull));
        }
        return got;
    }

    std::optional<Value> raw(bool pop, Value v) {
        if (pop) return stack_.pop();
        stack_.push(v);
        return std::nullopt;
    }

    Stack& stack_;
    CallLog& log_;
};

// What the generator thread measured.
struct ServedOut {
    std::vector<WindowStats> reference;  // untraced reference windows
    std::vector<WindowStats> traced;     // traced reference windows
    double knee_mops = 0.0;  // completed requests/s in the knee's windows
    double knee_per_s = 0.0;
    std::vector<std::string> probes;     // "rate: pass|fail (why)" lines
    Conservation pushed, popped;         // windows + wire drain
    std::uint64_t requests = 0, failed = 0, empty_pops = 0;
    // Summed over the traced windows (limbo_hwm: absolute).
    std::uint64_t server_requests = 0, server_batches = 0;
    sec::StatsSnapshot agg{};
    sec::reclaim::Stats reclaim{};
    Usage process, generator;
    double traced_wall_s = 0.0;
    bool generator_pinned = false;
};

inline void account(ServedOut& out, const WindowStats& w) {
    out.pushed.merge(w.pushed);
    out.popped.merge(w.popped);
    out.requests += w.requests;
    out.failed += w.failed;
    out.empty_pops += w.empty_pops;
}

enum class Verdict { kPass, kFail, kInvalid };

// Failed requests and an overloaded server fail a window before the
// generator's lag is looked at: past capacity the lag grows too.
inline Verdict judge(const WindowStats& w, std::string* why) {
    if (w.failed > 0) {
        *why = std::to_string(w.failed) + " failed requests";
        return Verdict::kFail;
    }
    if (w.overloaded) {
        *why = "backlog reached " + std::to_string(kMaxInFlight) +
               " requests on a connection";
        return Verdict::kFail;
    }
    if (w.lag_p99_us > kLagLimitUs) {
        *why = "generator lag p99 " + std::to_string(w.lag_p99_us) + " us";
        return Verdict::kInvalid;
    }
    if (w.sojourn_p99_us > kSojournLimitUs) {
        *why = "sojourn p99 " + std::to_string(w.sojourn_p99_us) + " us";
        return Verdict::kFail;
    }
    return Verdict::kPass;
}

// One setup: domain + stack + prefill + server + connections + generator
// pool waiting at its start barrier.
template <class Stack>
class Setup {
public:
    Setup(const RunOptions& opts, LoadGen& gen,
          std::vector<std::uint64_t>* samples, bool traced,
          trace::Recorder* rec)
        : opts_(opts), gen_(gen) {
        const std::uint64_t t0 = now_ns();
        domain_ = std::make_unique<sec::reclaim::EpochDomain>();
        stack_ = std::make_unique<Stack>(bench_config(2, traced), *domain_);
        on_own_thread([&] {
            for (std::uint64_t i = 0; i < kConnections * kServedDeficitCap; ++i) {
                stack_->push(prefill_value(i));
                prefill_.add(prefill_value(i));
            }
        });
        if (samples != nullptr) samples->clear();
        log_.samples = samples;
        if (rec != nullptr) {
            log_.spans = &rec->add_buffer(kServerSpans);
            gen_spans_ = &rec->add_buffer(kGeneratorSpans);
        }
        sec::net::ServerConfig cfg;
        cfg.pin = sec::topo::PinPolicy::kCompact;
        server_ = std::make_unique<sec::net::SecServer>(
            sec::AnyStack(std::make_unique<BorrowedModel<Stack>>(*stack_, log_)),
            cfg);
        std::string err;
        if (!server_->start(&err)) {
            throw std::runtime_error("server start: " + err);
        }
        if (!gen_.connect(server_->port(), &err)) {
            throw std::runtime_error("loopback connect: " + err);
        }
        const std::uint64_t tp = now_ns();
        sec::exec::PoolOptions popts;
        popts.pin = sec::topo::PinPolicy::kCompact;
        popts.plan_offset = 1;  // the server's loop thread has slot 0
        popts.coordinator_in_barrier = true;
        pool_ = std::make_unique<sec::exec::WorkerPool>(1, popts);
        pool_->start([this](sec::exec::WorkerContext& ctx) {
            out_.generator_pinned = ctx.cpu >= 0;
            ctx.sync();
            if (abandon_.load(std::memory_order_relaxed)) return;
            try {
                body_();
            } catch (const std::exception& e) {
                error_ = e.what();
            }
        });
        setup_start_ns_ = t0;
        pool_start_ns_ = tp;
    }

    ~Setup() {
        if (!released_) release(true, [] {});
        pool_->join();
        gen_.disconnect();
        server_->stop();
    }

    Setup(const Setup&) = delete;
    Setup& operator=(const Setup&) = delete;

    // Release the generator to run `body` (abandon: it exits at once).
    // Returns the set-up time.
    template <class Body>
    double release(bool abandon, Body body) {
        body_ = std::move(body);
        abandon_.store(abandon, std::memory_order_relaxed);
        pool_->sync();
        released_ = true;
        const std::uint64_t t = now_ns();
        pool_start_ms_ = static_cast<double>(t - pool_start_ns_) * 1e-6;
        return static_cast<double>(t - setup_start_ns_) * 1e-9;
    }

    // Wait for the generator, drain the domain, stop the server.
    void finish() {
        pool_->join();
        if (!error_.empty()) throw std::runtime_error(error_);
        server_->stop();
        const std::uint64_t d0 = now_ns();
        domain_->drain_all();
        drain_ms_ = static_cast<double>(now_ns() - d0) * 1e-6;
    }

    // --- used by the generator body ---
    WindowStats window(double rate, double seconds, std::uint32_t tag,
                       bool traced) {
        log_.window.store(tag, std::memory_order_relaxed);
        WindowStats w = gen_.window(rate, seconds, opts_.seed,
                                    traced ? gen_spans_ : nullptr);
        log_.window.store(kNoWindow, std::memory_order_relaxed);
        account(out_, w);
        return w;
    }

    // The first window after set-up runs cold (buffers and caches grow);
    // its numbers are discarded, its requests still checked.
    void warm_up(double seconds) {
        window(kReferenceRate, seconds / 4, kNoWindow, false);
    }

    // The first window at a rate well above any before it often melts
    // down, with a backlog of tens of milliseconds, while later windows at
    // that rate do not. One window at the top of the grid, which ends
    // overloaded within milliseconds, takes that first time before the
    // knee search starts.
    void overload_once(double seconds) {
        window(grid_rate(kGridTop), seconds, kNoWindow, false);
    }

    // Staircase search for the knee on the rate grid: a probe that passes
    // moves the rate up, one that fails moves it down, by a step that
    // starts at kStairFirstStep grid steps and halves at each reversal
    // down to one. From then on the staircase oscillates about the rate
    // that passes half of its probes; the knee is the geometric mean rate
    // at its reversals there (of all its probes there when it reversed
    // fewer than twice). A stall of the host fails one probe and
    // costs the knee one step, where in a binary search it would halve
    // it. An invalid probe leaves the staircase where it is. Failed
    // requests fail their probe and are never retried. Returns the knee
    // in requests/s; the completed rate of the passing probes near it
    // goes to out().
    double knee(double window_s) {
        int k = kStairStart, step = kStairFirstStep, best = -1;
        int last = -1;  // verdict of the previous probe: -1 none, 0 fail, 1 pass
        double sum_k = 0.0, sum_rev = 0.0;
        int n_k = 0, n_rev = 0;
        std::vector<double> achieved, achieved_any;
        for (int i = 0; i < kKneeProbes; ++i) {
            double mops = 0.0;
            const Verdict v = probe(grid_rate(k), window_s, &mops);
            if (v == Verdict::kInvalid) continue;
            const bool pass = v == Verdict::kPass;
            if (step == 1) {
                sum_k += k;
                ++n_k;
                if (last != static_cast<int>(pass)) {
                    sum_rev += k;
                    ++n_rev;
                }
                if (pass) achieved.push_back(mops);
            }
            if (pass) {
                best = std::max(best, k);
                achieved_any.push_back(mops);
            }
            if (last >= 0 && last != static_cast<int>(pass) && step > 1) step /= 2;
            last = pass;
            k = pass ? std::min(k + step, kGridTop) : std::max(k - step, 0);
        }
        if (achieved.empty()) achieved = achieved_any;
        out_.knee_mops = achieved.empty() ? 0.0 : median(achieved);
        if (n_k == 0) return best >= 0 ? grid_rate(best) : 0.0;
        const double mean_k = n_rev >= 2 ? sum_rev / n_rev : sum_k / n_k;
        return kGridBase * std::pow(kGridStep, mean_k);
    }

    void drain() {
        std::uint64_t bad = 0;
        out_.popped.merge(gen_.drain(&bad));
        out_.failed += bad;
    }

    // One traced window at the reference rate; the server, stack, reclaim
    // and CPU counters it moves add up in out().
    void traced_window(double seconds, std::uint32_t tag) {
        const sec::net::ServerStats sv0 = server_->stats();
        const sec::StatsSnapshot a0 = stack_->stats();
        const sec::reclaim::Stats r0 = domain_->stats();
        const Usage p0 = usage_self(), g0 = usage_thread();
        const std::uint64_t t0 = now_ns();
        log_.traced.store(true, std::memory_order_relaxed);
        out_.traced.push_back(window(kReferenceRate, seconds, tag, true));
        log_.traced.store(false, std::memory_order_relaxed);
        out_.traced_wall_s += static_cast<double>(now_ns() - t0) * 1e-9;
        out_.process = out_.process + (usage_self() - p0);
        out_.generator = out_.generator + (usage_thread() - g0);
        const sec::net::ServerStats sv1 = server_->stats();
        out_.server_requests += sv1.requests - sv0.requests;
        out_.server_batches += sv1.batches - sv0.batches;
        const sec::StatsSnapshot a = stats_delta(stack_->stats(), a0);
        out_.agg = {out_.agg.batches + a.batches,
                    out_.agg.batched_ops + a.batched_ops,
                    out_.agg.eliminated_ops + a.eliminated_ops,
                    out_.agg.combined_ops + a.combined_ops};
        const sec::reclaim::Stats r1 = domain_->stats();
        out_.reclaim.retired += r1.retired - r0.retired;
        out_.reclaim.freed += r1.freed - r0.freed;
        out_.reclaim.limbo_hwm = r1.limbo_hwm;
    }

    ServedOut& out() { return out_; }
    CallLog& log() { return log_; }
    const Conservation& prefill() const { return prefill_; }
    double pool_start_ms() const { return pool_start_ms_; }
    double drain_ms() const { return drain_ms_; }

private:
    // One window at `rate`, judged by judge().
    Verdict probe(double rate, double window_s, double* achieved_mops) {
        const WindowStats w = window(rate, window_s, kNoWindow, false);
        std::string why;
        const Verdict v = judge(w, &why);
        *achieved_mops = w.achieved_mops;
        out_.probes.push_back(
            std::to_string(rate) + "/s: sojourn p99 " +
            std::to_string(w.sojourn_p99_us) + " us, lag p99 " +
            std::to_string(w.lag_p99_us) + " us: " +
            (v == Verdict::kPass ? "pass"
                                 : (v == Verdict::kFail ? "fail (" : "invalid (") +
                                       why + ")"));
        return v;
    }

    const RunOptions& opts_;
    std::unique_ptr<sec::reclaim::EpochDomain> domain_;
    std::unique_ptr<Stack> stack_;
    Conservation prefill_;
    CallLog log_;
    trace::Buffer* gen_spans_ = nullptr;
    std::unique_ptr<sec::net::SecServer> server_;
    LoadGen& gen_;
    ServedOut out_;
    std::function<void()> body_;
    std::string error_;
    std::atomic<bool> abandon_{false};
    std::uint64_t setup_start_ns_ = 0, pool_start_ns_ = 0;
    double pool_start_ms_ = 0.0, drain_ms_ = 0.0;
    bool released_ = false;
    // Declared last: joined before the members its worker uses die.
    std::unique_ptr<sec::exec::WorkerPool> pool_;
};

// Per-window quantiles of the loop thread's sampled container calls.
inline void call_latencies(const CallLog& log, std::uint32_t first,
                           std::uint32_t windows, std::vector<double>& p50,
                           std::vector<double>& p99, std::uint64_t& n,
                           std::vector<std::uint32_t>* push = nullptr,
                           std::vector<std::uint32_t>* pop = nullptr) {
    std::vector<std::vector<std::uint32_t>> per(windows);
    for (const std::uint64_t s : *log.samples) {
        const auto w = static_cast<std::uint32_t>(s >> 33);
        if (w < first || w >= first + windows) continue;
        const auto ns = static_cast<std::uint32_t>(s);
        per[w - first].push_back(ns);
        if (push != nullptr) (((s >> 32) & 1) ? pop : push)->push_back(ns);
    }
    for (auto& v : per) {
        if (v.empty()) continue;
        n += v.size();
        p50.push_back(quantile(v, 0.50));
        p99.push_back(quantile(v, 0.99));
    }
}

template <class Stack>
void check(const Setup<Stack>& s, const ServedOut& o, Report& r) {
    Conservation pushed = s.prefill();
    pushed.merge(o.pushed);
    r.attempted += o.requests;
    r.failed += o.failed;
    if (o.empty_pops > 0) {
        r.fail(std::to_string(o.empty_pops) +
               " pops were answered empty though the schedule keeps the "
               "stack non-empty");
    }
    if (o.failed > o.empty_pops) {
        r.fail(std::to_string(o.failed - o.empty_pops) +
               " requests unanswered, answered twice or with the wrong type");
    }
    if (!(pushed == o.popped)) {
        const std::uint64_t gap = pushed.count > o.popped.count
                                      ? pushed.count - o.popped.count
                                      : o.popped.count - pushed.count;
        r.failed += gap > 0 ? gap : 1;
        r.fail("conservation: acknowledged pushes (" +
               std::to_string(pushed.count) + ") and pops + wire drain (" +
               std::to_string(o.popped.count) + ") differ");
    }
}

template <class Stack>
void setup_repeats(const RunOptions& opts, LoadGen& gen,
                   std::vector<double>& setups) {
    for (int i = 0; i + 1 < kSetupRepeats; ++i) {
        Setup<Stack> s(opts, gen, nullptr, false, nullptr);
        setups.push_back(s.release(true, [] {}));
    }
}

// Requests one connection may need in one window of this run.
inline std::size_t max_requests(const RunOptions& opts) {
    const double per_window =
        std::max(kReferenceRate * ref_window_s(opts),
                 grid_rate(kGridTop) * probe_window_s(opts));
    return static_cast<std::size_t>(per_window / kConnections * 1.2) + 1024;
}

// Room for the loop thread's sampled container calls at the reference rate.
inline std::vector<std::uint64_t> call_sample_buffer(const RunOptions& opts) {
    std::vector<std::uint64_t> v;
    prefault(v, static_cast<std::size_t>(kReferenceRate * opts.seconds /
                                         kServedSampleEvery));
    return v;
}

inline double window_median(const std::vector<WindowStats>& ws,
                            double WindowStats::*field) {
    std::vector<double> v;
    for (const WindowStats& w : ws) v.push_back(w.*field);
    return median(v);
}

}  // namespace served_detail

template <class Stack>
void run_served(const RunOptions& opts, Report& r) {
    using namespace served_detail;
    LoadGen gen(max_requests(opts));
    const RssPeak rss;
    double rss_mib = 0.0;
    std::vector<double> setups;
    // The measured set-up comes first: peak_rss_mb is read inside it.
    Setup<Stack> s(opts, gen, nullptr, false, nullptr);
    const double ref_s = ref_window_s(opts);
    const double probe_s = probe_window_s(opts);
    setups.push_back(s.release(false, [&] {
        s.warm_up(ref_s);
        for (std::uint32_t w = 0; w < 2; ++w) {
            s.out().reference.push_back(s.window(kReferenceRate, ref_s, w, false));
            std::string why;
            if (judge(s.out().reference.back(), &why) != Verdict::kPass) {
                s.out().probes.push_back("reference window " + std::to_string(w) +
                                         " invalid: " + why);
            }
        }
        // The knee search overloads the server on purpose; what memory
        // that takes depends on how far past capacity each probe went, so
        // peak_rss_mb covers set-up and the reference windows only.
        rss_mib = rss.peak_mib();
        s.overload_once(probe_s);
        s.out().knee_per_s = s.knee(probe_s);
        s.drain();
    }));
    s.finish();
    setup_repeats<Stack>(opts, gen, setups);
    const ServedOut& o = s.out();
    check(s, o, r);
    for (const std::string& p : o.probes) r.note("probe " + p);

    std::string per_window = "reference window sojourn p50/p99 us:";
    for (const WindowStats& w : o.reference) {
        per_window += " " + std::to_string(w.sojourn_p50_us) + "/" +
                      std::to_string(w.sojourn_p99_us);
    }
    r.note(per_window);
    r.add("setup_s", median(setups), setups.size());
    // Open loop: the throughput is what the server completes at the
    // highest load it sustains.
    r.add("throughput_mops",
          o.knee_mops > 0 ? o.knee_mops
                          : window_median(o.reference, &WindowStats::achieved_mops));
    r.add("served_knee_kops", o.knee_per_s * 1e-3);
    r.add("peak_rss_mb", rss_mib);
}

template <class Stack>
void run_served_traced(const RunOptions& opts, Report& r, trace::Recorder& rec) {
    using namespace served_detail;
    LoadGen gen(max_requests(opts));
    std::vector<std::uint64_t> samples = call_sample_buffer(opts);
    Setup<Stack> s(opts, gen, &samples, true, &rec);
    // Untraced reference and traced windows alternate, so that the
    // sojourn's drift over the run does not show as tracing overhead.
    const unsigned windows = 6;
    const double window_s = opts.seconds / 16;
    s.release(false, [&] {
        s.warm_up(window_s);
        for (std::uint32_t w = 0; w < windows; ++w) {
            s.out().reference.push_back(s.window(kReferenceRate, window_s, w, false));
            s.traced_window(window_s, windows + w);
        }
        s.drain();
    });
    s.finish();
    const ServedOut& o = s.out();
    check(s, o, r);

    // Per-call latencies are too unsteady on small VMs to gate; they are
    // timed here, in the untraced reference windows, and nowhere else.
    {
        std::vector<double> p50, p99;
        std::uint64_t n = 0, replies = 0;
        call_latencies(s.log(), 0, windows, p50, p99, n);
        for (const WindowStats& w : o.reference) replies += w.replies;
        r.add("op_p50_ns", median(p50), n);
        r.add("op_p99_ns", median(p99), n);
        r.add("sojourn_p50_us",
              window_median(o.reference, &WindowStats::sojourn_p50_us),
              replies);
        r.add("sojourn_p99_us",
              window_median(o.reference, &WindowStats::sojourn_p99_us),
              replies);
    }
    std::vector<double> p50, p99;
    std::uint64_t n = 0;
    std::vector<std::uint32_t> push, pop;
    call_latencies(s.log(), windows, windows, p50, p99, n, &push, &pop);
    const trace::Summary sum = rec.summarize();
    const auto& sp = sum[trace::Name::kPush];
    const auto& sq = sum[trace::Name::kPop];
    const double sampled = static_cast<double>(sp.count + sq.count);
    const double calls = static_cast<double>(
        std::max<std::uint64_t>(s.log().traced_calls, 1));
    const sec::StatsSnapshot& agg = o.agg;
    std::uint64_t replies = 0;
    for (const WindowStats& w : o.traced) replies += w.replies;
    const double reqs = static_cast<double>(std::max<std::uint64_t>(replies, 1));

    r.add("core.agg.batch_degree", agg.batching_degree());
    r.add("core.agg.elim_share",
          agg.batched_ops ? static_cast<double>(agg.eliminated_ops) /
                                static_cast<double>(agg.batched_ops)
                          : 0.0);
    r.add("core.agg.batches_per_kop", static_cast<double>(agg.batches) * 1e3 / calls);
    r.add("core.push_ns_p50", quantile(push, 0.50), push.size());
    r.add("core.push_ns_p99", quantile(push, 0.99), push.size());
    r.add("core.pop_ns_p50", quantile(pop, 0.50), pop.size());
    r.add("core.pop_ns_p99", quantile(pop, 0.99), pop.size());
    r.add("core.self_ns_per_op",
          sampled > 0 ? (sp.self_ns + sq.self_ns) / sampled : 0.0,
          sp.count + sq.count);
    r.add("alloc.allocs_per_op", static_cast<double>(s.log().allocs.allocs) / calls);
    r.add("alloc.frees_per_op", static_cast<double>(s.log().allocs.frees) / calls);
    r.add("alloc.ns_per_op",
          sampled > 0 ? (sum[trace::Name::kAlloc].total_ns +
                         sum[trace::Name::kFree].total_ns) /
                            sampled
                      : 0.0, sp.count + sq.count);
    const double retired =
        static_cast<double>(o.reclaim.retired);
    r.add("reclaim.retired_per_op", retired / calls);
    r.add("reclaim.freed_share",
          retired > 0 ? static_cast<double>(o.reclaim.freed) /
                            retired
                      : 0.0);
    r.add("reclaim.limbo_hwm", static_cast<double>(o.reclaim.limbo_hwm));
    r.add("reclaim.drain_ms", s.drain_ms());
    r.add("exec.pool_start_ms", s.pool_start_ms());
    r.add("exec.pinned_workers",
          (o.generator_pinned ? 1 : 0) + (s.log().loop_cpu >= 0 ? 1 : 0));
    r.add("exec.cpu_util", o.process.cpu_s() / (o.traced_wall_s * 2));
    r.add("exec.ctx_switches_per_kop",
          static_cast<double>(o.process.ctx_switches) * 1e3 / reqs);
    const std::string hw = hw_counter_unavailable_reason();
    r.add_missing("exec.cycles_per_op",
                  hw.empty() ? "not exercised: the loop thread belongs to the "
                               "server, which opens no counters"
                             : hw);

    const double server_batches =
        static_cast<double>(o.server_batches);
    r.add("net.server_batch_degree",
          server_batches > 0
              ? static_cast<double>(o.server_requests) /
                    server_batches
              : 0.0);
    r.add("net.rtt_p50_us", window_median(o.traced, &WindowStats::rtt_p50_us),
          replies);
    r.add("net.rtt_p99_us", window_median(o.traced, &WindowStats::rtt_p99_us),
          replies);
    r.add("net.encode_ns", window_median(o.traced, &WindowStats::encode_ns),
          replies);
    r.add("net.decode_ns", window_median(o.traced, &WindowStats::decode_ns),
          replies);
    const Usage server_cpu = o.process - o.generator;
    r.add("net.cpu_us_per_req", server_cpu.cpu_s() * 1e6 / reqs);
    r.add("net.sys_share",
          server_cpu.cpu_s() > 0 ? server_cpu.sys_s / server_cpu.cpu_s() : 0.0);
    r.add("loadgen.lag_p99_us", window_median(o.traced, &WindowStats::lag_p99_us), replies);
    const double base = window_median(o.reference, &WindowStats::sojourn_p50_us);
    r.add("trace.overhead_pct",
          base > 0 ? (window_median(o.traced, &WindowStats::sojourn_p50_us) - base) *
                         100.0 / base
                   : 0.0);
    r.add("failed_frac",
          static_cast<double>(r.failed) /
              static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)));
    if (sum.dropped > 0) {
        r.note("trace: " + std::to_string(sum.dropped) +
               " spans dropped (buffers full)");
    }
}

}  // namespace perfbench
