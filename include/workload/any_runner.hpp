// workload/any_runner.hpp — the timed-window / latency / churn runners over
// the type-erased AnyStack. These mirror run_throughput (workload/runner.hpp)
// but take registry factories, so scenarios drive any registered algorithm
// without a template instantiation per call site. Virtual dispatch is per
// phase (see core/stack_concept.hpp), so the measured loops are identical to
// the statically-typed path.
#pragma once

#include <functional>
#include <vector>

#include "core/stack_concept.hpp"
#include "workload/histogram.hpp"
#include "workload/runner.hpp"

namespace sec::bench {

using AnyStackFactory = std::function<AnyStack()>;

// Fresh structure per run (the usual throughput measurement).
RunResult run_throughput_any(const AnyStackFactory& make, const RunConfig& cfg);

// Phase-shifting window (the `tuning` scenario's workload): cfg.duration is
// split into equal sub-windows, one per mix in `phases`, over ONE structure
// — e.g. push-heavy → mixed → pop-heavy inside a single run, the shape that
// defeats any single static tuning. Workers roll from one mix's measured
// loop into the next without a barrier (the shift is a few µs of stagger,
// like the stop flag itself); cfg.mix is ignored. Throughput is aggregated
// across the whole window, cfg.runs rounds on fresh structures as usual.
RunResult run_phased_any(const AnyStackFactory& make, const RunConfig& cfg,
                         const std::vector<OpMix>& phases);

// Caller-owned structure, kept alive across runs (e.g. to read degree stats
// afterwards — table1 / ablation scenarios).
RunResult run_throughput_any(AnyStack& stack, const RunConfig& cfg);

// Per-op latency over cfg.duration with a 50/50 push/pop mix unless cfg.mix
// says otherwise; returns the merged histogram (cfg.runs is ignored).
LatencyHistogram run_latency_any(AnyStack& stack, const RunConfig& cfg);

// `threads` pool workers, released together, each run body(worker index);
// returns the wall span from the earliest start to the latest end, in us
// (0 for zero threads). The churn runner and the micro scenario's
// primitive-cost table time their workers through this.
double run_span_us(unsigned threads,
                   const std::function<void(unsigned)>& body);

// Fixed-op balanced churn: `threads` workers each run `ops_per_thread`
// operations of a balanced push/pop mix, then join (the reclamation
// scenario's workload). Workers are seeded from `seed` + thread id; returns
// the aggregate throughput in Mops/s.
double run_churn_any(AnyStack& stack, unsigned threads,
                     std::uint64_t ops_per_thread, std::size_t value_range,
                     std::uint64_t seed = 0);

}  // namespace sec::bench
