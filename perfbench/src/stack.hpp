// stack.hpp — the container perfbench measures: the paper's SEC stack over
// epoch-based reclamation, configured the way `secbench`/`secserve` build
// it (sec::bench::effective_stack_config).
//
// The workloads are templates over the container type so that the seeded-
// bug test (tests/seeded_bug.cpp) can run them over a broken wrapper. A
// container type needs: construction from (Config, EpochDomain&), push,
// pop, peek and stats().
#pragma once

#include <cstdint>
#include <utility>

#include "core/config.hpp"
#include "core/sec_stack.hpp"
#include "exec/worker_pool.hpp"
#include "reclaim/epoch.hpp"
#include "workload/registry.hpp"

namespace perfbench {

using Value = std::uint64_t;
using SecEbrStack = sec::SecStack<Value, sec::reclaim::EpochDomain>;

// `threads` is what secbench and secserve pass: the worker count
// for secbench-style closed loops, 2 for secserve. Traced runs turn on the
// degree counters, which the untraced configuration leaves off.
inline sec::Config bench_config(unsigned threads, bool collect_stats) {
    sec::bench::StackParams params;
    params.threads = threads;
    sec::Config cfg = sec::bench::effective_stack_config(params);
    cfg.collect_stats = collect_stats;
    return cfg;
}

// Degree counters accumulated between two snapshots.
inline sec::StatsSnapshot stats_delta(const sec::StatsSnapshot& end,
                                      const sec::StatsSnapshot& start) {
    return {end.batches - start.batches, end.batched_ops - start.batched_ops,
            end.eliminated_ops - start.eliminated_ops,
            end.combined_ops - start.combined_ops};
}

// Run set-up or tear-down container work (prefill, drain) on a short-lived
// thread. SEC maps threads to aggregators by their small thread id, and ids
// are handed out lowest-free-first: a coordinating thread that touched the
// stack would keep id 0 for the whole process and shift every worker to the
// next aggregator (on a 4-core host that halved lifo_mixed throughput).
// Workers must get the ids that secbench's workers get.
template <class Fn>
void on_own_thread(Fn&& fn) {
    sec::exec::PoolOptions opts;
    opts.pin = sec::topo::PinPolicy::kCompact;
    sec::exec::WorkerPool::run(1, opts, [&](sec::exec::WorkerContext&) { fn(); });
}

}  // namespace perfbench
