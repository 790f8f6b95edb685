// sec_config_test.cpp — Config validation and the stats plumbing behind
// bench/table1_degrees.cpp: aggregator counts 1-5, both mapping modes, and
// collect_stats yielding non-zero batching/elimination degrees on an
// update-heavy mix. Also the freezer hand-off: the backoff window ends once
// every live member has announced, still runs out when one never does, and
// the freezer lock survives many threads racing for it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>  // std::this_thread::yield
#include <vector>

#include "container_checkers.hpp"
#include "exec/worker_pool.hpp"
#include "sec.hpp"

namespace {

using Value = std::uint64_t;
using Stack = sec::SecStack<Value>;

TEST(SecConfigTest, RejectsAggregatorCountOutOfRange) {
    sec::Config cfg;
    cfg.num_aggregators = 0;
    EXPECT_THROW(Stack{cfg}, std::invalid_argument);
    cfg.num_aggregators = sec::kMaxAggregators + 1;
    EXPECT_THROW(Stack{cfg}, std::invalid_argument);
}

TEST(SecConfigTest, RejectsBackoffBeyondTuningStateRange) {
    sec::Config cfg;
    cfg.freezer_backoff_ns = sec::kMaxFreezerBackoffNs;
    cfg.validate();  // the bound itself is legal
    cfg.freezer_backoff_ns = sec::kMaxFreezerBackoffNs + 1;
    // Beyond 48 bits a TuningState would silently truncate what the same
    // Config spins statically.
    EXPECT_THROW(Stack{cfg}, std::invalid_argument);
}

TEST(SecConfigTest, RejectsBadMaxThreads) {
    sec::Config cfg;
    cfg.max_threads = 0;
    EXPECT_THROW(Stack{cfg}, std::invalid_argument);
    cfg.max_threads = sec::kMaxThreads + 1;
    EXPECT_THROW(Stack{cfg}, std::invalid_argument);
}

TEST(SecConfigTest, AcceptsAllAggregatorCounts) {
    for (std::size_t aggs = 1; aggs <= sec::kMaxAggregators; ++aggs) {
        sec::Config cfg;
        cfg.num_aggregators = aggs;
        cfg.max_threads = 16;
        Stack stack(cfg);
        stack.push(aggs);
        EXPECT_EQ(stack.pop().value(), aggs);
        EXPECT_FALSE(stack.pop().has_value());
    }
}

TEST(SecConfigTest, MappingModesPreserveSemantics) {
    for (auto mapping : {sec::AggregatorMapping::kContiguous,
                         sec::AggregatorMapping::kRoundRobin}) {
        sec::Config cfg;
        cfg.mapping = mapping;
        cfg.max_threads = 16;
        Stack stack(cfg);
        constexpr unsigned kThreads = 4;
        constexpr std::uint64_t kPerThread = 5000;
        sec::exec::WorkerPool::run(
            kThreads, [&stack](sec::exec::WorkerContext&) {
                for (std::uint64_t i = 0; i < kPerThread; ++i) {
                    stack.push(i);
                }
            });
        std::uint64_t drained = 0;
        while (stack.pop().has_value()) ++drained;
        EXPECT_EQ(drained, kThreads * kPerThread);
    }
}

TEST(SecConfigTest, StatsOffByDefault) {
    sec::Config cfg;
    cfg.max_threads = 8;
    Stack stack(cfg);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        stack.push(i);
        (void)stack.pop();
    }
    const sec::StatsSnapshot s = stack.stats();
    EXPECT_EQ(s.batches, 0u);
    EXPECT_EQ(s.batched_ops, 0u);
}

// A thread that is its aggregator's only live member applies its ops
// directly but still counts each as a batch of one. The main thread holds
// the lowest free id; max_threads = 1 makes the single aggregator its own.
TEST(SecConfigTest, LoneMemberCountsBatchesOfOne) {
    sec::Config cfg;
    cfg.num_aggregators = 1;
    cfg.max_threads = 1;
    cfg.collect_stats = true;
    Stack stack(cfg);
    if (sec::detail::tid() != 0) GTEST_SKIP() << "main thread is not tid 0";
    for (std::uint64_t i = 0; i < 100; ++i) stack.push(i);
    for (std::uint64_t i = 100; i-- > 0;) EXPECT_EQ(stack.pop().value(), i);
    EXPECT_FALSE(stack.pop().has_value());
    const sec::StatsSnapshot s = stack.stats();
    EXPECT_EQ(s.batches, 201u);
    EXPECT_EQ(s.batched_ops, 201u);
    EXPECT_EQ(s.combined_ops, 201u);
    EXPECT_EQ(s.eliminated_ops, 0u);
}

// Threads past max_threads have no slot; they apply their ops directly
// while the others batch, and no value is lost or duplicated.
TEST(SecConfigTest, ThreadsPastMaxThreadsKeepSemantics) {
    sec::Config cfg;
    cfg.num_aggregators = 1;
    cfg.max_threads = 2;
    Stack stack(cfg);
    const sec::testing::ChurnResult r =
        sec::testing::churn(stack, /*threads=*/6, /*ops_per_thread=*/5000);
    sec::testing::expect_conserved(r);
}

TEST(SecConfigTest, CollectStatsYieldsDegreesOnUpdateHeavyMix) {
    sec::Config cfg;
    cfg.max_threads = 16;
    cfg.collect_stats = true;
    Stack stack(cfg);

    constexpr unsigned kThreads = 8;
    constexpr std::uint32_t kPerThread = 20000;
    // Elimination needs pushes and pops to genuinely overlap; on a heavily
    // loaded host one round of churn can serialise, so retry (stats
    // accumulate across rounds) instead of asserting on scheduling luck.
    for (int round = 0; round < 3; ++round) {
        sec::exec::WorkerPool::run(
            kThreads, [&stack](sec::exec::WorkerContext& wc) {
                const unsigned t = wc.index;
                sec::Xoshiro256 rng((t + 1) * 0x9E3779B97F4A7C15ull);
                // kUpdateHeavy: 50% push, 50% pop.
                for (std::uint32_t i = 0; i < kPerThread; ++i) {
                    if (rng.next_below(100) < sec::kUpdateHeavy.push_pct) {
                        stack.push(i);
                    } else {
                        (void)stack.pop();
                    }
                }
            });
        if (stack.stats().eliminated_ops > 0) break;
    }

    const sec::StatsSnapshot s = stack.stats();
    EXPECT_GT(s.batches, 0u);
    EXPECT_GT(s.batched_ops, 0u);
    EXPECT_GE(s.batching_degree(), 1.0);
    // Concurrent pushes and pops must have met inside batches.
    EXPECT_GT(s.eliminated_ops, 0u);
    EXPECT_GT(s.elimination_pct(), 0.0);
    // Every batched op is either eliminated or combined, never both.
    EXPECT_EQ(s.eliminated_ops + s.combined_ops, s.batched_ops);
    EXPECT_LE(s.elimination_pct() + s.combining_pct(), 100.0001);
}

// Regression: stats() used to sum the counters with bare relaxed loads
// while freezers publish them with lock-serialized load+store, so a MID-RUN
// snapshot (the adaptive controller's feedback read, table1's per-point
// stream) could tear across counters — batched already bumped, eliminated
// not yet — breaking eliminated + combined == batched and under-counting
// whole batches. stats() now takes each aggregator's freezer lock, making
// every snapshot batch-atomic; this hammers snapshots under live churn and
// checks the cross-counter invariant plus per-counter monotonicity.
TEST(SecConfigTest, StatsSnapshotIsConsistentUnderConcurrentLoad) {
    sec::Config cfg;
    cfg.max_threads = 16;
    cfg.collect_stats = true;
    cfg.num_aggregators = 2;
    cfg.freezer_backoff_ns = 0;  // maximise batch frequency
    Stack stack(cfg);

    constexpr unsigned kThreads = 4;
    std::atomic<bool> stop{false};
    sec::exec::PoolOptions wo;
    wo.coordinator_in_barrier = false;
    sec::exec::WorkerPool workers(kThreads, wo);
    workers.start([&stack, &stop](sec::exec::WorkerContext& wc) {
        sec::Xoshiro256 rng((wc.index + 1) * 0x9E3779B97F4A7C15ull);
        while (!stop.load(std::memory_order_relaxed)) {
            if (rng.next_below(2) == 0) {
                stack.push(1);
            } else {
                (void)stack.pop();
            }
        }
    });

    // Wait until the workers actually produce batches: on an oversubscribed
    // host the main thread can burn through the whole snapshot loop before
    // a single worker is scheduled, which would make the tear-check vacuous
    // and the final batches > 0 assert a scheduling lottery.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (stack.stats().batches == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
    }
    ASSERT_GT(stack.stats().batches, 0u) << "workers never produced a batch";

    sec::StatsSnapshot prev;
    for (int i = 0; i < 2000; ++i) {
        // Let the churn make progress between reads on few-core hosts.
        if ((i & 63) == 0) std::this_thread::yield();
        const sec::StatsSnapshot s = stack.stats();
        ASSERT_EQ(s.eliminated_ops + s.combined_ops, s.batched_ops)
            << "torn mid-batch snapshot at read " << i;
        ASSERT_GE(s.batched_ops, s.batches)
            << "batch with zero ops at read " << i;
        // Cumulative counters only grow.
        ASSERT_GE(s.batches, prev.batches);
        ASSERT_GE(s.batched_ops, prev.batched_ops);
        ASSERT_GE(s.eliminated_ops, prev.eliminated_ops);
        ASSERT_GE(s.combined_ops, prev.combined_ops);
        prev = s;
    }
    stop.store(true, std::memory_order_relaxed);
    workers.join();
    EXPECT_GT(stack.stats().batches, 0u);
}

// The freezer tests below need to know which aggregator each thread lands
// in. Thread ids are handed out lowest-free-first, so with the main thread
// registered (it holds a tid from any earlier test, or takes it here) and
// `workers` more threads alive at once, the live ids are exactly
// [0, workers + 1). Under contiguous mapping with 2 aggregators over
// max_threads = workers + 1, the upper half of those ids form aggregator 1
// and the main thread sits idle in aggregator 0. Each worker runs
// `member(i)` with i its index within aggregator 1, or nothing when it landed
// in aggregator 0; it keeps its id until every worker is done.
template <class Member>
unsigned run_on_aggregator_one(unsigned workers, Member&& member) {
    (void)sec::detail::tid();
    const std::size_t first = (workers + 1) / 2;  // agg 1: [first, workers]
    std::atomic<unsigned> in_agg1{0};
    sec::exec::WorkerPool::run(workers, [&](sec::exec::WorkerContext& wc) {
        const std::size_t id = sec::detail::tid();
        wc.sync();  // every worker holds its id before any op runs
        if (id >= first && id <= workers) {
            in_agg1.fetch_add(1, std::memory_order_relaxed);
            member(static_cast<unsigned>(id - first));
        }
        wc.sync();  // idle members stay live until the batch work is done
    });
    return in_agg1.load();
}

sec::Config aggregator_one_config(unsigned workers,
                                  std::uint64_t backoff_ns) {
    sec::Config cfg;
    cfg.num_aggregators = 2;
    cfg.max_threads = workers + 1;
    cfg.mapping = sec::AggregatorMapping::kContiguous;
    cfg.freezer_backoff_ns = backoff_ns;
    cfg.collect_stats = true;
    return cfg;
}

// With at most two members announcing, every batch beyond one op per batch
// is a batch of two.
std::uint64_t batches_of_two(const sec::StatsSnapshot& s) {
    return s.batched_ops - s.batches;
}

// Push/pop pairs until `target` batches of two have frozen or `deadline`
// passes; returns the ops done.
std::uint64_t pair_until(Stack& stack, unsigned member, std::uint64_t target,
                         std::chrono::steady_clock::time_point deadline) {
    std::uint64_t ops = 0;
    for (std::uint32_t i = 0;
         batches_of_two(stack.stats()) < target &&
         std::chrono::steady_clock::now() < deadline;
         ++i) {
        stack.push(sec::testing::tag(member, i));
        (void)stack.pop();
        ops += 2;
    }
    return ops;
}

// Both live members of aggregator 1 keep announcing, so any batch of two
// holds everyone who could join: the freezer must freeze it at once instead
// of spinning out a window of seconds (the main thread, idle but live, is
// mapped to aggregator 0 and must not hold the batch back). One batch that
// waited out the window would alone take longer than the whole run.
TEST(SecConfigTest, FreezerBackoffEndsOnceEveryLiveMemberAnnounced) {
    constexpr unsigned kWorkers = 3;  // ids 1..3; aggregator 1 = {2, 3}
    constexpr std::uint64_t kWindowNs = 10'000'000'000;  // 10 s
    Stack stack(aggregator_one_config(kWorkers, kWindowNs));

    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::uint64_t> ops{0};
    const unsigned members = run_on_aggregator_one(kWorkers, [&](unsigned m) {
        ops += pair_until(stack, m, 1000, t0 + std::chrono::seconds(2));
    });
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    ASSERT_EQ(members, 2u) << "thread ids were not handed out lowest-first";

    const sec::StatsSnapshot s = stack.stats();
    EXPECT_EQ(s.batched_ops, ops.load());
    if (batches_of_two(s) == 0) GTEST_SKIP() << "the members never overlapped";
    EXPECT_LT(elapsed, std::chrono::nanoseconds(kWindowNs))
        << batches_of_two(s) << " batches of two";
}

// Aggregator 1 has three live members; one never announces. Batches of the
// other two must still freeze once the window runs out (liveness), and
// each must have waited the whole window: an idle member is not proof that
// nobody else will join.
TEST(SecConfigTest, FreezerBackoffWaitsTheWindowForAnIdleLiveMember) {
    constexpr unsigned kWorkers = 5;  // ids 1..5; aggregator 1 = {3, 4, 5}
    constexpr std::uint64_t kWindowNs = 2'000'000;  // 2 ms
    Stack stack(aggregator_one_config(kWorkers, kWindowNs));

    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::uint64_t> ops{0};
    const unsigned members = run_on_aggregator_one(kWorkers, [&](unsigned m) {
        if (m == 2) return;  // the idle member
        ops += pair_until(stack, m, 20, t0 + std::chrono::seconds(10));
    });
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    ASSERT_EQ(members, 3u) << "thread ids were not handed out lowest-first";

    const sec::StatsSnapshot s = stack.stats();
    EXPECT_EQ(s.batched_ops, ops.load());
    if (batches_of_two(s) == 0) GTEST_SKIP() << "the members never overlapped";
    EXPECT_GE(elapsed, std::chrono::nanoseconds(kWindowNs * batches_of_two(s)));
}

// Many threads race for one aggregator's freezer lock while a reader takes
// it through stats(): every value comes out exactly once.
TEST(SecConfigTest, FreezerLockChurnOnOneAggregatorConservesValues) {
    sec::Config cfg;
    cfg.num_aggregators = 1;
    cfg.max_threads = 64;
    cfg.collect_stats = true;
    Stack stack(cfg);

    std::atomic<bool> stop{false};
    sec::exec::PoolOptions ro;
    ro.coordinator_in_barrier = false;
    sec::exec::WorkerPool reader(1, ro);
    reader.start([&stack, &stop](sec::exec::WorkerContext&) {
        while (!stop.load(std::memory_order_relaxed)) {
            const sec::StatsSnapshot s = stack.stats();
            ASSERT_EQ(s.eliminated_ops + s.combined_ops, s.batched_ops);
            std::this_thread::yield();
        }
    });
    const sec::testing::ChurnResult r =
        sec::testing::churn(stack, /*threads=*/16, /*ops_per_thread=*/5000);
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    sec::testing::expect_conserved(r);
    EXPECT_GT(stack.stats().batches, 0u);
}

}  // namespace
