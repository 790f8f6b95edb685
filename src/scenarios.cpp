// scenarios.cpp — the paper's experiments as registry-driven scenario
// functions. Each is a short composition of the shared ScenarioContext
// pipeline (selection, thread-grid series, the one result sink);
// bench/secbench.cpp drives them from the command line.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/elim_pool.hpp"
#include "core/sharded_stack.hpp"
#include "exec/topology.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "reclaim/reclaim.hpp"
#include "sec.hpp"
#include "workload/any_runner.hpp"
#include "workload/histogram.hpp"
#include "workload/registry.hpp"
#include "workload/service.hpp"
#include "workload/sweep.hpp"

namespace sec::bench {
namespace {

// Prefill proportional to expected pop volume so pop-heavy windows measure
// real pops rather than EMPTY returns (the paper's fixed 1000-node prefill
// drains within milliseconds; see REPRODUCING.md, Figure 3).
EnvConfig with_pop_prefill(EnvConfig env) {
    const std::size_t volume = static_cast<std::size_t>(
        25e6 * (static_cast<double>(env.duration_ms) / 1000.0) * 1.3);
    env.prefill = std::min<std::size_t>(
        std::max<std::size_t>(env.prefill, volume), 40'000'000);
    return env;
}

// SEC Config for one grid point with explicit knob overrides.
Config sec_config(unsigned threads) {
    Config cfg;
    cfg.max_threads = tid_bound(threads);
    cfg.num_aggregators = std::min(cfg.num_aggregators, cfg.max_threads);
    return cfg;
}

// ---- the op-mix grids: fig2 / queue / fig3 / fig4 ---------------------------

// One table per mix, named prefix + mix name, filled by `fill` and emitted.
// A mix without pushes drains the stack, so it runs on with_pop_prefill's
// deeper prefill.
using GridFill =
    std::function<void(Table&, const OpMix&, const EnvConfig&)>;

void mix_grid(const ScenarioContext& ctx, std::string_view prefix,
              const std::vector<std::string>& columns,
              std::span<const OpMix> mixes, const GridFill& fill) {
    for (const OpMix& mix : mixes) {
        const EnvConfig env =
            mix.push_pct == 0 ? with_pop_prefill(ctx.env) : ctx.env;
        Table table(std::string(prefix) + std::string(mix.name), columns);
        std::fprintf(stderr, "workload %s (%u%% updates, prefill=%zu)\n",
                     mix.name.data(), mix.update_pct(), env.prefill);
        fill(table, mix, env);
        ctx.emit(table);
    }
}

// The fill for a table whose columns are the selected algorithms.
GridFill algo_fill(const ScenarioContext& ctx) {
    return [&ctx](Table& table, const OpMix& mix, const EnvConfig& env) {
        for (const AlgoSpec* a : ctx.algos) ctx.series(table, *a, mix, env);
    };
}

constexpr std::array<OpMix, 2> kAsymmetricMixes = {kPushOnly, kPopOnly};

// EXP1 — throughput vs thread count, 3 mixes, all algorithms.
int fig2(const ScenarioContext& ctx) {
    mix_grid(ctx, "fig2_", ctx.columns(), kStandardMixes, algo_fill(ctx));
    return 0;
}

// The FIFO matrix — fig2's op-mix grid over queue algorithms.
int queue(const ScenarioContext& ctx) {
    // Run on the FIFO members of the current selection. When the caller left
    // the (all-lifo) Figure-2 default set in place — `secbench all`, plain
    // `--scenario queue` — fall back to the queue trio; an explicitly
    // shape-mixed --algos set never gets this far (the driver rejects it).
    std::vector<const AlgoSpec*> fifo;
    for (const AlgoSpec* a : ctx.algos) {
        if (a->shape == ContainerShape::fifo) fifo.push_back(a);
    }
    if (fifo.empty()) {
        const AlgorithmRegistry& reg = AlgorithmRegistry::instance();
        for (const char* name : {"SEC_Q", "MS", "FCQ"}) {
            if (const AlgoSpec* a = reg.find(name)) fifo.push_back(a);
        }
        std::fprintf(stderr,
                     "queue: no FIFO algorithms selected; using the default "
                     "trio (SEC_Q, MS, FCQ)\n");
    }
    ScenarioContext qctx = ctx;
    qctx.algos = fifo;
    mix_grid(qctx, "queue_", qctx.columns(), kStandardMixes, algo_fill(qctx));
    return 0;
}

// EXP2 — asymmetric push-only / pop-only workloads.
int fig3(const ScenarioContext& ctx) {
    mix_grid(ctx, "fig3_", ctx.columns(), kAsymmetricMixes, algo_fill(ctx));
    return 0;
}

// EXP3 — SEC self-comparison with 1..5 aggregators: one SEC_AggN column per
// aggregator count, over fig2's mixes and fig3's asymmetric pair.
void fig4_series(const ScenarioContext& ctx, const AlgoSpec& sec_algo,
                 Table& table, const OpMix& mix, const EnvConfig& env) {
    for (std::size_t aggs = 1; aggs <= kMaxAggregators; ++aggs) {
        const std::string column = "SEC_Agg" + std::to_string(aggs);
        for (unsigned t : env.threads) {
            Config cfg = sec_config(t);
            cfg.num_aggregators = std::min<std::size_t>(aggs, cfg.max_threads);
            StackParams params;
            params.threads = t;
            params.config = &cfg;
            const RunResult r = run_throughput_any(
                [&] { return sec_algo.make(params); },
                ctx.run_config(t, mix, env));
            table.add(t, column, r.mops);
            progress_line(column, t, r.mops);
        }
    }
}

int fig4(const ScenarioContext& ctx) {
    const AlgoSpec& sec_algo = *AlgorithmRegistry::instance().find("SEC");
    std::vector<std::string> columns;
    for (std::size_t a = 1; a <= kMaxAggregators; ++a) {
        columns.push_back("SEC_Agg" + std::to_string(a));
    }
    constexpr std::array<OpMix, 5> kMixes = {
        kStandardMixes[0], kStandardMixes[1], kStandardMixes[2], kPushOnly,
        kPopOnly};
    mix_grid(ctx, "fig4_", columns, kMixes,
             [&](Table& table, const OpMix& mix, const EnvConfig& env) {
                 fig4_series(ctx, sec_algo, table, mix, env);
             });
    return 0;
}

// ---- table1: EXP4 — SEC degree metrics -------------------------------------

struct DegreeRow {
    double batching = 0;
    double elim_pct = 0;
    double comb_pct = 0;
};

DegreeRow table1_measure(const ScenarioContext& ctx, const AlgoSpec& sec_algo,
                         const OpMix& mix) {
    DegreeRow row;
    unsigned points = 0;
    for (unsigned t : ctx.env.threads) {
        Config cfg = sec_config(t);
        cfg.collect_stats = true;
        StackParams params;
        params.threads = t;
        params.config = &cfg;
        AnyStack stack = sec_algo.make(params);

        RunConfig rcfg = ctx.run_config(t, mix);
        rcfg.runs = 1;
        (void)run_throughput_any(stack, rcfg);

        const StatsSnapshot s = stack.stats();
        if (s.batches == 0) continue;
        row.batching += s.batching_degree();
        row.elim_pct += s.elimination_pct();
        row.comb_pct += s.combining_pct();
        ++points;
        std::fprintf(stderr, "  %s t=%-4u batch=%.1f elim=%.0f%% comb=%.0f%%\n",
                     mix.name.data(), t, s.batching_degree(),
                     s.elimination_pct(), s.combining_pct());
    }
    if (points > 0) {
        row.batching /= points;
        row.elim_pct /= points;
        row.comb_pct /= points;
    }
    return row;
}

int table1(const ScenarioContext& ctx) {
    const AlgoSpec& sec_algo = *AlgorithmRegistry::instance().find("SEC");
    DegreeRow rows[3];
    int i = 0;
    for (const OpMix& mix : kStandardMixes) {
        rows[i++] = table1_measure(ctx, sec_algo, mix);
    }

    std::printf("\n== Table 1: SEC degree metrics ==\n");
    std::printf("%-18s %10s %10s %10s\n", "Workload ->", "100% upd", "50% upd",
                "10% upd");
    std::printf("%-18s %10.1f %10.1f %10.1f\n", "Batching Degree",
                rows[0].batching, rows[1].batching, rows[2].batching);
    std::printf("%-18s %9.0f%% %9.0f%% %9.0f%%\n", "%Elimination",
                rows[0].elim_pct, rows[1].elim_pct, rows[2].elim_pct);
    std::printf("%-18s %9.0f%% %9.0f%% %9.0f%%\n", "%Combining",
                rows[0].comb_pct, rows[1].comb_pct, rows[2].comb_pct);
    for (i = 0; i < 3; ++i) {
        ctx.csv_row("table1", kStandardMixes[i].name, "batching",
                    rows[i].batching);
        ctx.csv_row("table1", kStandardMixes[i].name, "elimination_pct",
                    rows[i].elim_pct);
        ctx.csv_row("table1", kStandardMixes[i].name, "combining_pct",
                    rows[i].comb_pct);
    }
    return 0;
}

// ---- latency: per-op latency percentiles (paper §1 fairness claim) ---------

int latency(const ScenarioContext& ctx) {
    std::printf("# columns: mean, p50, p99, p999 per-op latency, upd100 mix\n");
    for (unsigned t : ctx.env.threads) {
        for (const AlgoSpec* a : ctx.algos) {
            StackParams params;
            params.threads = t;
            AnyStack stack = a->make(params);
            RunConfig cfg = ctx.run_config(t, kUpdateHeavy);
            const LatencyHistogram merged = run_latency_any(stack, cfg);
            std::printf(
                "%-6s t=%-4u ops=%-10llu mean=%8.0fns p50=%8lluns "
                "p99=%8lluns p999=%9lluns\n",
                a->name.c_str(), t,
                static_cast<unsigned long long>(merged.total()),
                merged.mean_ns(),
                static_cast<unsigned long long>(merged.quantile_ns(0.50)),
                static_cast<unsigned long long>(merged.quantile_ns(0.99)),
                static_cast<unsigned long long>(merged.quantile_ns(0.999)));
            const std::string key = a->name + "@t" + std::to_string(t);
            ctx.csv_row("latency_upd100", key, "mean_ns", merged.mean_ns());
            ctx.csv_row("latency_upd100", key, "p50_ns",
                        static_cast<double>(merged.quantile_ns(0.50)));
            ctx.csv_row("latency_upd100", key, "p99_ns",
                        static_cast<double>(merged.quantile_ns(0.99)));
            ctx.csv_row("latency_upd100", key, "p999_ns",
                        static_cast<double>(merged.quantile_ns(0.999)));
        }
    }
    return 0;
}

// ---- reclamation: algo x reclaimer scheme-comparison matrix (paper §4) -----

// One churn run of `spec` over a fresh domain of `scheme`; reports what the
// amortised in-run path achieved, the limbo high-water mark, and the cost of
// draining the backlog once the workers are quiet.
void reclamation_cell(const ScenarioContext& ctx, const ReclaimerSpec& scheme,
                      const AlgoSpec& spec, unsigned t, std::uint64_t ops,
                      std::uint64_t& scheme_hwm) {
    reclaim::DomainHandle domain = scheme.make_domain();
    double mops = 0;
    reclaim::Stats before;
    double drain_us = 0;
    reclaim::Stats after;
    {
        StackParams params;
        params.threads = t;
        params.domain = &domain;
        AnyStack stack = spec.make(params);
        mops = run_churn_any(stack, t, ops, ctx.env.value_range, ctx.env.seed);
        // Snapshot BEFORE draining: what the amortised path achieved.
        before = domain.stats();
        const auto d0 = std::chrono::steady_clock::now();
        domain.drain_all();
        const auto d1 = std::chrono::steady_clock::now();
        drain_us =
            std::chrono::duration<double, std::micro>(d1 - d0).count();
        after = domain.stats();
    }
    scheme_hwm = std::max(scheme_hwm, before.limbo_hwm);

    const double freed_pct =
        before.retired ? 100.0 * static_cast<double>(before.freed) /
                             static_cast<double>(before.retired)
                       : 100.0;
    std::printf(
        "%-10s t=%-3u %7.2f Mops/s retired=%-9llu freed-in-run=%-9llu "
        "(%5.1f%%) limbo-hwm=%-8llu drain=%8.1fus limbo-after=%llu\n",
        spec.name.c_str(), t, mops,
        static_cast<unsigned long long>(before.retired),
        static_cast<unsigned long long>(before.freed), freed_pct,
        static_cast<unsigned long long>(before.limbo_hwm), drain_us,
        static_cast<unsigned long long>(after.in_limbo()));
    const std::string key = spec.name + "@t" + std::to_string(t);
    ctx.csv_row("reclamation", key, "retired",
                static_cast<double>(before.retired));
    // Historical column name for the default scheme's rows; the matrix rows
    // get the scheme-neutral name.
    ctx.csv_row("reclamation", key,
                scheme.name == "ebr" ? "freed_by_epochs" : "freed_in_run",
                static_cast<double>(before.freed));
    ctx.csv_row("reclamation", key, "limbo_at_quiesce",
                static_cast<double>(before.in_limbo()));
    ctx.csv_row("reclamation", key, "limbo_hwm",
                static_cast<double>(before.limbo_hwm));
    ctx.csv_row("reclamation", key, "drain_us", drain_us);
    ctx.csv_row("reclamation", key, "limbo_after_drain",
                static_cast<double>(after.in_limbo()));
    ctx.csv_row("reclamation", key, "churn_mops", mops);
}

int reclamation(const ScenarioContext& ctx) {
    const std::uint64_t ops =
        static_cast<std::uint64_t>(ctx.env.duration_ms) * 2000;
    std::printf(
        "# balanced push/pop churn per reclamation scheme; 'freed-in-run' is\n"
        "# reclamation DURING the run (amortised advancement / scan batches),\n"
        "# 'limbo-hwm' the peak unreclaimed backlog, 'drain' the cost of\n"
        "# drain_all() once the workers are quiet (a no-op for 'leak')\n");
    const std::vector<unsigned> grid =
        ctx.smoke ? std::vector<unsigned>{2u} : std::vector<unsigned>{4u, 16u};
    // The selected algorithms' families, deduped in legend order (selecting
    // "SEC@hp" measures the SEC family across every scheme).
    std::vector<std::string> bases;
    for (const AlgoSpec* a : ctx.algos) {
        if (std::find(bases.begin(), bases.end(), a->base) == bases.end()) {
            bases.push_back(a->base);
        }
    }
    auto& algo_reg = AlgorithmRegistry::instance();
    for (const ReclaimerSpec* scheme : ReclaimerRegistry::instance().all()) {
        // --reclaim narrows the matrix to the requested scheme (the
        // selection was already rebound to that scheme's variants, so
        // sweeping the others would mislabel the comparison).
        if (!ctx.reclaim.empty() && scheme->name != ctx.reclaim) continue;
        std::fprintf(stderr, "scheme %s — %s\n", scheme->name.c_str(),
                     scheme->description.c_str());
        std::uint64_t scheme_hwm = 0;
        unsigned cells = 0;
        for (const std::string& base : bases) {
            const AlgoSpec* spec = algo_reg.find_variant(base, scheme->name);
            if (spec == nullptr || !spec->supports_domain) continue;
            for (unsigned t : grid) {
                reclamation_cell(ctx, *scheme, *spec, t, ops, scheme_hwm);
                ++cells;
            }
        }
        if (cells > 0) {
            std::printf("# scheme %-5s limbo high-water max=%llu over %u runs\n",
                        scheme->name.c_str(),
                        static_cast<unsigned long long>(scheme_hwm), cells);
            ctx.csv_row("reclamation_summary", scheme->name, "limbo_hwm_max",
                        static_cast<double>(scheme_hwm));
        }
    }
    return 0;
}

// ---- sweep: (agg x backoff) tuning-surface cross-product (DESIGN.md §5) ----

int sweep(const ScenarioContext& ctx) {
    std::string error;
    // Default grid: small but 2-D, so the scenario is meaningful (and
    // cheap) even without --sweep; smoke shrinks it further.
    const std::string raw =
        !ctx.sweep_spec.empty()
            ? ctx.sweep_spec
            : (ctx.smoke ? std::string("agg=1:2,backoff=0:256")
                         : std::string("agg=1:4,backoff=0:1024"));
    const auto spec = SweepSpec::parse(raw, &error);
    if (!spec) {
        std::fprintf(stderr, "secbench: %s\n", error.c_str());
        return 2;
    }
    return run_sweep(ctx, *spec);
}

// ---- tuning: static-best vs adaptive on a phase-shifting workload (§5) -----

// The workload no single static config wins: push-heavy, then mixed, then
// pop-heavy inside ONE measured window. The scenario reports each selected
// algorithm on it, plus the best static SEC over all aggregator counts, and
// closes with the adaptive/static-best ratio when SEC@adaptive is selected.
int tuning(const ScenarioContext& ctx) {
    static const std::vector<OpMix> kShiftingPhases = {
        {"push_heavy", 80, 20},
        {"mixed", 50, 50},
        {"pop_heavy", 20, 80},
    };
    const AlgoSpec& sec_algo = *AlgorithmRegistry::instance().find("SEC");
    std::vector<std::string> columns = ctx.columns();
    columns.push_back("SEC_static_best");
    Table table("tuning_phase_shift", columns);
    std::fprintf(stderr,
                 "phase-shifting workload: push80/20 -> 50/50 -> 20/80 in "
                 "one window\n");
    // Worst-case adaptive/static-best ratio across thread counts: adaptive
    // must hold up at every operating point, so maxima taken at different
    // thread counts must never be compared with each other.
    double worst_ratio = -1.0;
    double worst_adaptive = 0.0, worst_static = 0.0;
    for (unsigned t : ctx.env.threads) {
        RunConfig rcfg = ctx.run_config(t, kUpdateHeavy);
        // Static-best is an argmax over noisy samples, which inflates with
        // single-run noise; at least two runs per data point keeps the
        // comparison against the adaptive mean honest on jittery hosts.
        rcfg.runs = std::max(rcfg.runs, 2u);
        // Deep enough that the pop-heavy tail can't drain the stack: a
        // drained window degenerates into measuring EMPTY-pop returns,
        // whose much higher rate turns "did the drain finish in time" into
        // the dominant (and luck-driven) term. ~60% of a 25 Mops/s
        // pop-heavy sub-window is the worst-case net drain.
        const auto net_drain = static_cast<std::size_t>(
            25e6 * (static_cast<double>(ctx.env.duration_ms) / 1000.0) * 0.6);
        rcfg.prefill = std::min<std::size_t>(
            std::max(rcfg.prefill, net_drain), 40'000'000);
        double adaptive_at_t = -1.0;
        for (const AlgoSpec* a : ctx.algos) {
            StackParams params;
            params.threads = t;
            const RunResult r = run_phased_any(
                [&] { return a->make(params); }, rcfg, kShiftingPhases);
            table.add(t, a->name, r.mops);
            progress_line(a->name, t, r.mops);
            if (a->name == "SEC@adaptive") adaptive_at_t = r.mops;
        }
        // Static baseline: every aggregator count, default backoff — the
        // best hand-pick a user could freeze into a Config.
        double best = 0.0;
        std::size_t best_aggs = 1;
        for (std::size_t aggs = 1; aggs <= kMaxAggregators; ++aggs) {
            Config cfg = sec_config(t);
            cfg.num_aggregators = std::min<std::size_t>(aggs, cfg.max_threads);
            StackParams params;
            params.threads = t;
            params.config = &cfg;
            const RunResult r = run_phased_any(
                [&] { return sec_algo.make(params); }, rcfg, kShiftingPhases);
            if (r.mops > best) {
                best = r.mops;
                best_aggs = aggs;
            }
        }
        table.add(t, "SEC_static_best", best);
        std::fprintf(stderr, "  t=%-4u static best: agg=%zu (%.2f Mops/s)\n",
                     t, best_aggs, best);
        if (adaptive_at_t >= 0.0 && best > 0.0) {
            const double ratio = adaptive_at_t / best;
            ctx.csv_row("tuning_summary", std::to_string(t),
                        "adaptive_over_static_best", ratio);
            if (worst_ratio < 0.0 || ratio < worst_ratio) {
                worst_ratio = ratio;
                worst_adaptive = adaptive_at_t;
                worst_static = best;
            }
        }
    }
    ctx.emit(table);
    if (worst_ratio >= 0.0) {
        std::printf(
            "# adaptive/static-best = %.2f worst-case across the grid "
            "(adaptive %.2f vs static best %.2f Mops/s)%s\n",
            worst_ratio, worst_adaptive, worst_static,
            worst_ratio >= 0.9 ? "" : "  [below the 10%-of-best target]");
        ctx.csv_row("tuning_summary", "worst",
                    "adaptive_over_static_best", worst_ratio);
    }
    return 0;
}

// ---- ablation_backoff: freezer backoff window sweep (DESIGN.md §6) ---------

int ablation_backoff(const ScenarioContext& ctx) {
    const AlgoSpec& sec_algo = *AlgorithmRegistry::instance().find("SEC");
    constexpr std::uint64_t kWindowsNs[] = {0, 128, 256, 512, 1024, 4096};
    std::vector<std::string> columns;
    for (auto w : kWindowsNs) columns.push_back("bo" + std::to_string(w));

    Table table("ablation_freezer_backoff_upd100", columns);
    for (auto w : kWindowsNs) {
        const std::string column = "bo" + std::to_string(w);
        for (unsigned t : ctx.env.threads) {
            Config cfg = sec_config(t);
            cfg.freezer_backoff_ns = w;
            cfg.collect_stats = true;
            StackParams params;
            params.threads = t;
            params.config = &cfg;
            AnyStack stack = sec_algo.make(params);
            const RunResult r =
                run_throughput_any(stack, ctx.run_config(t, kUpdateHeavy));
            table.add(t, column, r.mops);
            const StatsSnapshot s = stack.stats();
            std::fprintf(
                stderr, "  bo=%-5llu t=%-4u %8.2f Mops/s batch=%.1f elim=%.0f%%\n",
                static_cast<unsigned long long>(w), t, r.mops,
                s.batching_degree(), s.elimination_pct());
        }
    }
    ctx.emit(table);
    return 0;
}

// ---- ablation_mapping: contiguous vs round-robin thread mapping (§6) -------

int ablation_mapping(const ScenarioContext& ctx) {
    const AlgoSpec& sec_algo = *AlgorithmRegistry::instance().find("SEC");
    Table table("ablation_mapping_upd100", {"contiguous", "round_robin"});
    const std::pair<AggregatorMapping, const char*> mappings[] = {
        {AggregatorMapping::kContiguous, "contiguous"},
        {AggregatorMapping::kRoundRobin, "round_robin"},
    };
    for (const auto& [mapping, column] : mappings) {
        for (unsigned t : ctx.env.threads) {
            Config cfg = sec_config(t);
            cfg.mapping = mapping;
            StackParams params;
            params.threads = t;
            params.config = &cfg;
            const RunResult r = run_throughput_any(
                [&] { return sec_algo.make(params); },
                ctx.run_config(t, kUpdateHeavy));
            table.add(t, column, r.mops);
            progress_line(column, t, r.mops);
        }
    }
    ctx.emit(table);
    return 0;
}

// ---- ablation_pool: SEC stack vs ElimPool — the price of LIFO (§6) ---------

int ablation_pool(const ScenarioContext& ctx) {
    const AlgoSpec& sec_algo = *AlgorithmRegistry::instance().find("SEC");
    const AlgoSpec& pool_algo = *AlgorithmRegistry::instance().find("POOL");
    Table table("ablation_pool_vs_stack_upd100",
                {"SEC_stack", "ElimPool_K2", "ElimPool_K4"});
    for (unsigned t : ctx.env.threads) {
        const RunConfig rcfg = ctx.run_config(t, kUpdateHeavy);
        StackParams params;
        params.threads = t;
        const RunResult r1 =
            run_throughput_any([&] { return sec_algo.make(params); }, rcfg);
        table.add(t, "SEC_stack", r1.mops);

        double pool_mops[2] = {0, 0};
        int i = 0;
        for (std::size_t k : {std::size_t{2}, std::size_t{4}}) {
            Config cfg = sec_config(t);
            cfg.num_aggregators = std::min<std::size_t>(k, cfg.max_threads);
            StackParams pp;
            pp.threads = t;
            pp.config = &cfg;
            const RunResult r =
                run_throughput_any([&] { return pool_algo.make(pp); }, rcfg);
            table.add(t, "ElimPool_K" + std::to_string(k), r.mops);
            pool_mops[i++] = r.mops;
        }
        std::fprintf(stderr,
                     "t=%-4u stack=%.2f poolK2=%.2f poolK4=%.2f Mops/s\n", t,
                     r1.mops, pool_mops[0], pool_mops[1]);
    }
    ctx.emit(table);
    return 0;
}

// ---- sharding: plain SEC vs the sec::shard façade (DESIGN.md §8) -----------

// One measured grid point of a K-sharded SEC over reclaimer R, built
// statically (not via the registry) so the shard-level counters stay
// reachable after the run; fresh structure per run, stats from the last.
template <reclaim::Reclaimer R>
RunResult sharded_sec_point(const Config& cfg, std::size_t k,
                            const RunConfig& rcfg, shard::ShardStats* out) {
    using Inner = SecStack<Value, R>;
    using Sharded = shard::ShardedStack<Inner>;
    shard::ShardConfig scfg;
    scfg.num_shards = k;
    scfg.max_threads = cfg.max_threads;
    std::unique_ptr<Sharded> holder;
    const RunResult r = run_throughput(
        [&] {
            holder = std::make_unique<Sharded>(scfg, [&cfg](std::size_t) {
                return std::make_unique<Inner>(cfg);
            });
            return holder.get();
        },
        rcfg);
    if (out != nullptr) *out = holder->shard_stats();
    return r;
}

using ShardedPointFn = RunResult (*)(const Config&, std::size_t,
                                     const RunConfig&, shard::ShardStats*);

// The first scenario that measures load DISTRIBUTION, not just aggregate
// Mops: per shard-count column it reports the per-shard imbalance
// (max/mean ops, 1.0 = balanced) and the steal rate (% of successful pops
// served by a foreign shard) next to the throughput, on the push-pop
// (upd100) mix where the single-spine anchor saturates first. Honours
// --reclaim: both the baseline and the sharded inner stacks run over the
// selected scheme, and the columns carry the scheme-qualified names.
int sharding(const ScenarioContext& ctx) {
    // Shard counts and scheme from the selection: --shards pins the count;
    // else any SEC@shardK (or SEC@shardK@scheme) in --algos; else the
    // default {2,4,8} grid ({2} under --smoke). The scheme comes from
    // --reclaim when given, else from a scheme-qualified selection —
    // `--algos SEC@shard4@hp` alone must not silently measure EBR.
    std::vector<std::size_t> ks;
    std::string scheme = ctx.reclaim;
    for (const AlgoSpec* a : ctx.algos) {
        constexpr std::string_view kPrefix = "SEC@shard";
        if (a->base.rfind(kPrefix, 0) != 0) continue;
        const unsigned long k =
            std::strtoul(a->base.c_str() + kPrefix.size(), nullptr, 10);
        if (k >= 1 && k <= shard::kMaxShards) ks.push_back(k);
        if (ctx.reclaim.empty()) {
            if (scheme.empty()) {
                scheme = a->reclaim;
            } else if (scheme != a->reclaim) {
                std::fprintf(stderr,
                             "sharding: selection mixes reclaim schemes "
                             "('%s' vs '%s'); pick one or use --reclaim\n",
                             scheme.c_str(), a->reclaim.c_str());
                return 2;
            }
        }
    }
    if (scheme.empty()) scheme = "ebr";
    if (ctx.shards > 0) {
        if (ctx.shards > shard::kMaxShards) {
            std::fprintf(stderr,
                         "sharding: --shards %u exceeds kMaxShards=%zu; "
                         "clamping\n",
                         ctx.shards, shard::kMaxShards);
        }
        ks.assign(1, std::min<std::size_t>(ctx.shards, shard::kMaxShards));
    } else if (ks.empty()) {
        ks = ctx.smoke ? std::vector<std::size_t>{2}
                       : std::vector<std::size_t>{2, 4, 8};
    }
    std::sort(ks.begin(), ks.end());
    ks.erase(std::unique(ks.begin(), ks.end()), ks.end());

    ShardedPointFn point = nullptr;
    if (scheme == "ebr") {
        point = sharded_sec_point<reclaim::EpochDomain>;
    } else if (scheme == "hp") {
        point = sharded_sec_point<reclaim::HazardDomain>;
    } else if (scheme == "qsbr") {
        point = sharded_sec_point<reclaim::QsbrDomain>;
    } else if (scheme == "leak") {
        point = sharded_sec_point<reclaim::LeakyDomain>;
    }
    const AlgoSpec* baseline =
        AlgorithmRegistry::instance().find_variant("SEC", scheme);
    if (point == nullptr || baseline == nullptr) {
        // Refuse rather than silently measure EBR under a scheme the
        // preamble claims: mislabelled CSV is worse than no CSV.
        std::fprintf(stderr,
                     "sharding: no sharded SEC binding for reclaim scheme "
                     "'%s'\n",
                     scheme.c_str());
        return 2;
    }
    // Scheme-qualified column names, matching the registry convention
    // (plain names are the @ebr binding).
    const std::string suffix = scheme == "ebr" ? "" : "@" + scheme;

    std::vector<std::string> columns{baseline->name};
    for (std::size_t k : ks) {
        columns.push_back("SEC@shard" + std::to_string(k) + suffix);
    }
    Table table("sharding", columns);
    std::printf(
        "# sharded SEC vs the single-spine baseline, upd100 mix, %s "
        "reclamation;\n"
        "# imbalance = max/mean ops across shards (1.0 = perfectly "
        "balanced),\n"
        "# steal%% = successful pops served by a foreign shard\n",
        scheme.c_str());

    double sec_at_tmax = 0.0;
    std::vector<double> shard_at_tmax(ks.size(), 0.0);
    const unsigned tmax =
        *std::max_element(ctx.env.threads.begin(), ctx.env.threads.end());
    for (unsigned t : ctx.env.threads) {
        const RunConfig rcfg = ctx.run_config(t, kUpdateHeavy);
        StackParams params;
        params.threads = t;
        const RunResult base =
            run_throughput_any([&] { return baseline->make(params); }, rcfg);
        table.add(t, baseline->name, base.mops);
        progress_line(baseline->name, t, base.mops);
        if (t == tmax) sec_at_tmax = base.mops;

        for (std::size_t ki = 0; ki < ks.size(); ++ki) {
            const std::size_t k = ks[ki];
            const std::string& column = columns[1 + ki];
            const Config cfg = sec_config(t);
            shard::ShardStats ss;
            const RunResult r = point(cfg, k, rcfg, &ss);
            table.add(t, column, r.mops);
            progress_line(column, t, r.mops);
            if (t == tmax) shard_at_tmax[ki] = r.mops;

            std::string per_shard;
            for (std::uint64_t ops : ss.shard_ops) {
                if (!per_shard.empty()) per_shard += ',';
                per_shard += std::to_string(ops);
            }
            std::printf(
                "SHARD %-12s t=%-4u %8.2f Mops/s imbalance=%.2f "
                "steal%%=%.2f probes=%llu empty=%llu shard_ops=[%s]\n",
                column.c_str(), t, r.mops, ss.imbalance(), ss.steal_pct(),
                static_cast<unsigned long long>(ss.steal_probes),
                static_cast<unsigned long long>(ss.empty_pops),
                per_shard.c_str());
            const std::string key = column + "@t" + std::to_string(t);
            ctx.csv_row("sharding_shards", key, "imbalance", ss.imbalance());
            ctx.csv_row("sharding_shards", key, "steal_pct", ss.steal_pct());
            ctx.csv_row("sharding_shards", key, "empty_pops",
                        static_cast<double>(ss.empty_pops));
        }
    }
    ctx.emit(table);

    // Headline: the widest measured shard count (preferring 4, the
    // acceptance configuration) against the single spine at the top of the
    // thread grid — with the why when sharding loses.
    std::size_t hi = ks.size() - 1;
    for (std::size_t ki = 0; ki < ks.size(); ++ki) {
        if (ks[ki] == 4) hi = ki;
    }
    if (sec_at_tmax > 0.0) {
        const double ratio = shard_at_tmax[hi] / sec_at_tmax;
        const unsigned hw = std::thread::hardware_concurrency();
        std::printf(
            "# sharding speedup @ t=%u: %s %.2f vs %s %.2f "
            "Mops/s (%.2fx)%s\n",
            tmax, columns[1 + hi].c_str(), shard_at_tmax[hi],
            baseline->name.c_str(), sec_at_tmax, ratio,
            ratio >= 1.0
                ? ""
                : " — expected on few-core hosts: shards only pay off when "
                  "they run on distinct cores; here the shards time-share "
                  "the same core(s), so per-shard cache footprint and the "
                  "steal sweep on a drained home shard dominate");
        if (ratio < 1.0 && hw > 0) {
            std::printf("# (hw_threads=%u on this host)\n", hw);
        }
        ctx.csv_row("sharding_summary", std::to_string(tmax),
                    "shard" + std::to_string(ks[hi]) + "_over_sec", ratio);
    }
    return 0;
}

// ---- service: open-loop offered-load tail latency (DESIGN.md §9) -----------

// Lane split for one grid point: the grid value is the CONSUMER count (the
// serving capacity under comparison); producers are pure load generators
// and scale at half that, bounded below by one.
ServiceConfig service_config(const ScenarioContext& ctx, unsigned consumers,
                             double load_kops, ArrivalKind arrival) {
    ServiceConfig scfg;
    scfg.consumers = consumers;
    scfg.producers = std::max(1u, (consumers + 1) / 2);
    scfg.load_kops = load_kops;
    scfg.duration = std::chrono::milliseconds(ctx.env.duration_ms);
    scfg.arrival = arrival;
    scfg.seed = ctx.env.seed;
    scfg.pin =
        topo::parse_pin_policy(ctx.env.pin).value_or(topo::PinPolicy::kNone);
    return scfg;
}

// Arrival kind from --arrival / SEC_BENCH_ARRIVAL; rejects typos loudly
// (a mislabelled arrival process corrupts every row it produces).
std::optional<ArrivalKind> scenario_arrival(const ScenarioContext& ctx) {
    const auto kind =
        parse_arrival(ctx.arrival.empty() ? "poisson" : ctx.arrival);
    if (!kind) {
        std::fprintf(stderr,
                     "secbench: unknown arrival process '%s' (poisson, "
                     "burst)\n",
                     ctx.arrival.c_str());
    }
    return kind;
}

int service(const ScenarioContext& ctx) {
    const auto arrival = scenario_arrival(ctx);
    if (!arrival) return 2;
    const double load =
        ctx.load_kops > 0 ? ctx.load_kops : (ctx.smoke ? 5.0 : 50.0);
    std::printf(
        "# open-loop service at %.1f Kops/s offered load, %s arrivals;\n"
        "# sojourn = completion - SCHEDULED arrival (queueing delay "
        "included,\n"
        "# no coordinated omission), service = the pop call alone; grid "
        "value\n"
        "# = consumers, producers = half that\n",
        load, std::string(arrival_name(*arrival)).c_str());
    Table table("service_p99_us", ctx.columns(), "us");
    for (unsigned t : ctx.env.threads) {
        const ServiceConfig scfg = service_config(ctx, t, load, *arrival);
        for (const AlgoSpec* a : ctx.algos) {
            StackParams params;
            params.threads = scfg.producers + scfg.consumers;
            const ServiceResult r =
                run_service_any([&] { return a->make(params); }, scfg);
            const double p50_us = r.sojourn.quantile_ns(0.50) / 1000.0;
            const double p99_us = r.sojourn.quantile_ns(0.99) / 1000.0;
            const double p999_us = r.sojourn.quantile_ns(0.999) / 1000.0;
            const double svc_p99_us = r.service.quantile_ns(0.99) / 1000.0;
            std::printf(
                "SERVICE %-10s t=%-4u offered=%8.2f achieved=%8.2f Kops/s "
                "done=%llu/%llu sojourn p50=%9.1fus p99=%9.1fus "
                "p999=%9.1fus | service p99=%9.1fus\n",
                a->name.c_str(), t, r.offered_kops, r.achieved_kops,
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.produced), p50_us, p99_us,
                p999_us, svc_p99_us);
            table.add(t, a->name, p99_us);
            const std::string key = a->name + "@t" + std::to_string(t);
            ctx.csv_row("service", key, "offered_kops", r.offered_kops);
            ctx.csv_row("service", key, "achieved_kops", r.achieved_kops);
            ctx.csv_row("service", key, "completed",
                        static_cast<double>(r.completed));
            ctx.csv_row("service", key, "sojourn_p50_us", p50_us);
            ctx.csv_row("service", key, "sojourn_p99_us", p99_us);
            ctx.csv_row("service", key, "sojourn_p999_us", p999_us);
            ctx.csv_row("service", key, "service_p99_us", svc_p99_us);
        }
    }
    ctx.emit(table);
    return 0;
}

// ---- knee: max sustainable load before the p99 explodes (DESIGN.md §9) -----

int knee(const ScenarioContext& ctx) {
    const auto arrival = scenario_arrival(ctx);
    if (!arrival) return 2;
    KneeConfig kc;
    if (ctx.load_kops > 0) kc.start_kops = ctx.load_kops;
    if (ctx.smoke) {
        kc.start_kops = ctx.load_kops > 0 ? ctx.load_kops : 2.0;
        kc.max_kops = 512.0;
        kc.refine_steps = 2;
    }
    std::printf(
        "# binary search for the highest offered load whose open-loop "
        "sojourn\n"
        "# p99 stays under %.1f ms (%s arrivals); each probe is one %u ms "
        "window\n",
        static_cast<double>(kc.p99_limit_ns) / 1e6,
        std::string(arrival_name(*arrival)).c_str(), ctx.env.duration_ms);
    Table table("service_knee_kops", ctx.columns(), "Kops/s");
    for (unsigned t : ctx.env.threads) {
        for (const AlgoSpec* a : ctx.algos) {
            const ServiceConfig scfg =
                service_config(ctx, t, kc.start_kops, *arrival);
            StackParams params;
            params.threads = scfg.producers + scfg.consumers;
            // Every probe of the binary search lands in the CSV sink as a
            // knee_trace row (key = algo@tN#probe), so the doubling phase
            // and the bisections can be re-plotted from the file alone.
            const KneeResult kr = find_service_knee(
                [&] { return a->make(params); }, scfg, kc,
                [&](const KneeProbe& p) {
                    std::fprintf(stderr,
                                 "  %-10s t=%-4u probe#%-2u %9.2f Kops/s "
                                 "achieved=%9.2f p99=%9.2f ms %s\n",
                                 a->name.c_str(), t, p.index, p.offered_kops,
                                 p.achieved_kops, p.p99_ns / 1e6,
                                 p.sustainable ? "ok" : "KNEE");
                    const std::string pkey = a->name + "@t" +
                                             std::to_string(t) + "#" +
                                             std::to_string(p.index);
                    ctx.csv_row("knee_trace", pkey, "offered_kops",
                                p.offered_kops);
                    ctx.csv_row("knee_trace", pkey, "achieved_kops",
                                p.achieved_kops);
                    ctx.csv_row("knee_trace", pkey, "p99_ns", p.p99_ns);
                    ctx.csv_row("knee_trace", pkey, "sustainable",
                                p.sustainable ? 1.0 : 0.0);
                });
            std::printf(
                "KNEE %-10s t=%-4u sustainable=%9.2f Kops/s p99=%9.2f ms "
                "(%u probes)\n",
                a->name.c_str(), t, kr.sustainable_kops,
                kr.p99_ns_at_knee / 1e6, kr.probes);
            table.add(t, a->name, kr.sustainable_kops);
            const std::string key = a->name + "@t" + std::to_string(t);
            ctx.csv_row("service_knee", key, "sustainable_kops",
                        kr.sustainable_kops);
            ctx.csv_row("service_knee", key, "p99_ns_at_knee",
                        kr.p99_ns_at_knee);
            ctx.csv_row("service_knee", key, "probes",
                        static_cast<double>(kr.probes));
        }
    }
    ctx.emit(table);
    return 0;
}

// ---- net_service: the open-loop harness over real sockets (DESIGN.md §11) --

// The service scenario's accounting, but with the stack behind sec::net: a
// SecServer per algorithm (event loop draining readiness batches into the
// structure) and the loopback client replaying the same Poisson/bursty
// schedules over N real TCP connections. Grid value = connections. With
// --port / SEC_BENCH_PORT set, the client targets an already-running
// secserve instead (a second process; single column "remote" because the
// remote process, not the local selection, fixes the algorithm). Exits
// nonzero when any scheduled request lost its reply — CI's net-smoke job
// leans on that.
int net_service(const ScenarioContext& ctx) {
    const auto arrival = scenario_arrival(ctx);
    if (!arrival) return 2;
    const double load =
        ctx.load_kops > 0 ? ctx.load_kops : (ctx.smoke ? 2.0 : 20.0);
    const bool remote = ctx.env.port != 0;

    std::printf(
        "# open-loop service over loopback TCP at %.1f Kops/s offered load, "
        "%s arrivals;\n"
        "# sojourn = reply - SCHEDULED arrival (CO-free), rtt = reply - "
        "send; grid value = connections\n",
        load, std::string(arrival_name(*arrival)).c_str());
    if (remote) {
        std::printf("# remote server at 127.0.0.1:%u (algorithm fixed by "
                    "that process)\n",
                    ctx.env.port);
    }

    const std::vector<std::string> cols =
        remote ? std::vector<std::string>{"remote"} : ctx.columns();
    Table kops_table("net_service_kops", cols, "Kops/s");
    Table p99_table("net_service_p99_us", cols, "us");
    int rc = 0;
    for (unsigned t : ctx.env.threads) {
        const unsigned series = remote ? 1u : static_cast<unsigned>(
                                                  ctx.algos.size());
        for (unsigned s = 0; s < series; ++s) {
            const AlgoSpec* a = remote ? nullptr : ctx.algos[s];
            const std::string column = remote ? "remote" : a->name;

            std::optional<net::SecServer> server;
            std::uint16_t port = static_cast<std::uint16_t>(ctx.env.port);
            if (!remote) {
                StackParams params;
                params.threads = 2;  // the event loop is the only stack user
                net::ServerConfig scfg;
                scfg.pin = topo::parse_pin_policy(ctx.env.pin)
                               .value_or(topo::PinPolicy::kNone);
                server.emplace(a->make(params), scfg);
                std::string err;
                if (!server->start(&err)) {
                    std::fprintf(stderr, "secbench: net_service: %s\n",
                                 err.c_str());
                    return 2;
                }
                port = server->port();
            }

            net::LoopbackClientConfig ccfg;
            ccfg.port = port;
            ccfg.connections = t;
            ccfg.load_kops = load;
            ccfg.duration = std::chrono::milliseconds(ctx.env.duration_ms);
            ccfg.arrival = *arrival;
            ccfg.seed = ctx.env.seed;
            const net::LoopbackClientResult r = run_loopback_client(ccfg);
            if (!r.ok) {
                std::fprintf(stderr, "secbench: net_service: %s\n",
                             r.error.c_str());
                return 2;
            }
            if (server) server->stop();

            const double p50_us = r.sojourn.quantile_ns(0.50) / 1000.0;
            const double p99_us = r.sojourn.quantile_ns(0.99) / 1000.0;
            const double p999_us = r.sojourn.quantile_ns(0.999) / 1000.0;
            const double rtt_p99_us = r.rtt.quantile_ns(0.99) / 1000.0;
            std::printf(
                "NET %-10s conns=%-3u offered=%8.2f achieved=%8.2f Kops/s "
                "replies=%llu/%llu lost=%llu sojourn p50=%9.1fus "
                "p99=%9.1fus p999=%9.1fus | rtt p99=%9.1fus\n",
                column.c_str(), t, r.offered_kops, r.achieved_kops,
                static_cast<unsigned long long>(r.replies),
                static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.lost), p50_us, p99_us,
                p999_us, rtt_p99_us);
            if (r.lost > 0) {
                std::fprintf(stderr,
                             "secbench: net_service: %llu replies LOST "
                             "(%s, conns=%u)\n",
                             static_cast<unsigned long long>(r.lost),
                             column.c_str(), t);
                rc = 1;
            }
            kops_table.add(t, column, r.achieved_kops);
            p99_table.add(t, column, p99_us);
            const std::string key = column + "@c" + std::to_string(t);
            ctx.csv_row("net_service", key, "offered_kops", r.offered_kops);
            ctx.csv_row("net_service", key, "achieved_kops",
                        r.achieved_kops);
            ctx.csv_row("net_service", key, "replies",
                        static_cast<double>(r.replies));
            ctx.csv_row("net_service", key, "lost",
                        static_cast<double>(r.lost));
            ctx.csv_row("net_service", key, "sojourn_p50_us", p50_us);
            ctx.csv_row("net_service", key, "sojourn_p99_us", p99_us);
            ctx.csv_row("net_service", key, "sojourn_p999_us", p999_us);
            ctx.csv_row("net_service", key, "rtt_p99_us", rtt_p99_us);
            if (server) {
                const net::ServerStats st = server->stats();
                ctx.csv_row("net_service", key, "server_batches",
                            static_cast<double>(st.batches));
                ctx.csv_row("net_service", key, "server_max_batch",
                            static_cast<double>(st.max_batch));
            }
        }
    }
    ctx.emit(kops_table);
    ctx.emit(p99_table);
    return rc;
}

// ---- micro: static vs type-erased hot-loop parity + per-op cost ------------

double timed_mops(std::uint64_t ops, const std::function<void()>& body) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    return us > 0 ? static_cast<double>(ops) / us : 0.0;
}

template <class S>
double static_mixed_mops(std::uint64_t ops, const PhaseArgs& args) {
    auto stack = make_stack<S>(tid_bound(1));
    phase_prefill(*stack, 64, args);
    return timed_mops(ops,
                      [&] { (void)phase_mixed_ops(*stack, ops, args); });
}

double erased_mixed_mops(const AlgoSpec& algo, std::uint64_t ops,
                         const PhaseArgs& args) {
    StackParams params;
    params.threads = 1;
    AnyStack stack = algo.make(params);
    stack.prefill(64, args);
    return timed_mops(ops, [&] { (void)stack.mixed_ops(ops, args); });
}

// The statically-dispatched twin of each registered algorithm (the erased
// path and this path share phase_mixed_ops, so any gap beyond noise would
// mean virtual dispatch leaked into the per-op loop).
double static_twin_mops(std::string_view name, std::uint64_t ops,
                        const PhaseArgs& args) {
    if (name == "CC") return static_mixed_mops<CcStack<Value>>(ops, args);
    if (name == "EB") return static_mixed_mops<EbStack<Value>>(ops, args);
    if (name == "FC") return static_mixed_mops<FcStack<Value>>(ops, args);
    if (name == "SEC") return static_mixed_mops<SecStack<Value>>(ops, args);
    if (name == "TRB") return static_mixed_mops<TreiberStack<Value>>(ops, args);
    if (name == "TSI") return static_mixed_mops<TsiStack<Value>>(ops, args);
    return -1.0;
}

// ns per iteration of `op` as each of `threads` workers sees it, all of
// them running it at once: the wall span over the per-worker iteration count
// (google-benchmark's real-time-per-thread convention).
template <class Op>
double contended_ns(unsigned threads, std::uint64_t iters, Op op) {
    const double us = run_span_us(threads, [&](unsigned) {
        for (std::uint64_t i = 0; i < iters; ++i) op();
    });
    return us * 1000.0 / static_cast<double>(iters);
}

// The paper's primitive-cost arguments over the thread grid: SEC eliminates
// with two fetch&increments where EB's collision protocol takes three CASes
// (§2), and every reclaiming stack pays the EBR guard on each operation plus
// a retire per popped node (§4). Unit "ns", so the snapshot compare never
// gates it.
void micro_prims(const ScenarioContext& ctx, std::uint64_t iters) {
    Table table("micro_prims",
                {"fai2_ns", "cas3_ns", "ebr_guard_ns", "ebr_retire_ns"}, "ns");
    for (unsigned t : ctx.env.threads) {
        CacheAligned<std::atomic<std::uint64_t>> words[3];
        table.add(t, "fai2_ns", contended_ns(t, iters, [&] {
                      words[0]->fetch_add(1, std::memory_order_acq_rel);
                      words[1]->fetch_add(1, std::memory_order_acq_rel);
                  }));
        table.add(t, "cas3_ns", contended_ns(t, iters, [&] {
                      for (auto& w : words) {
                          std::uint64_t cur = w->load(std::memory_order_acquire);
                          while (!w->compare_exchange_weak(
                              cur, cur + 1, std::memory_order_acq_rel,
                              std::memory_order_acquire)) {
                          }
                      }
                  }));
        reclaim::EpochDomain domain;
        table.add(t, "ebr_guard_ns", contended_ns(t, iters, [&] {
                      reclaim::EpochDomain::Guard g(domain);
                  }));
        table.add(t, "ebr_retire_ns", contended_ns(t, iters, [&] {
                      reclaim::EpochDomain::Guard g(domain);
                      domain.retire(new std::uint64_t(1));
                  }));
        domain.drain_all();
    }
    ctx.emit(table);
}

int micro(const ScenarioContext& ctx) {
    const std::uint64_t ops = std::max<std::uint64_t>(
        20'000, static_cast<std::uint64_t>(ctx.env.duration_ms) * 2000);
    std::printf(
        "# single-thread mixed-op cost over %llu ops; 'static' calls\n"
        "# phase_mixed_ops<S> directly, 'erased' runs the same loop behind\n"
        "# AnyStack's one-virtual-call phase boundary — the two must agree\n"
        "# within noise. ns/op = 1000 / Mops (the hot-path codegen pass's\n"
        "# per-op instruction-budget view, DESIGN.md §10)\n",
        static_cast<unsigned long long>(ops));
    // Mops/s -> ns per operation; the reciprocal view the codegen pass
    // budgets against (0 when the window was too small to time).
    const auto ns_per_op = [](double mops) {
        return mops > 0 ? 1000.0 / mops : 0.0;
    };
    PhaseArgs args;
    args.seed = 42;
    args.value_range = ctx.env.value_range;
    args.mix = kUpdateHeavy;
    for (const AlgoSpec* a : ctx.algos) {
        const double erased = erased_mixed_mops(*a, ops, args);
        const double stat = static_twin_mops(a->name, ops, args);
        if (stat >= 0) {
            const double delta =
                stat > 0 ? 100.0 * (erased - stat) / stat : 0.0;
            std::printf("MICRO %-6s static=%8.2f Mops/s (%7.1f ns/op) "
                        "erased=%8.2f Mops/s (%7.1f ns/op) delta=%+.1f%%\n",
                        a->name.c_str(), stat, ns_per_op(stat), erased,
                        ns_per_op(erased), delta);
            ctx.csv_row("micro_ops", a->name, "static", stat);
            ctx.csv_row("micro_ops", a->name, "static_ns", ns_per_op(stat));
        } else {
            std::printf("MICRO %-6s static=%8s erased=%8.2f Mops/s "
                        "(%7.1f ns/op)\n",
                        a->name.c_str(), "-", erased, ns_per_op(erased));
        }
        ctx.csv_row("micro_ops", a->name, "erased", erased);
        ctx.csv_row("micro_ops", a->name, "erased_ns", ns_per_op(erased));
    }
    micro_prims(ctx, ops);
    return 0;
}

}  // namespace

namespace detail {

void register_builtin_scenarios(ScenarioRegistry& reg) {
    reg.add({"fig2", "EXP1 — throughput vs threads, 3 mixes, all algorithms",
             fig2});
    reg.add({"fig3", "EXP2 — push-only / pop-only asymmetric workloads",
             fig3});
    reg.add({"queue",
             "FIFO matrix — SEC_Q vs MS vs FCQ across the fig2 op-mix grid "
             "(DESIGN.md §12)",
             queue});
    reg.add({"fig4", "EXP3 — SEC self-comparison, 1..5 aggregators", fig4});
    reg.add({"table1", "EXP4 — SEC batching/elimination/combining degrees",
             table1});
    reg.add({"latency", "per-op latency percentiles (paper §1 fairness claim)",
             latency});
    reg.add({"reclamation",
             "algo x reclaimer matrix: throughput/limbo/drain per scheme (§4)",
             reclamation});
    reg.add({"sweep",
             "SEC tuning surface: (agg x backoff) cross-product (--sweep)",
             sweep});
    reg.add({"tuning",
             "static-best vs SEC@adaptive on a phase-shifting workload",
             tuning});
    reg.add({"ablation_backoff", "freezer backoff window sweep (DESIGN.md §6)",
             ablation_backoff});
    reg.add({"ablation_mapping",
             "contiguous vs round-robin thread mapping (DESIGN.md §6)",
             ablation_mapping});
    reg.add({"ablation_pool",
             "SEC stack vs ElimPool — the price of LIFO (DESIGN.md §6)",
             ablation_pool});
    reg.add({"sharding",
             "SEC vs SEC@shardK: Mops + per-shard imbalance + steal rate "
             "(DESIGN.md §8)",
             sharding});
    reg.add({"service",
             "open-loop offered-load tail latency, no coordinated omission "
             "(DESIGN.md §9)",
             service});
    reg.add({"knee",
             "max sustainable offered load before the sojourn p99 explodes "
             "(DESIGN.md §9)",
             knee});
    reg.add({"net_service",
             "open-loop service over loopback TCP via sec::net "
             "(DESIGN.md §11)",
             net_service});
    reg.add({"micro",
             "static vs type-erased hot-loop parity + single-thread op cost "
             "(Mops + ns/op) + F&I/CAS/EBR primitive costs",
             micro});
}

}  // namespace detail
}  // namespace sec::bench
