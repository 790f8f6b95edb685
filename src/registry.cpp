// registry.cpp — AlgorithmRegistry (the six stacks + the ElimPool adapter
// self-register here, plus the algo@reclaimer cross-product),
// ReclaimerRegistry (the four sec::reclaim schemes), ScenarioRegistry, and
// the shared scenario pipeline (ScenarioContext helpers and the result sink,
// run_scenario / run_scenarios).
#include "workload/registry.hpp"

#include <cstdio>

#include "core/adaptive.hpp"
#include "core/elim_pool.hpp"
#include "reclaim/reclaim.hpp"
#include "sec.hpp"
#include "workload/any_runner.hpp"
#include "workload/bench_json.hpp"

namespace sec::bench {
namespace {

// ---- algorithm factories ---------------------------------------------------

// Containers with no reclamation domain (CcStack/FcStack/FcQueue: combining
// designs reclaim through their combiner, so `domain` is ignored for them).
template <ConcurrentContainer S>
AnyStack make_plain_stack(const StackParams& p) {
    return erase_stack(make_stack<S>(tid_bound(p.threads)));
}

// Thread-bound containers whose reclaimer is baked into S; an external domain
// of the matching scheme is borrowed when the handle carries one.
template <ConcurrentContainer S>
AnyStack make_bound_stack(const StackParams& p) {
    using R = typename S::reclaimer_type;
    if (p.domain != nullptr) {
        if (R* d = p.domain->get<R>()) {
            return erase_stack(
                std::make_unique<S>(tid_bound(p.threads), *d));
        }
    }
    return erase_stack(make_stack<S>(tid_bound(p.threads)));
}

template <reclaim::Reclaimer R>
AnyStack make_sec(const StackParams& p) {
    const Config cfg = effective_stack_config(p);
    if (p.domain != nullptr) {
        if (R* d = p.domain->get<R>()) {
            return erase_stack(std::make_unique<SecStack<Value, R>>(cfg, *d));
        }
    }
    return erase_stack(std::make_unique<SecStack<Value, R>>(cfg));
}

// Same Config plumbing as make_sec; SecQueue itself forces eliminate off.
template <reclaim::Reclaimer R>
AnyStack make_sec_queue(const StackParams& p) {
    const Config cfg = effective_stack_config(p);
    if (p.domain != nullptr) {
        if (R* d = p.domain->get<R>()) {
            return erase_stack(std::make_unique<SecQueue<Value, R>>(cfg, *d));
        }
    }
    return erase_stack(std::make_unique<SecQueue<Value, R>>(cfg));
}

// ElimPool behind the stack concept: the SEC machinery on per-aggregator
// spines, LIFO order dropped (pools don't peek).
template <reclaim::Reclaimer R>
struct PoolStackAdapter {
    using value_type = Value;
    static constexpr ContainerShape kShape = ContainerShape::unordered;
    explicit PoolStackAdapter(Config cfg) : pool(std::move(cfg)) {}
    PoolStackAdapter(Config cfg, R& d) : pool(std::move(cfg), d) {}
    bool push(const value_type& v) { return pool.insert(v); }
    std::optional<value_type> pop() { return pool.extract(); }
    std::optional<value_type> peek() { return std::nullopt; }
    bool put(const value_type& v) { return pool.insert(v); }
    std::optional<value_type> take() { return pool.extract(); }
    void quiesce() { pool.quiesce(); }
    void reclaim_offline() { pool.reclaim_offline(); }
    ElimPool<value_type, R> pool;
};

template <reclaim::Reclaimer R>
AnyStack make_pool(const StackParams& p) {
    const Config cfg = effective_stack_config(p);
    if (p.domain != nullptr) {
        if (R* d = p.domain->get<R>()) {
            return erase_stack(
                std::make_unique<PoolStackAdapter<R>>(cfg, *d));
        }
    }
    return erase_stack(std::make_unique<PoolStackAdapter<R>>(cfg));
}

// SEC plus the sec::adapt runtime controller, as one self-contained stack:
// the TuningState the hot path reads, the stack wired to it, and the
// background controller sampling the stack's degree counters every epoch.
// Member order is the lifetime contract — the controller is declared last,
// so it stops (joins) before the stack and the tuning state it reads die.
struct AdaptiveSecStack {
    using value_type = Value;
    static constexpr ContainerShape kShape = ContainerShape::lifo;

    static Config wire(Config cfg, const TuningState* tuning) {
        cfg.collect_stats = true;  // the controller's feedback signal
        cfg.tuning = tuning;
        return cfg;
    }

    explicit AdaptiveSecStack(const Config& cfg)
        : tuning(static_cast<std::uint32_t>(cfg.num_aggregators),
                 cfg.freezer_backoff_ns),
          stack(wire(cfg, &tuning)),
          controller(
              tuning, [this] { return stack.stats(); },
              cfg.num_aggregators) {
        controller.start();
    }

    bool push(const value_type& v) { return stack.push(v); }
    std::optional<value_type> pop() { return stack.pop(); }
    std::optional<value_type> peek() const { return stack.peek(); }
    bool put(const value_type& v) { return stack.push(v); }
    std::optional<value_type> take() { return stack.pop(); }
    void quiesce() { stack.quiesce(); }
    void reclaim_offline() { stack.reclaim_offline(); }
    StatsSnapshot stats() const { return stack.stats(); }

    TuningState tuning;
    SecStack<Value> stack;
    adapt::AdaptiveController controller;
};

AnyStack make_adaptive_sec(const StackParams& p) {
    return erase_stack(
        std::make_unique<AdaptiveSecStack>(effective_stack_config(p)));
}

// One "BASE@scheme" spec per reclaimer-capable structure: the cross-product
// the `--reclaim` flag and the reclamation scenario's matrix select from.
// TSI is blanket-only (see core/tsi_stack.hpp), so it has no @hp variant.
template <reclaim::Reclaimer R>
void register_reclaim_variants(AlgorithmRegistry& reg, int rank) {
    // Built with append rather than operator+ to dodge GCC 12's -Wrestrict
    // false positive on char* + std::string concatenation.
    auto variant = [](const char* base) {
        std::string s(base);
        s += '@';
        s += R::kName;
        return s;
    };
    auto desc = [](const char* base) {
        std::string s(base);
        s += " over the ";
        s += R::kName;
        s += " reclaimer";
        return s;
    };
    reg.add({variant("EB"), desc("EB"), rank + 0, false, true,
             make_bound_stack<EbStack<Value, R>>});
    reg.add({variant("SEC"), desc("SEC"), rank + 1, false, true,
             make_sec<R>});
    reg.add({variant("TRB"), desc("TRB"), rank + 2, false, true,
             make_bound_stack<TreiberStack<Value, R>>});
    if constexpr (R::kBlanketProtection) {
        reg.add({variant("TSI"), desc("TSI"), rank + 3, false, true,
                 make_bound_stack<TsiStack<Value, R>>});
    }
    reg.add({variant("POOL"), desc("POOL"), rank + 4, false, true,
             make_pool<R>, {}, {}, ContainerShape::unordered});
    reg.add({variant("SEC_Q"), desc("SEC_Q"), rank + 5, false, true,
             make_sec_queue<R>, {}, {}, ContainerShape::fifo});
    reg.add({variant("MS"), desc("MS"), rank + 6, false, true,
             make_bound_stack<MsQueue<Value, R>>, {}, {},
             ContainerShape::fifo});
}

void register_builtin_algorithms(AlgorithmRegistry& reg) {
    // The paper's six plus POOL — EBR-backed, names/columns unchanged.
    reg.add({"CC", "CC-Synch combining stack", 0, true, false,
             make_plain_stack<CcStack<Value>>});
    reg.add({"EB", "Treiber + elimination-backoff collision array", 1, true,
             true, make_bound_stack<EbStack<Value>>});
    reg.add({"FC", "flat-combining stack", 2, true, false,
             make_plain_stack<FcStack<Value>>});
    reg.add({"SEC", "sharded elimination-combining stack (the paper)", 3, true,
             true, make_sec<reclaim::EpochDomain>});
    reg.add({"TRB", "Treiber stack (single-CAS top)", 4, true, true,
             make_bound_stack<TreiberStack<Value>>});
    reg.add({"TSI", "timestamped stack (per-thread pools)", 5, true, true,
             make_bound_stack<TsiStack<Value>>});
    reg.add({"POOL", "ElimPool — SEC machinery, unordered, per-aggregator spines",
             10, false, true, make_pool<reclaim::EpochDomain>, {}, {},
             ContainerShape::unordered});
    // The FIFO competitor trio (ROADMAP item 2): same registry, same
    // reclaim cross-product, selected by the `queue` scenario. Not in the
    // Figure-2 default set — that set is the paper's six stacks.
    reg.add({"SEC_Q",
             "sharded combining FIFO queue — SEC batching, no elimination",
             12, false, true, make_sec_queue<reclaim::EpochDomain>, {}, {},
             ContainerShape::fifo});
    reg.add({"MS", "Michael-Scott queue (CAS per op on head/tail lines)", 13,
             false, true, make_bound_stack<MsQueue<Value>>, {}, {},
             ContainerShape::fifo});
    reg.add({"FCQ", "flat-combining queue", 14, false, false,
             make_plain_stack<FcQueue<Value>>, {}, {}, ContainerShape::fifo});
    // SEC under the sec::adapt runtime controller. base is set to the full
    // name on purpose: adaptivity is not a reclamation scheme, so --reclaim
    // must not silently rebind SEC@adaptive to SEC@hp (it reports "no
    // variant" and drops it instead).
    reg.add({"SEC@adaptive",
             "SEC self-tuning active aggregators + freezer backoff at runtime",
             20, false, false, make_adaptive_sec, "SEC@adaptive", "ebr"});
    // The algo@reclaimer cross-product. The plain names above ARE the @ebr
    // bindings (no duplicate "@ebr" specs), so existing scenario keys and
    // CSV output are unchanged.
    register_reclaim_variants<reclaim::HazardDomain>(reg, 30);
    register_reclaim_variants<reclaim::QsbrDomain>(reg, 40);
    register_reclaim_variants<reclaim::LeakyDomain>(reg, 50);
}

void register_builtin_reclaimers(ReclaimerRegistry& reg) {
    reg.add({"ebr", "epoch-based (DEBRA-style) — the paper's §4 default",
             [] { return reclaim::DomainHandle::make<reclaim::EpochDomain>(); }});
    reg.add({"hp", "hazard pointers — per-thread slots, scan-and-free batches",
             [] { return reclaim::DomainHandle::make<reclaim::HazardDomain>(); }});
    reg.add({"qsbr",
             "quiescent-state — runner announces quiescence per iteration",
             [] { return reclaim::DomainHandle::make<reclaim::QsbrDomain>(); }});
    reg.add({"leak", "no-op baseline — frees only at domain destruction",
             [] { return reclaim::DomainHandle::make<reclaim::LeakyDomain>(); }});
}

}  // namespace

// ---- AlgorithmRegistry -----------------------------------------------------

AlgorithmRegistry::AlgorithmRegistry() {
    register_builtin_algorithms(*this);
    detail::register_shard_algorithms(*this);
}

AlgorithmRegistry& AlgorithmRegistry::instance() {
    static AlgorithmRegistry reg;
    return reg;
}

void AlgorithmRegistry::add(AlgoSpec spec) {
    // Derive the family / scheme split from the "BASE@scheme" naming
    // convention unless the registrant set them explicitly.
    if (spec.base.empty()) {
        const auto at = spec.name.find('@');
        spec.base = spec.name.substr(0, at);
        if (spec.reclaim.empty()) {
            spec.reclaim = at == std::string::npos
                               ? (spec.supports_domain ? "ebr" : "")
                               : spec.name.substr(at + 1);
        }
    }
    const auto pos = std::find_if(
        specs_.begin(), specs_.end(),
        [&spec](const std::unique_ptr<AlgoSpec>& s) {
            return s->legend_rank > spec.legend_rank;
        });
    specs_.insert(pos, std::make_unique<AlgoSpec>(std::move(spec)));
}

const AlgoSpec* AlgorithmRegistry::find(std::string_view name) const {
    for (const auto& s : specs_) {
        if (s->name == name) return s.get();
    }
    return nullptr;
}

const AlgoSpec* AlgorithmRegistry::find_variant(
    std::string_view base, std::string_view scheme) const {
    if (scheme.empty() || scheme == "ebr") return find(base);
    std::string name(base);
    name += '@';
    name += scheme;
    return find(name);
}

std::vector<const AlgoSpec*> AlgorithmRegistry::all() const {
    std::vector<const AlgoSpec*> out;
    for (const auto& s : specs_) out.push_back(s.get());
    return out;
}

std::vector<const AlgoSpec*> AlgorithmRegistry::default_set() const {
    std::vector<const AlgoSpec*> out;
    for (const auto& s : specs_) {
        if (s->default_set) out.push_back(s.get());
    }
    return out;
}

std::string AlgorithmRegistry::names_csv() const {
    std::string out;
    for (const auto& s : specs_) {
        if (!out.empty()) out += ", ";
        out += s->name;
    }
    return out;
}

// ---- ReclaimerRegistry -----------------------------------------------------

ReclaimerRegistry::ReclaimerRegistry() { register_builtin_reclaimers(*this); }

ReclaimerRegistry& ReclaimerRegistry::instance() {
    static ReclaimerRegistry reg;
    return reg;
}

void ReclaimerRegistry::add(ReclaimerSpec spec) {
    specs_.push_back(std::make_unique<ReclaimerSpec>(std::move(spec)));
}

const ReclaimerSpec* ReclaimerRegistry::find(std::string_view name) const {
    for (const auto& s : specs_) {
        if (s->name == name) return s.get();
    }
    return nullptr;
}

std::vector<const ReclaimerSpec*> ReclaimerRegistry::all() const {
    std::vector<const ReclaimerSpec*> out;
    for (const auto& s : specs_) out.push_back(s.get());
    return out;
}

std::string ReclaimerRegistry::names_csv() const {
    std::string out;
    for (const auto& s : specs_) {
        if (!out.empty()) out += ", ";
        out += s->name;
    }
    return out;
}

// ---- ScenarioRegistry ------------------------------------------------------

ScenarioRegistry::ScenarioRegistry() {
    detail::register_builtin_scenarios(*this);
}

ScenarioRegistry& ScenarioRegistry::instance() {
    static ScenarioRegistry reg;
    return reg;
}

void ScenarioRegistry::add(ScenarioSpec spec) {
    specs_.push_back(std::make_unique<ScenarioSpec>(std::move(spec)));
}

const ScenarioSpec* ScenarioRegistry::find(std::string_view name) const {
    for (const auto& s : specs_) {
        if (s->name == name) return s.get();
    }
    return nullptr;
}

std::vector<const ScenarioSpec*> ScenarioRegistry::all() const {
    std::vector<const ScenarioSpec*> out;
    for (const auto& s : specs_) out.push_back(s.get());
    return out;
}

// ---- ScenarioContext pipeline ----------------------------------------------

std::vector<std::string> ScenarioContext::columns() const {
    std::vector<std::string> out;
    for (const AlgoSpec* a : algos) out.push_back(a->name);
    return out;
}

RunConfig ScenarioContext::run_config(unsigned threads,
                                      const OpMix& mix) const {
    return run_config(threads, mix, env);
}

RunConfig ScenarioContext::run_config(unsigned threads, const OpMix& mix,
                                      const EnvConfig& e) const {
    RunConfig cfg;
    cfg.threads = threads;
    cfg.duration = std::chrono::milliseconds(e.duration_ms);
    cfg.prefill = e.prefill;
    cfg.mix = mix;
    cfg.value_range = e.value_range;
    cfg.runs = e.runs;
    cfg.seed = e.seed;
    cfg.pin = topo::parse_pin_policy(e.pin).value_or(topo::PinPolicy::kNone);
    cfg.counters = e.counters;
    return cfg;
}

void ScenarioContext::series(Table& table, const AlgoSpec& algo,
                             const OpMix& mix, const EnvConfig& e) const {
    for (unsigned t : e.threads) {
        const RunConfig cfg = run_config(t, mix, e);
        StackParams params;
        params.threads = t;
        const RunResult r =
            run_throughput_any([&] { return algo.make(params); }, cfg);
        table.add(t, algo.name, r.mops);
        progress_line(algo.name, t, r.mops);
        // Hardware-counter evidence next to the Mops cell, when the kernel
        // granted the counter groups. Unit-less csv_row cells: reported by
        // the snapshot compare but never gated (counter rates move with
        // the host's PMU, not with codegen alone).
        if (r.perf.any() && r.total_ops > 0) {
            const double ops = static_cast<double>(r.total_ops);
            const std::string perf_table = std::string(table.name()) + "_perf";
            csv_row(perf_table, std::to_string(t), algo.name + ":cycles_per_op",
                    static_cast<double>(r.perf.cycles) / ops);
            csv_row(perf_table, std::to_string(t), algo.name + ":instr_per_op",
                    static_cast<double>(r.perf.instructions) / ops);
            csv_row(perf_table, std::to_string(t),
                    algo.name + ":llc_miss_per_kop",
                    static_cast<double>(r.perf.llc_misses) * 1000.0 / ops);
        }
    }
}

void ScenarioContext::emit(const Table& table) const {
    table.print();
    table.for_each_cell([&](unsigned t, const std::string& col, double v) {
        csv_row(table.name(), std::to_string(t), col, v, table.unit());
    });
}

void ScenarioContext::csv_row(std::string_view table, std::string_view key,
                              std::string_view column, double value,
                              std::string_view unit) const {
    const std::string row =
        "CSV," + json::csv_line(table, key, column, value) + "\n";
    std::fputs(row.c_str(), stdout);
    std::fflush(stdout);
    if (json != nullptr) json->add(table, key, column, unit, value);
}

// ---- entry points ----------------------------------------------------------

int run_scenario(std::string_view name, const ScenarioContext& ctx) {
    const ScenarioSpec* spec = ScenarioRegistry::instance().find(name);
    if (spec == nullptr) {
        std::string available;
        for (const ScenarioSpec* s : ScenarioRegistry::instance().all()) {
            if (!available.empty()) available += ", ";
            available += s->name;
        }
        std::fprintf(stderr, "secbench: unknown scenario '%.*s'; available: %s\n",
                     static_cast<int>(name.size()), name.data(),
                     available.c_str());
        return 2;
    }
    print_preamble(std::string("secbench ") + spec->name + " — " + spec->title,
                   ctx.env);
    const int rc = spec->run(ctx);
    // Decorrelate the NEXT scenario's per-worker RNG streams from this
    // one's (see phase_seed): advancing after the body keeps stream 0 — and
    // with it the historical seeding — for the first scenario of every
    // invocation and for every direct runner call in the tests.
    advance_seed_stream();
    return rc;
}

json::Snapshot run_scenarios(const std::vector<std::string>& names,
                             ScenarioContext ctx, unsigned repeats, int& rc) {
    rc = 0;
    std::vector<json::Snapshot> passes(std::max(1u, repeats));
    for (std::size_t rep = 0; rep < passes.size(); ++rep) {
        if (passes.size() > 1) {
            std::fprintf(stderr, "# snapshot repeat %zu/%zu\n", rep + 1,
                         passes.size());
        }
        ctx.json = &passes[rep];
        for (const std::string& name : names) {
            const int one = run_scenario(name, ctx);
            if (one != 0 && rc == 0) rc = one;
        }
    }
    return json::median_of(passes);
}

}  // namespace sec::bench
