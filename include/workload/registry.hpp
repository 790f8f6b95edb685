// workload/registry.hpp — algorithms and scenarios as data.
//
// AlgorithmRegistry maps a legend name ("SEC", "TRB", ...) to a factory
// producing a type-erased AnyStack from {threads, optional Config, optional
// EBR domain}. ScenarioRegistry maps a scenario name ("fig2", "latency",
// ...) to a short function that composes the shared selection/series/result
// pipeline in ScenarioContext. The secbench CLI is the one entry point over
// these registries; adding an algorithm or an experiment means one
// registration.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/common.hpp"
#include "core/config.hpp"
#include "core/op_mix.hpp"
#include "core/stack_concept.hpp"
#include "reclaim/reclaimer.hpp"
#include "workload/env.hpp"
#include "workload/reporter.hpp"
#include "workload/runner.hpp"

namespace sec::bench {

namespace json {
struct Snapshot;  // workload/bench_json.hpp
}

using Value = std::uint64_t;

// Thread-bound passed to stack constructors: the N workers plus the main
// thread (and a little slack for gtest-style environments).
inline std::size_t tid_bound(unsigned threads) {
    return std::min<std::size_t>(kMaxThreads, threads + 8);
}

// Everything an algorithm factory may need for one run. `config` overrides
// the default sec::Config for Config-built structures (SEC, POOL) and is
// ignored by the others; `domain` plugs in an external reclamation domain
// where the structure supports one (AlgoSpec::supports_domain) — the handle
// must carry the scheme the algorithm variant was registered for, or the
// factory falls back to a private domain.
struct StackParams {
    unsigned threads = 1;
    const Config* config = nullptr;
    const reclaim::DomainHandle* domain = nullptr;
};

// A Config honouring StackParams: an explicit config wins; otherwise the
// default Config sized to the run's thread bound. Aggregators never exceed
// max_threads. Shared by the built-in factories (src/registry.cpp) and the
// sharded variants (src/shard.cpp) so the two can never drift. Inline, so
// a program that builds its own stack from it links none of the registries.
inline Config effective_stack_config(const StackParams& p) {
    Config cfg = p.config != nullptr ? *p.config : Config{};
    if (p.config == nullptr) cfg.max_threads = tid_bound(p.threads);
    cfg.max_threads =
        std::min(std::max<std::size_t>(cfg.max_threads, 1), kMaxThreads);
    cfg.num_aggregators = std::min(cfg.num_aggregators, cfg.max_threads);
    return cfg;
}

struct AlgoSpec {
    std::string name;         // legend name ("SEC", "TRB@hp"), the Table column
    std::string description;  // one-liner for `secbench --list`
    int legend_rank = 0;      // paper legend order (Fig. 2)
    bool default_set = false;  // one of the six Figure-2 competitors
    bool supports_domain = false;
    std::function<AnyStack(const StackParams&)> make;
    // Derived by AlgorithmRegistry::add from `name` ("BASE" or "BASE@scheme"):
    // the algorithm family and the reclamation scheme it is bound to ("" for
    // structures without a reclaimer, i.e. CC/FC).
    std::string base{};
    std::string reclaim{};
    // Removal order of the structure (kShape of the erased type). Printed by
    // `secbench --list`; the driver refuses shape-mixed `--algos` sets and
    // the `queue` scenario selects on it. Defaults to lifo so positional
    // registrations of the stack era stay valid.
    ContainerShape shape = ContainerShape::lifo;
};

class AlgorithmRegistry {
public:
    static AlgorithmRegistry& instance();

    // Open for extension: out-of-tree structures register here too. Specs
    // are stored behind stable pointers, so AlgoSpec* handed out earlier
    // survives later registrations.
    void add(AlgoSpec spec);

    const AlgoSpec* find(std::string_view name) const;
    // Resolve an algorithm family to its binding for a reclamation scheme.
    // The single home of the naming convention: the plain base name IS the
    // "ebr" binding; other schemes are registered as "BASE@scheme". Returns
    // nullptr when the combination does not exist (e.g. TSI@hp).
    const AlgoSpec* find_variant(std::string_view base,
                                 std::string_view scheme) const;
    // All registered algorithms / the six-competitor default set, both in
    // legend order.
    std::vector<const AlgoSpec*> all() const;
    std::vector<const AlgoSpec*> default_set() const;
    std::string names_csv() const;  // "CC, EB, ..." for error messages

private:
    AlgorithmRegistry();
    std::vector<std::unique_ptr<AlgoSpec>> specs_;
};

// A reclamation scheme as registry data: its CLI name (`--reclaim hp`), a
// one-liner, and a factory for a type-erased owning domain the reclamation
// scenario hands to per-variant stack factories.
struct ReclaimerSpec {
    std::string name;         // scheme name: "ebr", "hp", "qsbr", "leak"
    std::string description;  // one-liner for `secbench --list`
    std::function<reclaim::DomainHandle()> make_domain;
};

class ReclaimerRegistry {
public:
    static ReclaimerRegistry& instance();
    // Stable-pointer storage, same contract as AlgorithmRegistry::add.
    void add(ReclaimerSpec spec);
    const ReclaimerSpec* find(std::string_view name) const;
    std::vector<const ReclaimerSpec*> all() const;
    std::string names_csv() const;

private:
    ReclaimerRegistry();
    std::vector<std::unique_ptr<ReclaimerSpec>> specs_;
};

// The six competitors of Figure 2/3 as Table columns, legend order —
// derived from the registry, not a hand-kept list.
inline std::vector<std::string> algorithm_columns() {
    std::vector<std::string> columns;
    for (const AlgoSpec* a : AlgorithmRegistry::instance().default_set()) {
        columns.push_back(a->name);
    }
    return columns;
}

// Shared per-scenario state plus the selection/series/result pipeline every
// scenario composes.
struct ScenarioContext {
    EnvConfig env;
    std::vector<const AlgoSpec*> algos;  // selection, legend order
    // The run's result snapshot (run_scenarios points it at one pass's
    // snapshot; --json and --csv are both written from it). Every cell
    // csv_row() streams to stdout also lands here, so a snapshot is exactly
    // what the run printed. Null = stdout only.
    json::Snapshot* json = nullptr;
    bool smoke = false;                  // tiny-budget mode (secbench --smoke)
    // The --reclaim scheme, when given: `algos` is already rebound to its
    // variants, and the reclamation scenario restricts its matrix to this
    // scheme instead of sweeping all four ("" = no restriction).
    std::string reclaim{};
    // The --sweep spec, when given; the `sweep` scenario parses it
    // (workload/sweep.hpp) and falls back to a small default grid when
    // empty.
    std::string sweep_spec{};
    // --shards / SEC_BENCH_SHARDS: pins the `sharding` scenario to one
    // shard count (0 = derive from the selection, else the default grid).
    unsigned shards = 0;
    // --load / SEC_BENCH_LOAD: offered load in Kops/s for the open-loop
    // `service` scenario (0 = the scenario's default; the `knee` scenario
    // uses it as the search's starting probe when given).
    double load_kops = 0;
    // --arrival / SEC_BENCH_ARRIVAL: "poisson" (default) or "burst" — the
    // arrival process of the service scenarios (workload/service.hpp).
    std::string arrival{};

    // Column names of the selected algorithms.
    std::vector<std::string> columns() const;
    // RunConfig for one grid point from `e` (defaults to this->env).
    RunConfig run_config(unsigned threads, const OpMix& mix) const;
    RunConfig run_config(unsigned threads, const OpMix& mix,
                         const EnvConfig& e) const;
    // Sweep the thread grid of `e` for one algorithm into `table`.
    void series(Table& table, const AlgoSpec& algo, const OpMix& mix,
                const EnvConfig& e) const;
    // Print the table's grid, then send every cell through csv_row (key =
    // thread count, the table's unit).
    void emit(const Table& table) const;
    // The one result sink: print `CSV,<table>,<key>,<column>,<value>` to
    // stdout (flushed, so a crashed run keeps its rows) and append the cell
    // to the snapshot. Cells without a unit are reported but never gated by
    // the snapshot compare (workload/bench_json.hpp).
    void csv_row(std::string_view table, std::string_view key,
                 std::string_view column, double value,
                 std::string_view unit = "") const;
};

struct ScenarioSpec {
    std::string name;   // CLI name, e.g. "fig2"
    std::string title;  // one-liner for `secbench --list`
    std::function<int(const ScenarioContext&)> run;
};

class ScenarioRegistry {
public:
    static ScenarioRegistry& instance();
    // Stable-pointer storage, same contract as AlgorithmRegistry::add.
    void add(ScenarioSpec spec);
    const ScenarioSpec* find(std::string_view name) const;
    std::vector<const ScenarioSpec*> all() const;

private:
    ScenarioRegistry();
    std::vector<std::unique_ptr<ScenarioSpec>> specs_;
};

// Run one registered scenario (preamble + body). Returns the scenario's
// exit code, or 2 for an unknown name (after listing the available set).
int run_scenario(std::string_view name, const ScenarioContext& ctx);

// Run `names` in order, `repeats` times over, each pass into its own
// snapshot, and return the per-cell medians (json::median_of; meta left
// empty). `rc` receives the first nonzero scenario exit code, else 0.
json::Snapshot run_scenarios(const std::vector<std::string>& names,
                             ScenarioContext ctx, unsigned repeats, int& rc);

namespace detail {
// Defined in src/scenarios.cpp; called once from ScenarioRegistry's
// constructor so the scenario translation unit is linked into consumers of
// the registry (static-library registration would otherwise be dropped).
void register_builtin_scenarios(ScenarioRegistry& reg);
// Defined in src/shard.cpp, same linkage trick: the SEC@shardK (x reclaim
// scheme) variants self-register from the sharding translation unit.
void register_shard_algorithms(AlgorithmRegistry& reg);
}  // namespace detail

}  // namespace sec::bench
