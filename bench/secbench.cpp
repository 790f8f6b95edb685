// secbench.cpp — the scenario driver: every experiment behind one CLI over
// the algorithm and scenario registries (workload/registry.hpp).
//
//   secbench --list
//   secbench fig2 --algos SEC,TRB --threads 1,4,16 --csv out.csv
//   secbench all --smoke
//
// Defaults layer over EnvConfig, so the SEC_BENCH_* environment knobs (and
// SEC_BENCH_PAPER=1) keep working; explicit flags win over the environment.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/sharded_stack.hpp"
#include "exec/topology.hpp"
#include "workload/bench_json.hpp"
#include "workload/registry.hpp"
#include "workload/service.hpp"

namespace sb = sec::bench;

namespace {

int usage(std::FILE* out) {
    std::fprintf(out,
                 "usage:\n"
                 "  secbench --list\n"
                 "  secbench <scenario>... [options]\n"
                 "  secbench all [options]\n"
                 "options:\n"
                 "  --algos A,B,...    algorithm selection (default: the six "
                 "paper competitors)\n"
                 "  --threads 1,4,16   thread grid override\n"
                 "  --duration-ms N    measured window per data point\n"
                 "  --runs N           repetitions per data point\n"
                 "  --prefill N        nodes pushed before the window opens\n"
                 "  --value-range N    value universe for pushes\n"
                 "  --csv PATH         also write table,key,column,value "
                 "rows to PATH\n"
                 "  --seed N           base seed for per-worker op-mix RNGs "
                 "(reproducible runs)\n"
                 "  --reclaim SCHEME   run selected algorithms over this "
                 "reclamation scheme\n"
                 "                     (ebr default; hp / qsbr / leak pick "
                 "the ALGO@scheme variants)\n"
                 "  --sweep SPEC       SEC tuning-surface cross-product, "
                 "e.g. agg=1:5,backoff=0:4096\n"
                 "                     (runs the 'sweep' scenario; ranges "
                 "are lo:hi[:step], '+' unions\n"
                 "                     values, backoff doubles from 64ns "
                 "without a step)\n"
                 "  --shards K         pin the 'sharding' scenario to one "
                 "shard count\n"
                 "  --load KOPS        offered load in Kops/s for the "
                 "'service' scenario\n"
                 "                     (and the 'knee' search's starting "
                 "probe)\n"
                 "  --arrival KIND     arrival process for 'service'/'knee': "
                 "poisson | burst\n"
                 "  --port N           'net_service': target an already-"
                 "running secserve on\n"
                 "                     127.0.0.1:N instead of an in-process "
                 "server\n"
                 "  --pin POLICY       worker placement: none | compact | "
                 "scatter | smt\n"
                 "                     (topology-aware cpu pinning; "
                 "best-effort where\n"
                 "                     affinity is restricted — see "
                 "DESIGN.md §13)\n"
                 "  --scenario NAME    alias for the positional scenario "
                 "argument\n"
                 "  --json PATH        write a BENCH_*.json perf snapshot "
                 "(every cell + run\n"
                 "                     metadata; REPRODUCING.md documents "
                 "the schema)\n"
                 "  --baseline PATH    re-run the pinned config a snapshot "
                 "records and compare\n"
                 "                     per cell (median-of-N + scale "
                 "normalization); exit 1 on\n"
                 "                     regressions beyond tolerance\n"
                 "  --repeats N        snapshot repetitions for the "
                 "median-of-N noise guard\n"
                 "                     (default 1; --baseline defaults to "
                 "the baseline's count)\n"
                 "  --tolerance PCT    gate width for --baseline, percent "
                 "(default 10)\n"
                 "  --smoke            tiny smoke preset (25 ms, 2 threads, 1 "
                 "run)\n"
                 "  --paper            the paper's 5 s x 5-run methodology\n"
                 "environment: SEC_BENCH_DURATION_MS / _RUNS / _THREADS / "
                 "_PREFILL / _VALUE_RANGE / _SEED / _RECLAIM / _SHARDS / "
                 "_LOAD / _ARRIVAL / _PORT / _PIN / _COUNTERS / "
                 "_PAPER\n");
    return out == stderr ? 2 : 0;
}

int list_registries() {
    std::printf("scenarios:\n");
    for (const sb::ScenarioSpec* s : sb::ScenarioRegistry::instance().all()) {
        std::printf("  %-18s %s\n", s->name.c_str(), s->title.c_str());
    }
    std::printf("algorithms:\n");
    for (const sb::AlgoSpec* a : sb::AlgorithmRegistry::instance().all()) {
        const std::string_view shape = sec::shape_name(a->shape);
        std::printf("  %-18s %-9s %s%s\n", a->name.c_str(),
                    std::string(shape).c_str(), a->description.c_str(),
                    a->default_set ? "" : " [extra]");
    }
    std::printf("reclaimers (--reclaim):\n");
    for (const sb::ReclaimerSpec* r : sb::ReclaimerRegistry::instance().all()) {
        std::printf("  %-18s %s\n", r->name.c_str(), r->description.c_str());
    }
    std::printf(
        "net env: SEC_BENCH_PORT (net_service/secserve target port; 0 or\n"
        "unset = in-process server on an ephemeral port)\n");
    return 0;
}

// Strict parse of a --shards / SEC_BENCH_SHARDS value: a typo must not
// silently fall back to a different experiment (the sweep engine's loud
// clamp warning is the precedent). Returns 0 on garbage or out-of-range.
unsigned parse_shards(const char* value) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(value, &end, 10);
    if (end == value || *end != '\0' || parsed == 0 ||
        parsed > sec::shard::kMaxShards) {
        return 0;
    }
    return static_cast<unsigned>(parsed);
}

std::vector<std::string> split_csv(const char* arg) {
    std::vector<std::string> out;
    std::string cur;
    for (const char* p = arg; ; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!cur.empty()) out.push_back(cur);
            cur.clear();
            if (*p == '\0') break;
        } else if (*p != ' ') {
            cur += *p;
        }
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::string> scenarios;
    std::vector<std::string> algo_names;
    const char* csv_path = nullptr;
    const char* json_path = nullptr;
    const char* baseline_path = nullptr;
    unsigned repeats = 0;      // 0 = default (1, or the baseline's count)
    double tolerance = 10.0;   // --baseline gate width, percent
    const char* reclaim_scheme = nullptr;
    const char* sweep_spec = nullptr;
    unsigned shards = 0;
    double load_kops = 0;
    const char* arrival = nullptr;
    long long port = -1;  // -1 = not given (0 is a valid "in-process" value)
    const char* pin = nullptr;
    bool smoke = false;
    bool run_all = false;

    // Flags that override EnvConfig after it loads (0 / empty = not given).
    unsigned duration_ms = 0, runs = 0;
    long long prefill = -1, value_range = -1;
    long long seed = -1;
    std::vector<unsigned> thread_grid;

    auto next_value = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "secbench: %s needs a value\n", flag);
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            return usage(stdout);
        } else if (std::strcmp(arg, "--list") == 0) {
            return list_registries();
        } else if (std::strcmp(arg, "--algos") == 0) {
            algo_names = split_csv(next_value(i, arg));
        } else if (std::strcmp(arg, "--threads") == 0) {
            for (const std::string& s : split_csv(next_value(i, arg))) {
                const unsigned long v = std::strtoul(s.c_str(), nullptr, 10);
                if (v > 0) thread_grid.push_back(static_cast<unsigned>(v));
            }
        } else if (std::strcmp(arg, "--duration-ms") == 0) {
            duration_ms = static_cast<unsigned>(
                std::strtoul(next_value(i, arg), nullptr, 10));
        } else if (std::strcmp(arg, "--runs") == 0) {
            runs = static_cast<unsigned>(
                std::strtoul(next_value(i, arg), nullptr, 10));
        } else if (std::strcmp(arg, "--prefill") == 0) {
            prefill = std::strtoll(next_value(i, arg), nullptr, 10);
        } else if (std::strcmp(arg, "--value-range") == 0) {
            value_range = std::strtoll(next_value(i, arg), nullptr, 10);
        } else if (std::strcmp(arg, "--csv") == 0) {
            csv_path = next_value(i, arg);
        } else if (std::strcmp(arg, "--json") == 0) {
            json_path = next_value(i, arg);
        } else if (std::strcmp(arg, "--baseline") == 0) {
            baseline_path = next_value(i, arg);
        } else if (std::strcmp(arg, "--repeats") == 0) {
            // Strict like --shards: a typo must not silently collapse the
            // noise guard to a single run.
            const char* value = next_value(i, arg);
            char* end = nullptr;
            const unsigned long parsed = std::strtoul(value, &end, 10);
            if (end == value || *end != '\0' || parsed == 0 ||
                parsed > 1000) {
                std::fprintf(stderr,
                             "secbench: --repeats '%s' must be an integer "
                             "in [1, 1000]\n",
                             value);
                return 2;
            }
            repeats = static_cast<unsigned>(parsed);
        } else if (std::strcmp(arg, "--tolerance") == 0) {
            const char* value = next_value(i, arg);
            char* end = nullptr;
            tolerance = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(tolerance >= 0)) {
                std::fprintf(stderr,
                             "secbench: --tolerance '%s' must be a "
                             "non-negative percent value\n",
                             value);
                return 2;
            }
        } else if (std::strcmp(arg, "--seed") == 0) {
            seed = std::strtoll(next_value(i, arg), nullptr, 10);
        } else if (std::strcmp(arg, "--reclaim") == 0) {
            reclaim_scheme = next_value(i, arg);
        } else if (std::strcmp(arg, "--sweep") == 0) {
            sweep_spec = next_value(i, arg);
        } else if (std::strcmp(arg, "--shards") == 0) {
            const char* value = next_value(i, arg);
            shards = parse_shards(value);
            if (shards == 0) {
                std::fprintf(stderr,
                             "secbench: --shards '%s' must be an integer in "
                             "[1, %zu]\n",
                             value, sec::shard::kMaxShards);
                return 2;
            }
        } else if (std::strcmp(arg, "--load") == 0) {
            // Strict like --shards: a mistyped load must not silently run
            // the scenario's default offered load instead.
            const char* value = next_value(i, arg);
            char* end = nullptr;
            load_kops = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(load_kops > 0)) {
                std::fprintf(stderr,
                             "secbench: --load '%s' must be a positive "
                             "Kops/s value\n",
                             value);
                return 2;
            }
        } else if (std::strcmp(arg, "--port") == 0) {
            // Strict like --shards: a typo must not silently swing between
            // remote and in-process measurement.
            const char* value = next_value(i, arg);
            char* end = nullptr;
            const long long parsed = std::strtoll(value, &end, 10);
            if (end == value || *end != '\0' || parsed < 0 ||
                parsed > 65535) {
                std::fprintf(stderr,
                             "secbench: --port '%s' must be an integer in "
                             "[0, 65535]\n",
                             value);
                return 2;
            }
            port = parsed;
        } else if (std::strcmp(arg, "--pin") == 0) {
            // Strict like --shards: a typo must not silently run unpinned
            // and masquerade as a placement measurement.
            pin = next_value(i, arg);
            if (!sec::topo::parse_pin_policy(pin)) {
                std::fprintf(stderr,
                             "secbench: --pin '%s' must be none, compact, "
                             "scatter, or smt\n",
                             pin);
                return 2;
            }
        } else if (std::strcmp(arg, "--arrival") == 0) {
            arrival = next_value(i, arg);
            if (!sb::parse_arrival(arrival)) {
                std::fprintf(stderr,
                             "secbench: --arrival '%s' must be poisson or "
                             "burst\n",
                             arrival);
                return 2;
            }
        } else if (std::strcmp(arg, "--scenario") == 0) {
            // True alias for the positional form — including `all`.
            const char* name = next_value(i, arg);
            if (std::strcmp(name, "all") == 0) {
                run_all = true;
            } else {
                scenarios.push_back(name);
            }
        } else if (std::strcmp(arg, "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(arg, "--paper") == 0) {
            setenv("SEC_BENCH_PAPER", "1", 1);
        } else if (std::strcmp(arg, "all") == 0) {
            run_all = true;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "secbench: unknown option '%s'\n", arg);
            return usage(stderr);
        } else {
            scenarios.push_back(arg);
        }
    }
    // --sweep SPEC implies the sweep scenario when none was named (so
    // `secbench --sweep agg=1:5,backoff=0:4096` just works); with explicit
    // scenarios it only parameterizes a `sweep` among them.
    if (sweep_spec != nullptr && scenarios.empty() && !run_all) {
        scenarios.push_back("sweep");
    }
    if (!run_all && scenarios.empty() && baseline_path == nullptr) {
        return usage(stderr);
    }

    sb::ScenarioContext ctx;
    ctx.env = sb::EnvConfig::load();
    ctx.smoke = smoke;
    if (sweep_spec != nullptr) ctx.sweep_spec = sweep_spec;
    if (shards == 0) {
        if (const char* env_shards = std::getenv("SEC_BENCH_SHARDS")) {
            shards = parse_shards(env_shards);
            if (shards == 0 && *env_shards != '\0') {
                // Environment garbage is a warning, not an error — the
                // lenient contract every other SEC_BENCH_* knob follows.
                std::fprintf(stderr,
                             "secbench: ignoring SEC_BENCH_SHARDS='%s' (not "
                             "an integer in [1, %zu])\n",
                             env_shards, sec::shard::kMaxShards);
            }
        }
    }
    ctx.shards = shards;
    if (load_kops == 0) {
        if (const char* env_load = std::getenv("SEC_BENCH_LOAD")) {
            char* end = nullptr;
            const double parsed = std::strtod(env_load, &end);
            if (end != env_load && *end == '\0' && parsed > 0) {
                load_kops = parsed;
            } else if (*env_load != '\0') {
                // Environment garbage is a warning, not an error — the
                // lenient contract every other SEC_BENCH_* knob follows.
                std::fprintf(stderr,
                             "secbench: ignoring SEC_BENCH_LOAD='%s' (not a "
                             "positive Kops/s value)\n",
                             env_load);
            }
        }
    }
    ctx.load_kops = load_kops;
    if (arrival == nullptr) {
        if (const char* env_arrival = std::getenv("SEC_BENCH_ARRIVAL")) {
            if (sb::parse_arrival(env_arrival)) {
                arrival = env_arrival;
            } else if (*env_arrival != '\0') {
                std::fprintf(stderr,
                             "secbench: ignoring SEC_BENCH_ARRIVAL='%s' "
                             "(poisson or burst)\n",
                             env_arrival);
            }
        }
    }
    if (arrival != nullptr) ctx.arrival = arrival;
    // SEC_BENCH_PORT already sits in ctx.env (strict parsing with a loud
    // warning in EnvConfig::load); the flag overrides.
    if (port >= 0) ctx.env.port = static_cast<unsigned>(port);
    if (smoke) {
        // Tiny budget: every scenario exercised, nothing measured seriously.
        ctx.env.duration_ms = 25;
        ctx.env.runs = 1;
        ctx.env.threads = {2};
        ctx.env.prefill = std::min<std::size_t>(ctx.env.prefill, 1000);
    }
    // --baseline: re-run the pinned configuration the snapshot records —
    // scenario list, algorithm selection, and the effective EnvConfig — so
    // the compare is like-for-like by construction. Explicit flags given
    // alongside still win (they are applied below).
    sb::json::Snapshot baseline;
    if (baseline_path != nullptr) {
        std::string err;
        if (!sb::json::read_snapshot(baseline_path, baseline, &err)) {
            std::fprintf(stderr, "secbench: cannot read baseline '%s': %s\n",
                         baseline_path, err.c_str());
            return 2;
        }
        if (scenarios.empty() && !run_all) {
            scenarios = split_csv(baseline.meta.scenarios.c_str());
            if (scenarios.empty()) {
                std::fprintf(stderr,
                             "secbench: baseline '%s' names no scenarios and "
                             "none were given\n",
                             baseline_path);
                return 2;
            }
        }
        if (algo_names.empty() && !baseline.meta.algos.empty()) {
            algo_names = split_csv(baseline.meta.algos.c_str());
        }
        if (reclaim_scheme == nullptr && !baseline.meta.reclaim.empty()) {
            reclaim_scheme = baseline.meta.reclaim.c_str();
        }
        ctx.smoke = smoke || baseline.meta.smoke;
        if (baseline.meta.duration_ms > 0) {
            ctx.env.duration_ms = baseline.meta.duration_ms;
        }
        if (baseline.meta.runs > 0) ctx.env.runs = baseline.meta.runs;
        if (!baseline.meta.threads.empty()) {
            ctx.env.threads = baseline.meta.threads;
        }
        ctx.env.prefill = baseline.meta.prefill;
        if (baseline.meta.value_range > 0) {
            ctx.env.value_range = baseline.meta.value_range;
        }
        ctx.env.seed = baseline.meta.seed;
        if (!baseline.meta.pin.empty()) ctx.env.pin = baseline.meta.pin;
        if (repeats == 0) repeats = std::max(1u, baseline.meta.repeats);
    }
    if (pin != nullptr) ctx.env.pin = pin;
    if (duration_ms > 0) ctx.env.duration_ms = duration_ms;
    if (runs > 0) ctx.env.runs = runs;
    if (prefill >= 0) ctx.env.prefill = static_cast<std::size_t>(prefill);
    if (value_range > 0) {
        ctx.env.value_range = static_cast<std::size_t>(value_range);
    }
    if (seed >= 0) ctx.env.seed = static_cast<std::uint64_t>(seed);
    if (!thread_grid.empty()) {
        // Same live-thread bound the environment path applies in
        // EnvConfig::load — a warned clamp, not a silent rewrite.
        sb::clamp_thread_grid(thread_grid, "--threads");
        ctx.env.threads = thread_grid;
    }

    auto& algo_reg = sb::AlgorithmRegistry::instance();
    if (algo_names.empty()) {
        ctx.algos = algo_reg.default_set();
    } else {
        for (const std::string& name : algo_names) {
            const sb::AlgoSpec* spec = algo_reg.find(name);
            if (spec == nullptr) {
                std::fprintf(stderr,
                             "secbench: unknown algorithm '%s'; available: %s\n",
                             name.c_str(), algo_reg.names_csv().c_str());
                return 2;
            }
            ctx.algos.push_back(spec);
        }
    }

    // --reclaim SCHEME (or SEC_BENCH_RECLAIM): rebind the selection to the
    // ALGO@scheme variants. "ebr" is the plain names' built-in binding, so
    // it leaves the selection (and thus all scenario keys) untouched.
    if (reclaim_scheme == nullptr) {
        reclaim_scheme = std::getenv("SEC_BENCH_RECLAIM");
    }
    if (reclaim_scheme != nullptr && *reclaim_scheme != '\0') {
        auto& rec_reg = sb::ReclaimerRegistry::instance();
        if (rec_reg.find(reclaim_scheme) == nullptr) {
            std::fprintf(stderr,
                         "secbench: unknown reclaimer '%s'; available: %s\n",
                         reclaim_scheme, rec_reg.names_csv().c_str());
            return 2;
        }
        std::vector<const sb::AlgoSpec*> mapped;
        for (const sb::AlgoSpec* spec : ctx.algos) {
            // A registered variant IS that scheme's binding whether or not
            // it can also borrow an external DomainHandle — the sharded
            // variants keep per-shard private domains (supports_domain is
            // false) yet still compose with --reclaim.
            const sb::AlgoSpec* variant =
                algo_reg.find_variant(spec->base, reclaim_scheme);
            if (variant != nullptr) {
                // Distinct selections can map to one variant (SEC,SEC@hp
                // --reclaim hp); run it once, not per alias.
                if (std::find(mapped.begin(), mapped.end(), variant) ==
                    mapped.end()) {
                    mapped.push_back(variant);
                }
            } else {
                std::fprintf(stderr,
                             "secbench: %s has no '%s' variant; dropping "
                             "it from the selection\n",
                             spec->name.c_str(), reclaim_scheme);
            }
        }
        if (mapped.empty()) {
            std::fprintf(stderr,
                         "secbench: no selected algorithm supports "
                         "--reclaim %s\n",
                         reclaim_scheme);
            return 2;
        }
        ctx.algos = std::move(mapped);
        ctx.reclaim = reclaim_scheme;
    }

    // A shape-mixed selection benchmarks apples against oranges — a LIFO
    // and a FIFO structure do different work per operation — so refuse it
    // loudly instead of printing a table that invites the comparison.
    // `unordered` (POOL) composes with either shape: dropping order is the
    // documented point of the ablation_pool comparison. Checked after the
    // --reclaim rebinding so the FINAL selection is what is judged.
    {
        std::string lifo_names, fifo_names;
        for (const sb::AlgoSpec* spec : ctx.algos) {
            std::string* bucket =
                spec->shape == sec::ContainerShape::lifo   ? &lifo_names
                : spec->shape == sec::ContainerShape::fifo ? &fifo_names
                                                           : nullptr;
            if (bucket == nullptr) continue;
            if (!bucket->empty()) *bucket += ',';
            *bucket += spec->name;
        }
        if (!lifo_names.empty() && !fifo_names.empty()) {
            std::fprintf(stderr,
                         "secbench: --algos mixes shapes within one scenario "
                         "run: lifo {%s} vs fifo {%s}. A cross-shape table "
                         "is apples against oranges — pick one shape per "
                         "invocation (see `secbench --list`)\n",
                         lifo_names.c_str(), fifo_names.c_str());
            return 2;
        }
    }

    if (run_all) {
        scenarios.clear();
        for (const sb::ScenarioSpec* s : sb::ScenarioRegistry::instance().all()) {
            scenarios.push_back(s->name);
        }
    }

    // Every pass streams its rows to stdout and into a snapshot; the files
    // are written from the per-cell medians over `repeats` passes (the
    // noise guard). Without an output file there is nothing to median, so
    // one pass.
    const bool want_file = json_path != nullptr || csv_path != nullptr ||
                           baseline_path != nullptr;
    if (!want_file && repeats > 1) {
        std::fprintf(stderr,
                     "secbench: --repeats has no effect without --json, "
                     "--csv or --baseline\n");
    }
    const unsigned reps = want_file ? std::max(1u, repeats) : 1;
    int rc = 0;
    sb::json::Snapshot current = sb::run_scenarios(scenarios, ctx, reps, rc);

    if (csv_path != nullptr) {
        std::string err;
        if (!sb::json::write_snapshot_csv(current, csv_path, &err)) {
            std::fprintf(stderr, "secbench: %s\n", err.c_str());
            if (rc == 0) rc = 2;
        }
    }
    if (json_path != nullptr || baseline_path != nullptr) {
        sb::json::Metadata meta = sb::json::build_metadata();
        auto join = [](const auto& items, auto&& name_of) {
            std::string out;
            for (const auto& item : items) {
                if (!out.empty()) out += ',';
                out += name_of(item);
            }
            return out;
        };
        meta.scenarios =
            join(scenarios, [](const std::string& s) { return s; });
        meta.algos =
            join(ctx.algos, [](const sb::AlgoSpec* a) { return a->name; });
        meta.reclaim = ctx.reclaim;
        meta.smoke = ctx.smoke;
        meta.threads = ctx.env.threads;
        meta.duration_ms = ctx.env.duration_ms;
        meta.runs = ctx.env.runs;
        meta.repeats = reps;
        meta.prefill = ctx.env.prefill;
        meta.value_range = ctx.env.value_range;
        meta.seed = ctx.env.seed;
        meta.pin = ctx.env.pin.empty() ? "none" : ctx.env.pin;
        current.meta = std::move(meta);

        if (json_path != nullptr) {
            std::string err;
            if (sb::json::write_snapshot(current, json_path, &err)) {
                std::fprintf(stderr, "# wrote %zu cells to %s\n",
                             current.cells.size(), json_path);
            } else {
                std::fprintf(stderr, "secbench: %s\n", err.c_str());
                if (rc == 0) rc = 2;
            }
        }
        if (baseline_path != nullptr) {
            // Topology drift warns but never fails: the compare already
            // scale-normalizes cross-machine speed, but a shape change
            // (socket count, SMT, pin policy) is context every surprising
            // per-cell delta needs.
            const std::string drift =
                sb::json::topology_mismatch(baseline.meta, current.meta);
            if (!drift.empty()) {
                std::fprintf(stderr,
                             "secbench: warning: baseline topology differs "
                             "from this host: %s (refresh the snapshot here "
                             "to silence; see REPRODUCING.md §6)\n",
                             drift.c_str());
            }
            const sb::json::CompareResult cmp =
                sb::json::compare(baseline, current, tolerance);
            sb::json::print_compare(cmp, stdout);
            if (!cmp.ok() && rc == 0) rc = 1;
        }
    }
    return rc;
}
