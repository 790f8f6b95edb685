// env.cpp — EnvConfig::load and the bench preamble.
#include "workload/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/common.hpp"
#include "exec/topology.hpp"

namespace sec::bench {
namespace {

const char* get_env(const char* name) { return std::getenv(name); }

// Strict digits-only parse. Returns false on empty input, signs, spaces, or
// trailing junk — "abc" must not read as 0 and "2OO" must not read as 2,
// which is what a bare strtoul gave these knobs for five PRs.
bool parse_u64_strict(const char* v, std::uint64_t& out) {
    if (v == nullptr || *v == '\0') return false;
    if (!std::isdigit(static_cast<unsigned char>(v[0]))) return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0' || errno == ERANGE) return false;
    out = parsed;
    return true;
}

unsigned env_unsigned(const char* name, unsigned fallback) {
    const char* v = get_env(name);
    if (v == nullptr || *v == '\0') return fallback;
    std::uint64_t parsed = 0;
    if (!parse_u64_strict(v, parsed) ||
        parsed > std::uint64_t{0xFFFFFFFFull}) {
        std::fprintf(stderr,
                     "secbench: ignoring %s='%s' (not an unsigned integer); "
                     "using %u\n",
                     name, v, fallback);
        return fallback;
    }
    return static_cast<unsigned>(parsed);
}

std::size_t env_size(const char* name, std::size_t fallback) {
    const char* v = get_env(name);
    if (v == nullptr || *v == '\0') return fallback;
    std::uint64_t parsed = 0;
    if (!parse_u64_strict(v, parsed)) {
        std::fprintf(stderr,
                     "secbench: ignoring %s='%s' (not an unsigned integer); "
                     "using %zu\n",
                     name, v, fallback);
        return fallback;
    }
    return static_cast<std::size_t>(parsed);
}

// Whole-grid-or-nothing parse of a comma/space-separated thread grid: one
// bad token rejects the grid with a warning (the caller keeps its previous
// grid), because silently dropping the tail of "4,8,x16" used to run a
// different experiment than the one the user asked for.
std::vector<unsigned> parse_grid(const char* name, const char* csv) {
    std::vector<unsigned> grid;
    std::string token;
    auto flush = [&]() -> bool {
        if (token.empty()) return true;
        std::uint64_t v = 0;
        if (!parse_u64_strict(token.c_str(), v) || v == 0 ||
            v > std::uint64_t{0xFFFFFFFFull}) {
            std::fprintf(stderr,
                         "secbench: ignoring %s='%s' ('%s' is not a positive "
                         "integer); keeping the previous thread grid\n",
                         name, csv, token.c_str());
            return false;
        }
        grid.push_back(static_cast<unsigned>(v));
        token.clear();
        return true;
    };
    for (const char* p = csv;; ++p) {
        if (*p == ',' || *p == ' ' || *p == '\0') {
            if (!flush()) return {};
            if (*p == '\0') break;
        } else {
            token += *p;
        }
    }
    return grid;
}

}  // namespace

void clamp_thread_grid(std::vector<unsigned>& grid, const char* origin) {
    // Head-room of 8 below kMaxThreads for the coordinator, main, and
    // gtest-style environment threads that share the tid space with the
    // workers.
    const unsigned bound = static_cast<unsigned>(kMaxThreads) - 8;
    for (unsigned& t : grid) {
        if (t > bound) {
            std::fprintf(stderr,
                         "secbench: clamping %s thread count %u to %u "
                         "(kMaxThreads=%zu minus harness head-room)\n",
                         origin, t, bound, kMaxThreads);
            t = bound;
        }
    }
}

EnvConfig EnvConfig::load() {
    EnvConfig cfg;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const bool paper = env_unsigned("SEC_BENCH_PAPER", 0) != 0;

    if (paper) {
        // Paper methodology: 5 s windows, 5 runs, grid up to the machine.
        cfg.duration_ms = 5000;
        cfg.runs = 5;
        for (unsigned t : {1u, 2u, 4u, 8u, 16u, 24u, 32u, 48u, 64u, 96u,
                           128u}) {
            if (t <= 2 * hw) cfg.threads.push_back(t);
        }
    } else {
        cfg.duration_ms = 200;
        cfg.runs = 1;
        cfg.threads = {2, 4, 8};
    }

    cfg.duration_ms = env_unsigned("SEC_BENCH_DURATION_MS", cfg.duration_ms);
    cfg.runs = std::max(1u, env_unsigned("SEC_BENCH_RUNS", cfg.runs));
    cfg.prefill = env_size("SEC_BENCH_PREFILL", cfg.prefill);
    cfg.value_range =
        std::max<std::size_t>(1, env_size("SEC_BENCH_VALUE_RANGE",
                                          cfg.value_range));
    cfg.seed = env_size("SEC_BENCH_SEED", cfg.seed);
    if (const char* grid = get_env("SEC_BENCH_THREADS")) {
        std::vector<unsigned> parsed = parse_grid("SEC_BENCH_THREADS", grid);
        if (!parsed.empty()) cfg.threads = std::move(parsed);
    }
    if (cfg.threads.empty()) cfg.threads = {2, 4, 8};
    clamp_thread_grid(cfg.threads, "SEC_BENCH_THREADS");

    // sec::net port. Same whole-value-or-nothing policy as the grids: a
    // port that isn't a clean integer in [0, 65535] warns loudly and keeps
    // the default — it must never silently connect elsewhere.
    if (const char* v = get_env("SEC_BENCH_PORT"); v != nullptr && *v) {
        std::uint64_t parsed = 0;
        if (!parse_u64_strict(v, parsed) || parsed > 65535) {
            std::fprintf(stderr,
                         "secbench: ignoring SEC_BENCH_PORT='%s' (not a port "
                         "in [0, 65535]); using %u\n",
                         v, cfg.port);
        } else {
            cfg.port = static_cast<unsigned>(parsed);
        }
    }
    if (const char* v = get_env("SEC_BENCH_PIN"); v != nullptr && *v) {
        if (!topo::parse_pin_policy(v)) {
            std::fprintf(stderr,
                         "secbench: ignoring SEC_BENCH_PIN='%s' (known "
                         "policies: none, compact, scatter, smt); running "
                         "unpinned\n",
                         v);
        } else {
            cfg.pin = v;
        }
    }
    cfg.counters = env_unsigned("SEC_BENCH_COUNTERS", 1) != 0;
    return cfg;
}

void print_preamble(std::string_view bench_name) {
    print_preamble(bench_name, EnvConfig::load());
}

void print_preamble(std::string_view bench_name, const EnvConfig& cfg) {
    std::string grid;
    for (unsigned t : cfg.threads) {
        if (!grid.empty()) grid += ',';
        grid += std::to_string(t);
    }
    std::fprintf(stderr,
                 "== %.*s ==\n"
                 "hw_threads=%u duration_ms=%u runs=%u prefill=%zu "
                 "value_range=%zu seed=%llu threads=[%s] pin=%s%s\n",
                 static_cast<int>(bench_name.size()), bench_name.data(),
                 std::thread::hardware_concurrency(), cfg.duration_ms,
                 cfg.runs, cfg.prefill, cfg.value_range,
                 static_cast<unsigned long long>(cfg.seed), grid.c_str(),
                 cfg.pin.empty() ? "none" : cfg.pin.c_str(),
                 env_unsigned("SEC_BENCH_PAPER", 0) ? " (paper mode)" : "");
}

}  // namespace sec::bench
