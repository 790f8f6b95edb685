// common.hpp — clock, seeded RNG, the conservation oracle and order
// statistics shared by every perfbench workload.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

// splitmix64: the seed expander and the value mixer of the oracle.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

// Deterministic per-stream generator: the same (seed, stream) always yields
// the same sequence, so `--seed` fixes every input a run generates.
class Rng {
public:
    Rng(std::uint64_t seed, std::uint64_t stream) noexcept
        : s_(mix64(seed) ^ mix64(stream * 0xD1B54A32D192ED03ull + 1)) {}
    std::uint64_t next() noexcept { return mix64(s_++); }
    // Uniform in (0, 1].
    double unit() noexcept {
        return static_cast<double>((next() >> 11) + 1) * 0x1.0p-53;
    }

private:
    std::uint64_t s_;
};

// Order-free multiset digest: element count plus the wrapping sum of
// mix64(value). Pushed and popped sides of a run must agree exactly; a lost,
// duplicated or corrupted value changes the count or (with overwhelming
// probability) the sum.
struct Conservation {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    void add(std::uint64_t v) noexcept {
        ++count;
        sum += mix64(v);
    }
    void merge(const Conservation& o) noexcept {
        count += o.count;
        sum += o.sum;
    }
    bool operator==(const Conservation&) const = default;
};

// q-quantile (0 <= q <= 1) by nearest rank; reorders `v`. 0 for empty input.
template <class T>
double quantile(std::vector<T>& v, double q) {
    if (v.empty()) return 0.0;
    const std::size_t k = std::min(
        v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return static_cast<double>(v[k]);
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

// Give `v` room for n elements and make that memory resident now, before
// the RSS baseline is taken (report.hpp): peak_rss_mb then counts what the
// system under test grows, not the benchmark's own buffers.
template <class T>
void prefault(std::vector<T>& v, std::size_t n) {
    v.assign(n, T{});
    v.clear();
}

// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 40;

// Workload names are fixed: later changes cite them.
inline constexpr const char* kLifoMixed = "lifo_mixed";
inline constexpr const char* kLifoFillDrain = "lifo_fill_drain";
inline constexpr const char* kServedLoopback = "served_loopback";

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;    // span file written at exit of a traced run
    std::string git_sha = "unknown";
    std::string source_digest = "unknown";
};

}  // namespace perfbench
