// report.hpp — how a perfbench run reports: a human-readable table of every
// metric (name, value, unit, sample count, or "missing: <reason>"), the run
// identity, and the one-line JSON result the last line of stdout carries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;  // 0 = a count or a ratio, not a sample
    std::string missing;        // non-empty: not measured, and why
};

class Report {
public:
    // `name` must be one of the metrics BENCHMARK.json declares; its unit
    // comes from the same table (report.cpp).
    void add(const std::string& name, double value, std::uint64_t samples = 0);
    // A metric that could not be measured on this workload or host. It is
    // still emitted, never dropped: "missing: <reason>" in the table, value
    // 0 in the result line.
    void add_missing(const std::string& name, std::string reason);
    // Free-form validity notes printed with the table ("window 3 invalid").
    void note(std::string line);

    void fail(std::string reason);  // a correctness failure
    bool correct() const noexcept { return failures_.empty(); }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    // Table, notes, failures, then the JSON result as the last line.
    void print(const RunOptions& opts) const;

private:
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
    std::vector<std::string> failures_;
};

// Host fingerprint + build facts + seed, as one JSON object: results from
// different topologies or builds must never be compared with each other.
std::string run_identity_json(const RunOptions& opts);

// process-wide getrusage(RUSAGE_SELF) or the calling thread's
// (RUSAGE_THREAD) CPU and context-switch counters.
struct Usage {
    double user_s = 0.0;
    double sys_s = 0.0;
    std::uint64_t ctx_switches = 0;
    double cpu_s() const noexcept { return user_s + sys_s; }
};
Usage usage_self();
Usage usage_thread();
Usage operator-(const Usage& a, const Usage& b);
Usage operator+(const Usage& a, const Usage& b);

// Peak resident memory over the benchmark's own buffers. Construct it once
// those are resident: the baseline is the resident size (VmRSS) then, and
// peak_mib() is the process's high-water mark (VmHWM) minus the baseline.
// Read it during the process's first set-up: what later set-ups add
// depends on what malloc kept of the ones before, in steps of a whole
// prefill.
class RssPeak {
public:
    RssPeak();
    double peak_mib() const;

private:
    double base_kib_;
};

// perf_event_open of a hardware cycle counter on the calling thread: empty
// when it opens, else the errno name ("ENOENT" on a host without a PMU).
std::string hw_counter_unavailable_reason();

}  // namespace perfbench
