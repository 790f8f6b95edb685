#include "report.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "exec/topology.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// Every metric a run can print, with its unit: the end-to-end and per-layer
// sets of BENCHMARK.json.
constexpr std::pair<const char*, const char*> kUnits[] = {
    {"setup_s", "s"},
    {"throughput_mops", "Mops/s"},
    {"sojourn_p50_us", "us"},
    {"served_knee_kops", "Kops/s"},
    {"peak_rss_mb", "MiB"},
    {"op_p50_ns", "ns"},
    {"op_p99_ns", "ns"},
    {"sojourn_p99_us", "us"},
    {"core.agg.batch_degree", "ops/batch"},
    {"core.agg.elim_share", "fraction"},
    {"core.agg.batches_per_kop", "1/kop"},
    {"core.push_ns_p50", "ns"},
    {"core.push_ns_p99", "ns"},
    {"core.pop_ns_p50", "ns"},
    {"core.pop_ns_p99", "ns"},
    {"core.self_ns_per_op", "ns"},
    {"alloc.allocs_per_op", "count/op"},
    {"alloc.frees_per_op", "count/op"},
    {"alloc.ns_per_op", "ns"},
    {"reclaim.retired_per_op", "count/op"},
    {"reclaim.freed_share", "fraction"},
    {"reclaim.limbo_hwm", "nodes"},
    {"reclaim.drain_ms", "ms"},
    {"exec.pool_start_ms", "ms"},
    {"exec.pinned_workers", "count"},
    {"exec.cpu_util", "fraction"},
    {"exec.ctx_switches_per_kop", "1/kop"},
    {"exec.cycles_per_op", "cycles/op"},
    {"net.server_batch_degree", "req/batch"},
    {"net.rtt_p50_us", "us"},
    {"net.rtt_p99_us", "us"},
    {"net.encode_ns", "ns"},
    {"net.decode_ns", "ns"},
    {"net.cpu_us_per_req", "us"},
    {"net.sys_share", "fraction"},
    {"loadgen.lag_p99_us", "us"},
    {"trace.overhead_pct", "%"},
    {"failed_frac", "fraction"},
};

std::string unit_of(const std::string& name) {
    for (const auto& [n, u] : kUnits) {
        if (name == n) return u;
    }
    throw std::logic_error("perfbench: undeclared metric " + name);
}

Usage from_rusage(const rusage& ru) {
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
    return u;
}

// A "<field>: <n> kB" line of /proc/self/status (VmRSS, VmHWM), in KiB.
double status_kib(const std::string& field) {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
    const std::string format = field + ": %lf kB";
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, format.c_str(), &kib) == 1) break;
    }
    std::fclose(f);
    if (kib < 0) throw std::runtime_error("no " + field + " in /proc/self/status");
    return kib;
}

}  // namespace

void Report::add(const std::string& name, double value,
                 std::uint64_t samples) {
    metrics_.push_back({name, value, unit_of(name), samples, {}});
}

void Report::add_missing(const std::string& name, std::string reason) {
    metrics_.push_back({name, 0.0, unit_of(name), 0, std::move(reason)});
}

void Report::note(std::string line) { notes_.push_back(std::move(line)); }

void Report::fail(std::string reason) { failures_.push_back(std::move(reason)); }

void Report::print(const RunOptions& opts) const {
    std::printf("identity %s\n", run_identity_json(opts).c_str());
    for (const Metric& m : metrics_) {
        if (!m.missing.empty()) {
            std::printf("metric %-28s missing: %s\n", m.name.c_str(),
                        m.missing.c_str());
        } else if (m.samples > 0) {
            std::printf("metric %-28s %.6g %s (n=%llu)\n", m.name.c_str(),
                        m.value, m.unit.c_str(),
                        static_cast<unsigned long long>(m.samples));
        } else {
            std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
    }
    for (const std::string& n : notes_) std::printf("note %s\n", n.c_str());
    for (const std::string& f : failures_) {
        std::printf("FAILED %s\n", f.c_str());
    }

    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
        if (!first) json += ", ";
        first = false;
        // A missing metric reads 0 here; the table above gives the reason.
        json += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
                ", \"unit\": " + json_string(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

std::string run_identity_json(const RunOptions& opts) {
    const sec::topo::Topology& topo = sec::topo::Topology::system();
    std::string j = "{";
    j += "\"workload\": " + json_string(opts.workload);
    j += ", \"seed\": " + std::to_string(opts.seed);
    j += ", \"seconds\": " + json_number(opts.seconds);
    j += ", \"trace\": " + std::string(opts.trace ? "1" : "0");
    j += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    j += ", \"cpus\": " + std::to_string(topo.num_cpus());
    j += ", \"packages\": " + std::to_string(topo.packages());
    j += ", \"cores\": " + std::to_string(topo.cores());
    j += ", \"smt_width\": " + std::to_string(topo.smt_width());
    j += ", \"l3_domains\": " + std::to_string(topo.l3_domains());
    j += ", \"topology_synthetic\": " +
         std::string(topo.synthetic() ? "true" : "false");
    j += ", \"pin\": \"compact\"";
    j += ", \"compiler\": " + json_string(__VERSION__);
    j += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
    j += ", \"git_sha\": " + json_string(opts.git_sha);
    j += ", \"source_digest\": " + json_string(opts.source_digest);
    return j + "}";
}

Usage usage_self() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return from_rusage(ru);
}

Usage usage_thread() {
    rusage ru{};
    ::getrusage(RUSAGE_THREAD, &ru);
    return from_rusage(ru);
}

Usage operator+(const Usage& a, const Usage& b) {
    Usage d;
    d.user_s = a.user_s + b.user_s;
    d.sys_s = a.sys_s + b.sys_s;
    d.ctx_switches = a.ctx_switches + b.ctx_switches;
    return d;
}

Usage operator-(const Usage& a, const Usage& b) {
    Usage d;
    d.user_s = a.user_s - b.user_s;
    d.sys_s = a.sys_s - b.sys_s;
    d.ctx_switches = a.ctx_switches - b.ctx_switches;
    return d;
}

RssPeak::RssPeak() : base_kib_(status_kib("VmRSS")) {}

double RssPeak::peak_mib() const {
    return (status_kib("VmHWM") - base_kib_) / 1024.0;
}

std::string hw_counter_unavailable_reason() {
    perf_event_attr attr{};
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof attr;
    attr.config = PERF_COUNT_HW_CPU_CYCLES;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    const long fd = ::syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
    if (fd >= 0) {
        ::close(static_cast<int>(fd));
        return {};
    }
    const int err = errno;
    const char* name = strerrorname_np(err);
    return name != nullptr ? name : std::to_string(err);
}

}  // namespace perfbench
