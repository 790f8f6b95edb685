// cli.hpp — command line, dispatch and exit code of a perfbench binary,
// templated over the container so the seeded-bug test runs the very same
// program over a broken one.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--git-sha SHA] [--source-digest HEX]
//
// Exit 0: the run finished and every correctness check held. Exit 1: a
// check failed (the result line still says what was measured). Exit 2: bad
// arguments; exit 3: the run could not be carried out. Neither 2 nor 3
// prints a result line.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <type_traits>

#include "common.hpp"
#include "lifo.hpp"
#include "report.hpp"
#include "served.hpp"
#include "trace.hpp"

namespace perfbench {

inline bool parse_args(int argc, char** argv, RunOptions& o) {
    auto number = [](const std::string& v, auto& out) {
        char* end = nullptr;
        const double d = std::strtod(v.c_str(), &end);
        if (v.empty() || *end != '\0' || !(d >= 0)) return false;
        out = static_cast<std::remove_reference_t<decltype(out)>>(d);
        return true;
    };
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i], v = argv[i + 1];
        bool ok = true;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            ok = number(v, o.seed);
        } else if (a == "--seconds") {
            ok = number(v, o.seconds) && o.seconds > 0 && o.seconds <= 600;
        } else if (a == "--trace") {
            ok = v == "0" || v == "1";
            o.trace = v == "1";
        } else if (a == "--trace-out") {
            o.trace_out = v;
        } else if (a == "--git-sha") {
            o.git_sha = v;
        } else if (a == "--source-digest") {
            o.source_digest = v;
        } else {
            std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
            return false;
        }
        if (!ok) {
            std::fprintf(stderr, "perfbench: bad value '%s' for %s\n",
                         v.c_str(), a.c_str());
            return false;
        }
    }
    if (argc % 2 == 0) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", argv[argc - 1]);
        return false;
    }
    if (o.workload != kLifoMixed && o.workload != kLifoFillDrain &&
        o.workload != kServedLoopback) {
        std::fprintf(stderr, "perfbench: --workload must be %s, %s or %s\n",
                     kLifoMixed, kLifoFillDrain, kServedLoopback);
        return false;
    }
    return true;
}

template <class Stack>
int run_main(int argc, char** argv) {
    RunOptions opts;
    if (!parse_args(argc, argv, opts)) return 2;
    Report report;
    try {
        const bool served = opts.workload == kServedLoopback;
        const bool fill_drain = opts.workload == kLifoFillDrain;
        if (!opts.trace) {
            if (served) {
                run_served<Stack>(opts, report);
            } else {
                run_lifo<Stack>(opts, fill_drain, report);
            }
        } else {
            trace::Recorder rec;
            if (served) {
                run_served_traced<Stack>(opts, report, rec);
            } else {
                run_lifo_traced<Stack>(opts, fill_drain, report, rec);
            }
            if (!opts.trace_out.empty()) {
                if (rec.write(opts.trace_out)) {
                    report.note("trace: " + std::to_string(rec.spans()) +
                                " spans written to " + opts.trace_out);
                } else {
                    report.note("trace: could not write " + opts.trace_out);
                }
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 3;
    }
    report.print(opts);
    return report.correct() ? 0 : 1;
}

}  // namespace perfbench
