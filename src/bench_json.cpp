// bench_json.cpp — BENCH_*.json snapshot writer/parser and the baseline
// regression compare (workload/bench_json.hpp). The JSON layer is a
// deliberately small hand-rolled subset (objects, arrays, strings, numbers,
// bools, null) — enough for the schema this file owns, no dependency.
#include "workload/bench_json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <utility>

#include "exec/topology.hpp"

// Build facts injected per-source by CMake (see set_source_files_properties
// in CMakeLists.txt); the fallbacks keep non-CMake builds compiling.
#ifndef SEC_GIT_SHA
#define SEC_GIT_SHA "unknown"
#endif
#ifndef SEC_CXX_FLAGS
#define SEC_CXX_FLAGS ""
#endif
#ifndef SEC_BUILD_TYPE
#define SEC_BUILD_TYPE ""
#endif
#ifndef SEC_NATIVE_BUILD
#define SEC_NATIVE_BUILD 0
#endif

namespace sec::bench::json {

namespace {

// ---- writing ---------------------------------------------------------------

void append_escaped(std::string& out, std::string_view s) {
    out += '"';
    for (const char ch : s) {
        switch (ch) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(ch));
                    out += buf;
                } else {
                    out += ch;
                }
        }
    }
    out += '"';
}

// Shortest decimal that parses back to the exact double (snapshots are
// compared cell-for-cell across runs, so the file must not lose bits).
void append_double(std::string& out, double v) {
    if (!std::isfinite(v)) {  // JSON has no inf/nan; clamp to 0, loudly odd
        out += "0";
        return;
    }
    char buf[40];
    for (int prec = 9; prec <= 17; prec += 4) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v) break;
    }
    out += buf;
}

void append_kv(std::string& out, std::string_view key, std::string_view v) {
    append_escaped(out, key);
    out += ": ";
    append_escaped(out, v);
}

void append_kv(std::string& out, std::string_view key, double v) {
    append_escaped(out, key);
    out += ": ";
    append_double(out, v);
}

void append_kv(std::string& out, std::string_view key, bool v) {
    append_escaped(out, key);
    out += v ? ": true" : ": false";
}

bool write_file(const std::string& path, const std::string& text,
                std::string* err) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        if (err != nullptr) *err = "cannot open '" + path + "' for writing";
        return false;
    }
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    if (!ok && err != nullptr) *err = "short write to '" + path + "'";
    return ok;
}

// ---- parsing ---------------------------------------------------------------

struct JValue {
    enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
    Kind kind = kNull;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<JValue> arr;
    std::vector<std::pair<std::string, JValue>> obj;

    const JValue* get(std::string_view key) const noexcept {
        for (const auto& [k, v] : obj) {
            if (k == key) return &v;
        }
        return nullptr;
    }
};

class Parser {
public:
    Parser(std::string_view text, std::string* err)
        : p_(text.data()), end_(text.data() + text.size()), err_(err) {}

    bool parse(JValue& out) {
        skip_ws();
        if (!value(out)) return false;
        skip_ws();
        if (p_ != end_) return fail("trailing content after document");
        return true;
    }

private:
    bool fail(const char* msg) {
        if (err_ != nullptr && err_->empty()) *err_ = msg;
        return false;
    }

    void skip_ws() {
        while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                              *p_ == '\r')) {
            ++p_;
        }
    }

    bool literal(const char* word, std::size_t n) {
        if (end_ - p_ < static_cast<std::ptrdiff_t>(n) ||
            std::memcmp(p_, word, n) != 0) {
            return fail("bad literal");
        }
        p_ += n;
        return true;
    }

    bool value(JValue& out) {
        if (p_ == end_) return fail("unexpected end of document");
        switch (*p_) {
            case '{': return object(out);
            case '[': return array(out);
            case '"':
                out.kind = JValue::kString;
                return string(out.str);
            case 't':
                out.kind = JValue::kBool;
                out.b = true;
                return literal("true", 4);
            case 'f':
                out.kind = JValue::kBool;
                out.b = false;
                return literal("false", 5);
            case 'n':
                out.kind = JValue::kNull;
                return literal("null", 4);
            default: return number(out);
        }
    }

    bool object(JValue& out) {
        out.kind = JValue::kObject;
        ++p_;  // '{'
        skip_ws();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        for (;;) {
            skip_ws();
            std::string key;
            if (p_ == end_ || *p_ != '"' || !string(key)) {
                return fail("expected object key");
            }
            skip_ws();
            if (p_ == end_ || *p_ != ':') return fail("expected ':'");
            ++p_;
            skip_ws();
            JValue v;
            if (!value(v)) return false;
            out.obj.emplace_back(std::move(key), std::move(v));
            skip_ws();
            if (p_ == end_) return fail("unterminated object");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == '}') {
                ++p_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool array(JValue& out) {
        out.kind = JValue::kArray;
        ++p_;  // '['
        skip_ws();
        if (p_ != end_ && *p_ == ']') {
            ++p_;
            return true;
        }
        for (;;) {
            skip_ws();
            JValue v;
            if (!value(v)) return false;
            out.arr.push_back(std::move(v));
            skip_ws();
            if (p_ == end_) return fail("unterminated array");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == ']') {
                ++p_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool string(std::string& out) {
        ++p_;  // '"'
        while (p_ != end_) {
            const char ch = *p_++;
            if (ch == '"') return true;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (p_ == end_) break;
            const char esc = *p_++;
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    // Our writer only emits \u00XX control escapes; decode
                    // the Latin-1 range and substitute '?' beyond it rather
                    // than carrying a full UTF-16 decoder.
                    if (end_ - p_ < 4) return fail("truncated \\u escape");
                    char hex[5] = {p_[0], p_[1], p_[2], p_[3], '\0'};
                    char* endp = nullptr;
                    const unsigned long cp = std::strtoul(hex, &endp, 16);
                    if (endp != hex + 4) return fail("bad \\u escape");
                    out += cp < 0x100 ? static_cast<char>(cp) : '?';
                    p_ += 4;
                    break;
                }
                default: return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool number(JValue& out) {
        char* endp = nullptr;
        out.kind = JValue::kNumber;
        out.num = std::strtod(p_, &endp);
        if (endp == p_) return fail("expected a value");
        p_ = endp;
        return true;
    }

    const char* p_;
    const char* end_;
    std::string* err_;
};

// DOM field readers with defaulting — a missing optional field keeps the
// Metadata default instead of failing the whole parse (older snapshots stay
// readable as the schema grows).
std::string get_str(const JValue& obj, std::string_view key) {
    const JValue* v = obj.get(key);
    return v != nullptr && v->kind == JValue::kString ? v->str : std::string();
}
double get_num(const JValue& obj, std::string_view key, double dflt = 0) {
    const JValue* v = obj.get(key);
    return v != nullptr && v->kind == JValue::kNumber ? v->num : dflt;
}
bool get_bool(const JValue& obj, std::string_view key) {
    const JValue* v = obj.get(key);
    return v != nullptr && v->kind == JValue::kBool && v->b;
}

std::string cell_id(const Cell& c) {
    // '\x1f' (unit separator) cannot appear in scenario/table names.
    return c.table + '\x1f' + c.key + '\x1f' + c.column;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

}  // namespace

// ---- Snapshot --------------------------------------------------------------

void Snapshot::add(std::string_view table, std::string_view key,
                   std::string_view column, std::string_view unit,
                   double value) {
    cells.push_back(Cell{std::string(table), std::string(key),
                         std::string(column), std::string(unit), value});
}

const Cell* Snapshot::find(std::string_view table, std::string_view key,
                           std::string_view column) const noexcept {
    for (const Cell& c : cells) {
        if (c.table == table && c.key == key && c.column == column) return &c;
    }
    return nullptr;
}

Metadata build_metadata() {
    Metadata m;
    m.git_sha = SEC_GIT_SHA;
    m.flags = SEC_CXX_FLAGS;
    m.build_type = SEC_BUILD_TYPE;
    m.march_native = SEC_NATIVE_BUILD != 0;
#if defined(__clang__)
    m.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    m.compiler = std::string("gcc ") + __VERSION__;
#else
    m.compiler = "unknown";
#endif
    m.cores = std::thread::hardware_concurrency();
    const topo::Topology& t = topo::Topology::system();
    m.packages = t.packages();
    m.cores_per_package = t.cores_per_package();
    m.smt_width = t.smt_width();
    m.l3_domains = t.l3_domains();
    return m;
}

// ---- file IO ---------------------------------------------------------------

bool write_snapshot(const Snapshot& snap, const std::string& path,
                    std::string* err) {
    std::string out;
    out.reserve(1024 + snap.cells.size() * 96);
    out += "{\n  \"schema\": \"sec-bench-snapshot-v1\",\n  \"meta\": {\n";
    const Metadata& m = snap.meta;
    auto line = [&out](const char* text) { out += text; };
    out += "    ";
    append_kv(out, "git_sha", m.git_sha);
    line(",\n    ");
    append_kv(out, "compiler", m.compiler);
    line(",\n    ");
    append_kv(out, "flags", m.flags);
    line(",\n    ");
    append_kv(out, "build_type", m.build_type);
    line(",\n    ");
    append_kv(out, "march_native", m.march_native);
    line(",\n    ");
    append_kv(out, "cores", static_cast<double>(m.cores));
    line(",\n    ");
    append_kv(out, "packages", static_cast<double>(m.packages));
    line(",\n    ");
    append_kv(out, "cores_per_package",
              static_cast<double>(m.cores_per_package));
    line(",\n    ");
    append_kv(out, "smt_width", static_cast<double>(m.smt_width));
    line(",\n    ");
    append_kv(out, "l3_domains", static_cast<double>(m.l3_domains));
    line(",\n    ");
    append_kv(out, "pin", m.pin);
    line(",\n    ");
    append_kv(out, "scenarios", m.scenarios);
    line(",\n    ");
    append_kv(out, "algos", m.algos);
    line(",\n    ");
    append_kv(out, "reclaim", m.reclaim);
    line(",\n    ");
    append_kv(out, "smoke", m.smoke);
    line(",\n    ");
    append_escaped(out, "threads");
    out += ": [";
    for (std::size_t i = 0; i < m.threads.size(); ++i) {
        if (i > 0) out += ", ";
        append_double(out, static_cast<double>(m.threads[i]));
    }
    out += "]";
    line(",\n    ");
    append_kv(out, "duration_ms", static_cast<double>(m.duration_ms));
    line(",\n    ");
    append_kv(out, "runs", static_cast<double>(m.runs));
    line(",\n    ");
    append_kv(out, "repeats", static_cast<double>(m.repeats));
    line(",\n    ");
    append_kv(out, "prefill", static_cast<double>(m.prefill));
    line(",\n    ");
    append_kv(out, "value_range", static_cast<double>(m.value_range));
    line(",\n    ");
    append_kv(out, "seed", static_cast<double>(m.seed));
    out += "\n  },\n  \"cells\": [\n";
    for (std::size_t i = 0; i < snap.cells.size(); ++i) {
        const Cell& c = snap.cells[i];
        out += "    {";
        append_kv(out, "table", c.table);
        out += ", ";
        append_kv(out, "key", c.key);
        out += ", ";
        append_kv(out, "column", c.column);
        out += ", ";
        append_kv(out, "unit", c.unit);
        out += ", ";
        append_kv(out, "value", c.value);
        out += i + 1 < snap.cells.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    return write_file(path, out, err);
}

std::string csv_line(std::string_view table, std::string_view key,
                     std::string_view column, double value) {
    char buf[48];
    std::snprintf(buf, sizeof buf, ",%.4f", value);
    std::string out;
    out.reserve(table.size() + key.size() + column.size() + 24);
    out.append(table).append(1, ',').append(key).append(1, ',');
    out.append(column).append(buf);
    return out;
}

bool write_snapshot_csv(const Snapshot& snap, const std::string& path,
                        std::string* err) {
    std::string out = "table,key,column,value\n";
    for (const Cell& c : snap.cells) {
        out += csv_line(c.table, c.key, c.column, c.value);
        out += '\n';
    }
    return write_file(path, out, err);
}

bool read_snapshot(const std::string& path, Snapshot& out, std::string* err) {
    if (err != nullptr) err->clear();
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        if (err != nullptr) *err = "cannot open '" + path + "'";
        return false;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);

    JValue doc;
    if (!Parser(text, err).parse(doc)) return false;
    if (doc.kind != JValue::kObject) {
        if (err != nullptr) *err = "document is not an object";
        return false;
    }
    if (get_str(doc, "schema") != "sec-bench-snapshot-v1") {
        if (err != nullptr) *err = "unknown or missing schema tag";
        return false;
    }

    out = Snapshot{};
    if (const JValue* meta = doc.get("meta");
        meta != nullptr && meta->kind == JValue::kObject) {
        Metadata& m = out.meta;
        m.git_sha = get_str(*meta, "git_sha");
        m.compiler = get_str(*meta, "compiler");
        m.flags = get_str(*meta, "flags");
        m.build_type = get_str(*meta, "build_type");
        m.march_native = get_bool(*meta, "march_native");
        m.cores = static_cast<unsigned>(get_num(*meta, "cores"));
        // Topology fields default to zero / "" so pre-exec-layer snapshots
        // stay readable (and never warn in topology_mismatch).
        m.packages = static_cast<unsigned>(get_num(*meta, "packages"));
        m.cores_per_package =
            static_cast<unsigned>(get_num(*meta, "cores_per_package"));
        m.smt_width = static_cast<unsigned>(get_num(*meta, "smt_width"));
        m.l3_domains = static_cast<unsigned>(get_num(*meta, "l3_domains"));
        m.pin = get_str(*meta, "pin");
        m.scenarios = get_str(*meta, "scenarios");
        m.algos = get_str(*meta, "algos");
        m.reclaim = get_str(*meta, "reclaim");
        m.smoke = get_bool(*meta, "smoke");
        if (const JValue* th = meta->get("threads");
            th != nullptr && th->kind == JValue::kArray) {
            for (const JValue& v : th->arr) {
                if (v.kind == JValue::kNumber && v.num >= 1) {
                    m.threads.push_back(static_cast<unsigned>(v.num));
                }
            }
        }
        m.duration_ms = static_cast<unsigned>(get_num(*meta, "duration_ms"));
        m.runs = static_cast<unsigned>(get_num(*meta, "runs"));
        m.repeats =
            static_cast<unsigned>(get_num(*meta, "repeats", /*dflt=*/1));
        m.prefill = static_cast<std::size_t>(get_num(*meta, "prefill"));
        m.value_range =
            static_cast<std::size_t>(get_num(*meta, "value_range"));
        m.seed = static_cast<std::uint64_t>(get_num(*meta, "seed"));
    }
    const JValue* cells = doc.get("cells");
    if (cells == nullptr || cells->kind != JValue::kArray) {
        if (err != nullptr) *err = "missing 'cells' array";
        return false;
    }
    for (const JValue& v : cells->arr) {
        if (v.kind != JValue::kObject) {
            if (err != nullptr) *err = "cell is not an object";
            return false;
        }
        out.add(get_str(v, "table"), get_str(v, "key"), get_str(v, "column"),
                get_str(v, "unit"), get_num(v, "value"));
    }
    return true;
}

// ---- median + compare ------------------------------------------------------

Snapshot median_of(const std::vector<Snapshot>& runs) {
    Snapshot out;
    if (runs.empty()) return out;
    out.meta = runs.front().meta;

    std::vector<Cell> order;                         // first-appearance order
    std::map<std::string, std::size_t> index;        // cell id -> order slot
    std::vector<std::vector<double>> samples;
    for (const Snapshot& run : runs) {
        // Within one run a re-written identity keeps its LAST value (the
        // Table::add contract), so collapse per run before sampling.
        std::map<std::string, double> last;
        for (const Cell& c : run.cells) {
            const std::string id = cell_id(c);
            if (index.find(id) == index.end()) {
                index.emplace(id, order.size());
                order.push_back(c);
                samples.emplace_back();
            }
            last[id] = c.value;
        }
        for (const auto& [id, value] : last) {
            samples[index.at(id)].push_back(value);
        }
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i].value = median(samples[i]);
    }
    out.cells = std::move(order);
    return out;
}

bool gated_unit(std::string_view unit) noexcept {
    return unit.find("ops") != std::string_view::npos;
}

CompareResult compare(const Snapshot& baseline, const Snapshot& current,
                      double tolerance_pct) {
    CompareResult r;
    r.tolerance_pct = tolerance_pct;

    std::map<std::string, double> cur;  // last wins, Table::add contract
    for (const Cell& c : current.cells) cur[cell_id(c)] = c.value;

    // Global hardware-speed shift: the median current/base ratio over gated
    // cells. Dividing it out keeps a laptop baseline meaningful on a slower
    // (or faster) CI runner while still catching one cell moving against
    // its peers.
    std::vector<double> ratios;
    for (const Cell& b : baseline.cells) {
        if (!gated_unit(b.unit) || !(b.value > 0)) continue;
        const auto it = cur.find(cell_id(b));
        if (it != cur.end() && it->second > 0) {
            ratios.push_back(it->second / b.value);
        }
    }
    r.scale = ratios.empty() ? 1.0 : median(std::move(ratios));
    if (!(r.scale > 0)) r.scale = 1.0;

    for (const Cell& b : baseline.cells) {
        CellDelta d;
        d.base = b;
        d.gated = gated_unit(b.unit);
        const auto it = cur.find(cell_id(b));
        if (it == cur.end()) {
            d.missing = true;
            d.regressed = d.gated;  // a vanished gated cell IS a regression
        } else {
            d.current = it->second;
            if (b.value > 0) {
                d.raw_delta_pct = 100.0 * (d.current - b.value) / b.value;
                d.norm_delta_pct =
                    100.0 * (d.current / (b.value * r.scale) - 1.0);
            }
            // Strictly beyond tolerance: a cell sitting exactly at the
            // edge passes (bench_json_test pins this).
            d.regressed =
                d.gated && b.value > 0 && d.norm_delta_pct < -tolerance_pct;
        }
        if (d.regressed) ++r.regressions;
        r.cells.push_back(std::move(d));
        cur.erase(cell_id(b));
    }
    r.extra = static_cast<unsigned>(cur.size());
    return r;
}

std::string topology_mismatch(const Metadata& baseline,
                              const Metadata& current) {
    std::string out;
    const auto field = [&out](const char* name, unsigned base, unsigned cur) {
        if (base == 0 || base == cur) return;  // zero = pre-topology snapshot
        if (!out.empty()) out += ", ";
        out += name;
        out += ' ';
        out += std::to_string(base);
        out += " -> ";
        out += std::to_string(cur);
    };
    field("packages", baseline.packages, current.packages);
    field("cores_per_package", baseline.cores_per_package,
          current.cores_per_package);
    field("smt_width", baseline.smt_width, current.smt_width);
    field("l3_domains", baseline.l3_domains, current.l3_domains);
    if (!baseline.pin.empty() && baseline.pin != current.pin) {
        if (!out.empty()) out += ", ";
        out += "pin '" + baseline.pin + "' -> '" + current.pin + "'";
    }
    return out;
}

void print_compare(const CompareResult& result, std::FILE* out) {
    std::fprintf(out,
                 "\n== baseline compare (scale=%.3f, tolerance=%.1f%% on "
                 "normalized gated deltas) ==\n",
                 result.scale, result.tolerance_pct);
    std::fprintf(out, "%-24s %-6s %-16s %10s %10s %8s %8s  %s\n", "table",
                 "key", "column", "base", "current", "raw%", "norm%",
                 "verdict");
    for (const CellDelta& d : result.cells) {
        const char* verdict = d.regressed          ? "REGRESSION"
                              : !d.gated           ? "info"
                              : d.norm_delta_pct >
                                      result.tolerance_pct ? "improved"
                                                           : "ok";
        if (d.missing) {
            std::fprintf(out, "%-24s %-6s %-16s %10.3f %10s %8s %8s  %s\n",
                         d.base.table.c_str(), d.base.key.c_str(),
                         d.base.column.c_str(), d.base.value, "MISSING", "-",
                         "-", verdict);
        } else {
            std::fprintf(out,
                         "%-24s %-6s %-16s %10.3f %10.3f %+8.1f %+8.1f  %s\n",
                         d.base.table.c_str(), d.base.key.c_str(),
                         d.base.column.c_str(), d.base.value, d.current,
                         d.raw_delta_pct, d.norm_delta_pct, verdict);
        }
    }
    std::fprintf(out,
                 "baseline cells: %zu · regressions: %u · current-only "
                 "cells: %u\n",
                 result.cells.size(), result.regressions, result.extra);
    if (result.regressions > 0) {
        std::fprintf(out,
                     "FAIL: %u gated cell(s) slower than baseline beyond "
                     "%.1f%% after scale normalization\n",
                     result.regressions, result.tolerance_pct);
    } else {
        std::fprintf(out, "PASS: no gated cell beyond tolerance\n");
    }
    std::fflush(out);
}

}  // namespace sec::bench::json
