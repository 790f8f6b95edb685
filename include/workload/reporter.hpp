// workload/reporter.hpp — result table: a thread-count x column grid,
// printed human-aligned on stdout. Its cells leave the program through
// ScenarioContext::emit (workload/registry.hpp), which also streams them as
// `CSV,` lines and adds them to the run's snapshot.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace sec::bench {

class Table {
public:
    // `unit` labels the printed header; throughput tables keep the historic
    // default, the service scenarios pass their own ("us", "Kops/s").
    Table(std::string name, std::vector<std::string> columns,
          std::string unit = "Mops/s");

    // Adding a value for a (threads, column) cell that already holds one
    // overwrites it (last write wins) but warns once per table on stderr —
    // a duplicate cell is almost always a scenario bug (two series writing
    // the same column, a row key collision), and silent overwrite hid it.
    void add(unsigned threads, std::string_view column, double value);
    // The aligned grid on stdout; missing cells print as '-'.
    void print() const;

    const std::string& name() const noexcept { return name_; }
    const std::string& unit() const noexcept { return unit_; }
    // Total duplicate-cell overwrites since construction (the warning
    // prints only for the first; tests assert on this count).
    unsigned duplicates() const noexcept { return duplicates_; }

    // Visit every populated cell in grid order: fn(threads, column, value).
    // ScenarioContext::emit sends each cell to the result sink through this.
    template <class Fn>
    void for_each_cell(Fn&& fn) const {
        for (const auto& [threads, cells] : rows_) {
            for (const auto& c : columns_) {
                const auto it = cells.find(c);
                if (it != cells.end()) fn(threads, c, it->second);
            }
        }
    }

private:
    std::string name_;
    std::vector<std::string> columns_;
    std::string unit_;
    unsigned duplicates_ = 0;
    // threads -> column -> Mops (ordered so rows print in grid order).
    std::map<unsigned, std::map<std::string, double, std::less<>>> rows_;
};

// The stderr progress line every series prints while a table fills
// (previously duplicated across the per-figure drivers).
void progress_line(std::string_view column, unsigned threads, double mops);

}  // namespace sec::bench
