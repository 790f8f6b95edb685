// reporter.cpp — Table printing.
#include "workload/reporter.hpp"

#include <cstdio>

namespace sec::bench {

Table::Table(std::string name, std::vector<std::string> columns,
             std::string unit)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      unit_(std::move(unit)) {}

void Table::add(unsigned threads, std::string_view column, double value) {
    auto [it, inserted] = rows_[threads].emplace(column, value);
    if (!inserted) {
        if (duplicates_ == 0) {
            std::fprintf(stderr,
                         "Table '%s': duplicate cell (threads=%u, column=%s) "
                         "overwritten — almost always a scenario bug\n",
                         name_.c_str(), threads, std::string(column).c_str());
        }
        ++duplicates_;
        it->second = value;
    }
}

void Table::print() const {
    std::printf("\n== %s (%s) ==\n", name_.c_str(), unit_.c_str());
    std::printf("%-8s", "threads");
    for (const auto& c : columns_) std::printf(" %12s", c.c_str());
    std::printf("\n");
    for (const auto& [threads, cells] : rows_) {
        std::printf("%-8u", threads);
        for (const auto& c : columns_) {
            const auto it = cells.find(c);
            if (it != cells.end()) {
                std::printf(" %12.2f", it->second);
            } else {
                std::printf(" %12s", "-");
            }
        }
        std::printf("\n");
    }
    std::fflush(stdout);
}

void progress_line(std::string_view column, unsigned threads, double mops) {
    std::fprintf(stderr, "  %-10.*s t=%-4u %8.2f Mops/s\n",
                 static_cast<int>(column.size()), column.data(), threads, mops);
}

}  // namespace sec::bench
