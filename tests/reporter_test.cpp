// reporter_test.cpp — Table printing, the duplicate-cell warning
// (workload/reporter.hpp), and how ScenarioContext::emit sends a table's
// cells down the one result sink. A duplicate (threads, column) cell is
// almost always a scenario bug; Table::add keeps last-write-wins for
// backward compatibility but must say so once on stderr and count every
// overwrite.
#include "workload/reporter.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "workload/bench_json.hpp"
#include "workload/registry.hpp"

namespace sb = sec::bench;

namespace {

// The `CSV,` lines ScenarioContext::emit streams to stdout for `table`, in
// order (the grid lines it prints first are dropped).
std::string emitted_csv(const sb::Table& table,
                        sb::json::Snapshot* snap = nullptr) {
    sb::ScenarioContext ctx;
    ctx.json = snap;
    testing::internal::CaptureStdout();
    ctx.emit(table);
    const std::string out = testing::internal::GetCapturedStdout();
    std::istringstream lines(out);
    std::string csv;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("CSV,", 0) == 0) csv += line + "\n";
    }
    return csv;
}

TEST(TableTest, DistinctCellsDoNotWarn) {
    sb::Table t("tbl", {"A", "B"});
    t.add(1, "A", 1.0);
    t.add(1, "B", 2.0);
    t.add(4, "A", 3.0);
    EXPECT_EQ(t.duplicates(), 0u);
}

TEST(TableTest, DuplicateCellWarnsOnceAndLastWriteWins) {
    sb::Table t("dup_tbl", {"A"});
    t.add(2, "A", 1.0);
    EXPECT_EQ(t.duplicates(), 0u);

    testing::internal::CaptureStderr();
    t.add(2, "A", 2.0);  // first duplicate: warns
    t.add(2, "A", 3.0);  // further duplicates: counted, silent
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_EQ(t.duplicates(), 2u);
    EXPECT_NE(err.find("duplicate cell"), std::string::npos) << err;
    EXPECT_NE(err.find("dup_tbl"), std::string::npos) << err;
    // One warning, not one per overwrite.
    EXPECT_EQ(err.find("duplicate cell"), err.rfind("duplicate cell")) << err;

    // Last write wins, matching the historical behaviour.
    EXPECT_EQ(emitted_csv(t), "CSV,dup_tbl,2,A,3.0000\n");
}

TEST(TableTest, SameColumnDifferentRowsIsNotADuplicate) {
    sb::Table t("tbl", {"A"});
    t.add(1, "A", 1.0);
    t.add(2, "A", 2.0);
    t.add(4, "A", 3.0);
    EXPECT_EQ(t.duplicates(), 0u);
}

TEST(TableTest, CsvRowsFollowGridOrderAndColumnOrder) {
    // Insert out of order; rows must come out keyed ascending with columns
    // in declared order, missing cells skipped.
    sb::Table t("grid", {"B", "A"});
    t.add(4, "A", 4.1);
    t.add(1, "B", 1.2);
    t.add(1, "A", 1.1);
    EXPECT_EQ(emitted_csv(t),
              "CSV,grid,1,B,1.2000\n"
              "CSV,grid,1,A,1.1000\n"
              "CSV,grid,4,A,4.1000\n");
}

// The --csv file is the snapshot the emitted cells landed in: a
// `table,key,column,value` header, then the stdout rows without the prefix.
TEST(TableTest, WriteCsvHeaderMatchesRowShape) {
    sb::Table t("shape", {"A"}, "Kops/s");
    t.add(2, "A", 2.5);
    sb::json::Snapshot snap;
    EXPECT_EQ(emitted_csv(t, &snap), "CSV,shape,2,A,2.5000\n");
    ASSERT_EQ(snap.cells.size(), 1u);
    EXPECT_EQ(snap.cells[0].unit, "Kops/s");

    const std::string path = testing::TempDir() + "reporter_shape.csv";
    ASSERT_TRUE(sb::json::write_snapshot_csv(snap, path));
    std::ifstream in(path);
    std::stringstream file;
    file << in.rdbuf();
    EXPECT_EQ(file.str(), "table,key,column,value\nshape,2,A,2.5000\n");
}

TEST(TableTest, PrintAlignsColumnsAndDashesMissingCells) {
    sb::Table t("ptbl", {"A", "B"}, "Kops/s");
    t.add(1, "A", 1.5);
    t.add(8, "B", 2.5);

    testing::internal::CaptureStdout();
    t.print();
    const std::string out = testing::internal::GetCapturedStdout();

    EXPECT_NE(out.find("== ptbl (Kops/s) =="), std::string::npos) << out;
    // Header and both rows use the same %-8s + %12s grid, so every line
    // after the banner has identical length.
    std::vector<std::string> grid_lines;
    std::size_t pos = 0;
    while (pos < out.size()) {
        const std::size_t eol = out.find('\n', pos);
        const std::string line = out.substr(pos, eol - pos);
        pos = eol == std::string::npos ? out.size() : eol + 1;
        if (line.rfind("threads", 0) == 0 || line.rfind("1 ", 0) == 0 ||
            line.rfind("8 ", 0) == 0) {
            grid_lines.push_back(line);
        }
    }
    ASSERT_EQ(grid_lines.size(), 3u) << out;
    EXPECT_EQ(grid_lines[0].size(), grid_lines[1].size());
    EXPECT_EQ(grid_lines[1].size(), grid_lines[2].size());
    // Missing cells print as '-'.
    EXPECT_NE(grid_lines[1].find('-'), std::string::npos);
    // print() is the grid alone; CSV rows are ScenarioContext's job.
    EXPECT_EQ(out.find("CSV,"), std::string::npos) << out;

    // Emitting the table streams the machine-greppable rows on stdout.
    const std::string csv = emitted_csv(t);
    EXPECT_NE(csv.find("CSV,ptbl,1,A,1.5000"), std::string::npos) << csv;
    EXPECT_NE(csv.find("CSV,ptbl,8,B,2.5000"), std::string::npos) << csv;
}

TEST(TableTest, ForEachCellVisitsGridOrder) {
    sb::Table t("visit", {"B", "A"});
    t.add(2, "A", 2.1);
    t.add(1, "B", 1.2);
    std::vector<std::string> seen;
    t.for_each_cell([&](unsigned threads, const std::string& col, double v) {
        seen.push_back(std::to_string(threads) + "/" + col + "/" +
                       std::to_string(static_cast<int>(v * 10)));
    });
    EXPECT_EQ(seen, (std::vector<std::string>{"1/B/12", "2/A/21"}));
}

TEST(TableTest, UnitAccessorDefaultsToMops) {
    EXPECT_EQ(sb::Table("t", {"A"}).unit(), "Mops/s");
    EXPECT_EQ(sb::Table("t", {"A"}, "us").unit(), "us");
}

}  // namespace
