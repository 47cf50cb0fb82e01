/// bench_json.h's merge: a run replaces only the rows whose (suite, op)
/// it emitted again, so a --benchmark_filter run keeps the rest of its
/// suite and a recorded row of a deleted benchmark stays as a baseline.
/// And its rows: ns_per_op is nanoseconds whatever unit a benchmark
/// displays in, and a fresh row records its host.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "json_reader.h"

namespace ipdb {
namespace {

using bench_json::MergeIntoFile;
using bench_json::ResultLine;

/// ns_per_op by "suite/op" for every row of the file at `path`.
std::map<std::string, double> ReadRows(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  testjson::JsonValue doc;
  EXPECT_TRUE(testjson::JsonParser(text.str()).Parse(&doc)) << text.str();
  std::map<std::string, double> rows;
  const testjson::JsonValue* results = doc.Find("results");
  if (results == nullptr) return rows;
  for (const testjson::JsonValue& row : results->array) {
    rows[row.Find("suite")->string + "/" + row.Find("op")->string] =
        row.Find("ns_per_op")->number;
  }
  return rows;
}

TEST(BenchJsonTest, MergeReplacesOnlyTheRowsThisRunEmitted) {
  char path[] = "/tmp/ipdb_bench_json_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::close(fd);

  MergeIntoFile(path, {ResultLine("storage", "BM_A", 1.0, 10, {}),
                       ResultLine("storage", "BM_A/2", 2.0, 10, {}),
                       ResultLine("storage", "BM_B", 3.0, 10, {})});
  MergeIntoFile(path, {ResultLine("other", "BM_A", 4.0, 10, {})});
  // A filtered re-run of one storage row.
  MergeIntoFile(path, {ResultLine("storage", "BM_A", 5.0, 10,
                                  {{"parity_abs_err", 0.0}})});

  const std::map<std::string, double> rows = ReadRows(path);
  EXPECT_EQ(rows, (std::map<std::string, double>{{"storage/BM_A", 5.0},
                                                 {"storage/BM_A/2", 2.0},
                                                 {"storage/BM_B", 3.0},
                                                 {"other/BM_A", 4.0}}));
  std::remove(path);
}

/// The rows of the file at `path`, parsed.
std::vector<testjson::JsonValue> ReadResults(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  testjson::JsonValue doc;
  EXPECT_TRUE(testjson::JsonParser(text.str()).Parse(&doc)) << text.str();
  const testjson::JsonValue* results = doc.Find("results");
  return results == nullptr ? std::vector<testjson::JsonValue>{}
                            : results->array;
}

TEST(BenchJsonTest, FreshRowsCarryTheirHost) {
  testjson::JsonValue row;
  ASSERT_TRUE(testjson::JsonParser(ResultLine("storage", "BM_A", 1.0, 10,
                                              {{"facts", 3.0}}))
                  .Parse(&row));
  const testjson::JsonValue* host = row.Find("host");
  ASSERT_NE(host, nullptr);
  ASSERT_NE(host->Find("nproc"), nullptr);
  EXPECT_GE(host->Find("nproc")->number, 1.0);
  for (const char* field : {"cpu_model", "compiler", "cxx_flags",
                            "build_type", "ipdb_observability",
                            "source_id"}) {
    ASSERT_NE(host->Find(field), nullptr) << field;
    EXPECT_EQ(host->Find(field)->kind, testjson::JsonValue::Kind::kString)
        << field;
  }
  EXPECT_FALSE(host->Find("source_id")->string.empty());
  // The counters and the (suite, op) identity read as before.
  EXPECT_EQ(row.Find("op")->string, "BM_A");
  EXPECT_EQ(row.Find("counters")->Find("facts")->number, 3.0);
}

TEST(BenchJsonTest, MergeKeepsAnUnstampedRecordedRow) {
  char path[] = "/tmp/ipdb_bench_json_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::close(fd);
  {
    // A file written before rows carried a host.
    std::ofstream out(path);
    out << "{\n  \"schema\": \"ipdb-bench-v1\",\n  \"results\": [\n"
        << "    {\"suite\": \"storage\", \"op\": \"BM_Old\", "
           "\"ns_per_op\": 7, \"iterations\": 1},\n"
        << "    {\"suite\": \"storage\", \"op\": \"BM_A\", "
           "\"ns_per_op\": 9, \"iterations\": 1}\n  ]\n}\n";
  }
  MergeIntoFile(path, {ResultLine("storage", "BM_A", 5.0, 10, {})});
  std::map<std::string, const testjson::JsonValue*> rows;
  const std::vector<testjson::JsonValue> results = ReadResults(path);
  for (const testjson::JsonValue& row : results) {
    rows[row.Find("op")->string] = &row;
  }
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows["BM_Old"]->Find("ns_per_op")->number, 7.0);
  EXPECT_EQ(rows["BM_Old"]->Find("host"), nullptr);
  EXPECT_EQ(rows["BM_A"]->Find("ns_per_op")->number, 5.0);
  EXPECT_NE(rows["BM_A"]->Find("host"), nullptr);
  std::remove(path);
}

TEST(BenchJsonTest, NsPerOpIsInNanosecondsWhateverTheDisplayUnit) {
  // 10 iterations in 0.5 s: 50 ms per iteration, displayed as 50 by a
  // kMillisecond benchmark and as 5e7 by a kNanosecond one.
  benchmark::BenchmarkReporter::Run run;
  run.iterations = 10;
  run.real_accumulated_time = 0.5;
  run.time_unit = benchmark::kMillisecond;
  EXPECT_DOUBLE_EQ(run.GetAdjustedRealTime(), 50.0);
  EXPECT_DOUBLE_EQ(bench_json::NsPerOp(run), 5e7);
  run.time_unit = benchmark::kMicrosecond;
  EXPECT_DOUBLE_EQ(bench_json::NsPerOp(run), 5e7);
  run.time_unit = benchmark::kNanosecond;
  EXPECT_DOUBLE_EQ(bench_json::NsPerOp(run), 5e7);
}

}  // namespace
}  // namespace ipdb
