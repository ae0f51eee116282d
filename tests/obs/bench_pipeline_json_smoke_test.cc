// Smoke test of bench_ext_pipeline's --json output (path injected by
// CMake): the window x value-size sweep lands row for row in the dump, the
// window>1 rows with default blocks report doorbell-batch occupancy above 1,
// the multicore rows carry several calls per coalesced request WRITE, and
// the pipelining instruments flush into the metrics snapshot. Companion to
// bench_json_smoke_test.cc.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "tests/obs/json_test_util.h"

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Table cells replay the printed strings verbatim; numeric columns parse.
double Cell(const testjson::Value& values, const std::string& key) {
  return std::stod(values.at(key).string);
}

TEST(BenchPipelineJsonSmokeTest, PipelineBenchProducesSchemaValidJson) {
  const std::string json_path = ::testing::TempDir() + "/bench_pipeline_smoke.json";
  std::remove(json_path.c_str());
  const std::string cmd = std::string("'") + BENCH_EXT_PIPELINE_PATH + "' --json=" + json_path +
                          " --seed=7 > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  const std::string text = ReadFile(json_path);
  ASSERT_FALSE(text.empty()) << "no JSON written to " << json_path;
  const testjson::Value v = testjson::Parse(text);

  EXPECT_EQ(v.at("bench").string, "bench_ext_pipeline");
  EXPECT_EQ(v.at("schema_version").number, 1.0);

  // 5 windows x 3 value sizes, plus 3 multicore worker-sweep rows.
  ASSERT_EQ(v.at("rows").array.size(), 18u);
  bool saw_batched_row = false;
  size_t index = 0;
  for (const auto& row : v.at("rows").array) {
    const testjson::Value& values = row->at("values");
    const bool multicore_row = index++ >= 15;
    EXPECT_TRUE(values.has("window"));
    EXPECT_TRUE(values.has("workers"));
    EXPECT_TRUE(values.has("mops"));
    EXPECT_TRUE(values.has("speedup"));
    EXPECT_TRUE(values.has("doorbells"));
    EXPECT_TRUE(values.has("occupancy"));
    EXPECT_TRUE(values.has("slots_per_write"));
    EXPECT_TRUE(values.has("errors"));
    EXPECT_EQ(Cell(values, "errors"), 0.0);
    if (multicore_row) {
      // Payload-sized blocks: a burst's staged calls ride one request WRITE.
      EXPECT_GT(Cell(values, "doorbells"), 0.0);
      EXPECT_GE(Cell(values, "slots_per_write"), 2.0);
    } else if (Cell(values, "window") > 1.0) {
      // Every pipelined row actually batched its postings; 8 KiB blocks keep
      // one WRITE per call.
      EXPECT_GT(Cell(values, "doorbells"), 0.0);
      EXPECT_GT(Cell(values, "occupancy"), 1.0);
      EXPECT_EQ(Cell(values, "slots_per_write"), 1.0);
      saw_batched_row = true;
    } else {
      // window=1 is the pre-pipelining channel: no batch ever forms.
      EXPECT_EQ(Cell(values, "doorbells"), 0.0);
    }
  }
  EXPECT_TRUE(saw_batched_row);

  // The conditional flushes must have produced the pipelining instruments
  // with meaningful totals (batching happened, mean occupancy > 1).
  const testjson::Value& metrics = v.at("metrics");
  ASSERT_TRUE(metrics.is_array());
  bool saw_doorbells = false;
  bool saw_occupancy = false;
  for (const auto& m : metrics.array) {
    if (m->at("name").string == "rfp.channel.doorbell_batches") {
      saw_doorbells = true;
      EXPECT_GT(m->at("value").number, 0.0);
    }
    if (m->at("name").string == "rfp.channel.batch_occupancy") {
      saw_occupancy = true;
      EXPECT_EQ(m->at("kind").string, "histogram");
      EXPECT_GT(m->at("count").number, 0.0);
      EXPECT_GT(m->at("mean").number, 1.0);
    }
  }
  EXPECT_TRUE(saw_doorbells);
  EXPECT_TRUE(saw_occupancy);

  std::remove(json_path.c_str());
}

}  // namespace
