// Smoke test of bench_ext_multicore's --json output (path injected by
// CMake). Pins the headline of docs/multicore.md: one worker is cpu-bound,
// and with coalesced request WRITEs plus spanning fetch READs some 32-byte
// row clears 12 MOPS — above the 11.26 MOPS in-bound envelope that capped
// per-slot request WRITEs — at under 0.1 in-bound ops per call. Companion to
// bench_pipeline_json_smoke_test.cc.

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

double Cell(const testjson::Value& values, const std::string& key) {
  return std::stod(values.at(key).string);
}

TEST(BenchMulticoreJsonSmokeTest, WorkerSweepClearsTheInboundEnvelope) {
  const std::string json_path = ::testing::TempDir() + "/bench_multicore_smoke.json";
  std::remove(json_path.c_str());
  const std::string cmd = std::string("'") + BENCH_EXT_MULTICORE_PATH + "' --json=" + json_path +
                          " --seed=7 > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  const std::string text = ReadFile(json_path);
  ASSERT_FALSE(text.empty()) << "no JSON written to " << json_path;
  const testjson::Value v = testjson::Parse(text);

  EXPECT_EQ(v.at("bench").string, "bench_ext_multicore");
  EXPECT_EQ(v.at("schema_version").number, 1.0);

  // 5 worker counts x 3 windows.
  ASSERT_EQ(v.at("rows").array.size(), 15u);
  bool saw_cpu_bound = false;
  bool saw_headline = false;  // >= 12 MOPS at < 0.1 in-bound ops per call
  for (const auto& row : v.at("rows").array) {
    const testjson::Value& values = row->at("values");
    EXPECT_TRUE(values.has("workers"));
    EXPECT_TRUE(values.has("window"));
    EXPECT_TRUE(values.has("mops"));
    EXPECT_TRUE(values.has("inbound_util"));
    EXPECT_TRUE(values.has("cpu_util"));
    EXPECT_TRUE(values.has("bottleneck"));
    EXPECT_TRUE(values.has("inbound_ops_per_call"));
    EXPECT_TRUE(values.has("coalesced"));
    EXPECT_TRUE(values.has("steals"));
    EXPECT_EQ(Cell(values, "errors"), 0.0);
    EXPECT_GT(Cell(values, "coalesced"), 0.0);  // every row ran coalesced sweeps
    const std::string& bottleneck = values.at("bottleneck").string;
    if (Cell(values, "workers") == 1.0) {
      // One worker cannot outrun the in-bound engine: CPU is the bottleneck
      // and its pinned core is saturated.
      EXPECT_EQ(bottleneck, "cpu");
      EXPECT_GT(Cell(values, "cpu_util"), 0.9);
      saw_cpu_bound = true;
    }
    if (Cell(values, "mops") >= 12.0 && Cell(values, "inbound_ops_per_call") < 0.1) {
      saw_headline = true;
    }
  }
  EXPECT_TRUE(saw_cpu_bound);
  EXPECT_TRUE(saw_headline)
      << "no row reached >= 12 MOPS at < 0.1 in-bound ops per call";

  // The coalesced-fetch instruments flushed into the metrics snapshot.
  const testjson::Value& metrics = v.at("metrics");
  ASSERT_TRUE(metrics.is_array());
  bool saw_coalesced = false;
  for (const auto& m : metrics.array) {
    if (m->at("name").string == "rfp.channel.coalesced_fetches") {
      saw_coalesced = true;
      EXPECT_GT(m->at("value").number, 0.0);
    }
  }
  EXPECT_TRUE(saw_coalesced);

  std::remove(json_path.c_str());
}

}  // namespace
