// Keeps the declared stats catalogs, docs/observability.md and a real
// bench's --json in step: every listed metric name is documented, no name
// is listed with two kinds, and every name bench_fig09_fetch_vs_reply emits
// is either listed or one of the families keyed at run time.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/conn/cache.h"
#include "src/conn/pooled.h"
#include "src/kv/bucket_table.h"
#include "src/kv/farm_store.h"
#include "src/kv/memcached_store.h"
#include "src/kv/pilaf_store.h"
#include "src/mem/pool.h"
#include "src/rdma/nic.h"
#include "src/rdma/node.h"
#include "src/repl/failover.h"
#include "src/repl/replicator.h"
#include "src/rfp/channel.h"
#include "src/rfp/rpc.h"
#include "tests/obs/json_test_util.h"

namespace {

struct Row {
  std::string name;
  std::string kind;
};

#define COLLECT_ROW(kind, field, name, gate, help) rows.push_back({name, #kind});

std::vector<Row> AllRows() {
  std::vector<Row> rows;
  RFP_CHANNEL_STATS(COLLECT_ROW)
  RFP_RPC_SERVER_STATS(COLLECT_ROW)
  RFP_RPC_CLIENT_STATS(COLLECT_ROW)
  RDMA_NIC_STATS(COLLECT_ROW)
  RDMA_MR_STATS(COLLECT_ROW)
  MEM_POOL_STATS(COLLECT_ROW)
  KV_BUCKET_TABLE_STATS(COLLECT_ROW)
  KV_MEMCACHED_STATS(COLLECT_ROW)
  KV_PILAF_CLIENT_STATS(COLLECT_ROW)
  KV_FARM_STORE_STATS(COLLECT_ROW)
  CONN_POOLED_SERVER_STATS(COLLECT_ROW)
  CONN_POOLED_CLIENT_STATS(COLLECT_ROW)
  CONN_CACHE_STATS(COLLECT_ROW)
  REPL_SINK_STATS(COLLECT_ROW)
  REPL_REPLICATOR_STATS(COLLECT_ROW)
  REPL_FAILOVER_STATS(COLLECT_ROW)
  return rows;
}

#undef COLLECT_ROW

// Families whose names or labels are decided at run time, not by a catalog.
bool RunTimeKeyed(const std::string& name) {
  for (const char* prefix : {"fault.injected", "check.violation", "explore.", "mem.arena"}) {
    if (name.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CatalogDriftTest, EveryListedNameIsDocumented) {
  const std::string doc = ReadFile(std::string(RFP_SOURCE_DIR) + "/docs/observability.md");
  ASSERT_FALSE(doc.empty());
  for (const Row& row : AllRows()) {
    EXPECT_NE(doc.find("`" + row.name + "`"), std::string::npos)
        << row.name << " is listed in a stats catalog but not in docs/observability.md";
  }
}

TEST(CatalogDriftTest, NoNameIsListedWithTwoKinds) {
  std::map<std::string, std::string> kinds;
  for (const Row& row : AllRows()) {
    const auto it = kinds.emplace(row.name, row.kind).first;
    EXPECT_EQ(it->second, row.kind) << row.name << " is listed as two kinds";
  }
}

TEST(CatalogDriftTest, Fig09EmitsOnlyListedNames) {
  std::map<std::string, std::string> kinds;
  for (const Row& row : AllRows()) {
    kinds.emplace(row.name, row.kind);
  }
  const std::string json_path = ::testing::TempDir() + "/catalog_drift_fig09.json";
  std::remove(json_path.c_str());
  const std::string cmd = std::string("RFP_BENCH_SCALE=0.02 '") + BENCH_FIG09_PATH +
                          "' --json=" + json_path + " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const testjson::Value v = testjson::Parse(ReadFile(json_path));
  const testjson::Value& metrics = v.at("metrics");
  ASSERT_FALSE(metrics.array.empty());
  for (const auto& m : metrics.array) {
    const std::string& name = m->at("name").string;
    if (RunTimeKeyed(name)) {
      continue;
    }
    const auto it = kinds.find(name);
    ASSERT_NE(it, kinds.end()) << name << " is emitted but listed in no stats catalog";
    EXPECT_EQ(it->second, m->at("kind").string) << name;
  }
  std::remove(json_path.c_str());
}

}  // namespace
