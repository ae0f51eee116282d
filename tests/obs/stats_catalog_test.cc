// obs::Merge and obs::Flush over a declared stats catalog, using
// rfp::Channel::Stats: merges must carry every field (the hand-written
// merges they replace dropped the recovery, overload and redirect counters),
// and flushes must keep each row's emission gate.

#include "src/obs/catalog.h"

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include <gtest/gtest.h>

#include "src/mem/pool.h"
#include "src/obs/metrics.h"
#include "src/rfp/channel.h"

namespace {

using Stats = rfp::Channel::Stats;

// Every counter distinct and non-zero, every histogram one distinct sample.
Stats Distinct() {
  Stats s;
  uint64_t next = 101;
  Stats::ForEachStat([&](auto field, obs::StatKind, std::string_view, auto, const char*) {
    auto& v = s.*field;
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, sim::Histogram>) {
      v.Record(static_cast<int64_t>(next));
    } else {
      v = next;
    }
    ++next;
  });
  return s;
}

TEST(StatsCatalogTest, CatalogCoversEveryChannelStatsField) {
  size_t bytes = 0;
  Stats::ForEachStat([&](auto field, obs::StatKind, std::string_view, auto, const char*) {
    bytes += sizeof(std::declval<Stats&>().*field);
  });
  // A field declared outside RFP_CHANNEL_STATS would be skipped by Merge.
  EXPECT_EQ(bytes, sizeof(Stats));
}

TEST(StatsCatalogTest, MergeCarriesEveryChannelStatsField) {
  const Stats from = Distinct();
  Stats into;
  obs::Merge(into, from);

  int checked = 0;
  Stats::ForEachStat([&](auto field, obs::StatKind, std::string_view name, auto, const char*) {
    const auto& got = into.*field;
    const auto& want = from.*field;
    if constexpr (std::is_same_v<std::decay_t<decltype(got)>, sim::Histogram>) {
      EXPECT_EQ(got.count(), 1u) << name;
      EXPECT_EQ(got.min(), want.min()) << name;
    } else {
      EXPECT_EQ(got, want) << name;
    }
    ++checked;
  });
  EXPECT_GT(checked, 0);

  // The fields the replaced hand-written merges dropped, by name.
  EXPECT_EQ(into.recovery_request_writes, from.recovery_request_writes);
  EXPECT_EQ(into.recovery_fetch_reads, from.recovery_fetch_reads);
  EXPECT_EQ(into.busy_responses, from.busy_responses);
  EXPECT_EQ(into.shed_admission, from.shed_admission);
  EXPECT_EQ(into.shed_deadline, from.shed_deadline);
  EXPECT_EQ(into.breaker_opens, from.breaker_opens);
  EXPECT_EQ(into.redirects, from.redirects);
  EXPECT_EQ(into.shed_redirect, from.shed_redirect);
  EXPECT_GT(into.RecoveryRoundTripsPerCall(), 0.0);
  EXPECT_EQ(into.RecoveryRoundTripsPerCall(), from.RecoveryRoundTripsPerCall());

  // Merging again adds: counters double, histograms hold two samples.
  obs::Merge(into, from);
  EXPECT_EQ(into.calls, 2 * from.calls);
  EXPECT_EQ(into.shed_redirect, 2 * from.shed_redirect);
  EXPECT_EQ(into.batch_occupancy.count(), 2u);
}

std::set<std::string> FlushedNames(const Stats& s) {
  obs::MetricsRegistry reg;
  obs::Flush(reg, {{"client", "c"}, {"server", "s"}}, s);
  std::set<std::string> names;
  for (const auto& sample : reg.Snapshot()) {
    names.insert(sample.name);
  }
  return names;
}

TEST(StatsCatalogTest, IdleChannelFlushesOnlyTheAlwaysRows) {
  const std::set<std::string> want = {
      "rfp.channel.calls",          "rfp.channel.request_writes",    "rfp.channel.fetch_reads",
      "rfp.channel.failed_fetches", "rfp.channel.extra_fetches",     "rfp.channel.reply_pushes",
      "rfp.channel.switches_to_reply", "rfp.channel.switches_to_fetch",
      "rfp.channel.retries_per_call"};
  EXPECT_EQ(FlushedNames(Stats{}), want);
}

TEST(StatsCatalogTest, SiblingGatesOpenWithTheirLeadingCounter) {
  Stats s;
  s.batched_ops = 3;  // gated by doorbell_batches, which is still zero
  s.coalesced_slots = 4;
  EXPECT_EQ(FlushedNames(s).count("rfp.channel.batched_ops"), 0u);
  EXPECT_EQ(FlushedNames(s).count("rfp.channel.coalesced_slots"), 0u);

  s.doorbell_batches = 1;
  s.zero_copy_sends = 1;
  s.reissues = 2;
  const std::set<std::string> names = FlushedNames(s);
  for (const char* name :
       {"rfp.channel.doorbell_batches", "rfp.channel.batched_ops", "rfp.channel.batch_occupancy",
        "rfp.channel.submit_window", "rfp.channel.zero_copy_sends",
        "rfp.channel.zero_copy_fetches", "rfp.channel.zero_copy_bytes",
        "rfp.channel.zero_copy_fallbacks", "rfp.channel.reissues"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
  EXPECT_EQ(names.count("rfp.channel.coalesced_slots"), 0u);
  EXPECT_EQ(names.count("rfp.channel.reconnects"), 0u);
}

TEST(StatsCatalogTest, FlushAddsCountersSetsGaugesMergesHistograms) {
  obs::MetricsRegistry reg;
  const obs::Labels labels{{"node", "n"}};
  mem::Pool::Stats pool;
  pool.allocs = 5;
  pool.in_use_bytes = 64;
  obs::Flush(reg, labels, pool);
  pool.in_use_bytes = 32;
  obs::Flush(reg, labels, pool);
  EXPECT_EQ(reg.GetCounter("mem.alloc", labels)->value(), 10u);
  EXPECT_EQ(reg.GetGauge("mem.in_use_bytes", labels)->value(), 32.0);

  Stats s;
  s.retries_per_call.Record(2);
  obs::Flush(reg, labels, s);
  obs::Flush(reg, labels, s);
  EXPECT_EQ(reg.GetHistogram("rfp.channel.retries_per_call", labels)->count(), 2u);
}

}  // namespace
