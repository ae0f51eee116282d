// Declared stats catalogs. A component lists its stats once, as an X-macro
// of rows X(kind, field, "metric.name", gate, "help"):
//
//   kind  counter (uint64_t, flushed with Add), gauge (uint64_t, Set) or
//         histogram (sim::Histogram, Merge);
//   gate  always; self (only when the field is non-zero or holds a sample);
//         or when(sibling) (only when that counter is non-zero). The
//         registry creates an instrument even for Add(0), so the gate
//         decides which names a run's --json lists;
//   help  one line, repeated in docs/observability.md.
//
// `struct Stats { OBS_STATS(Stats, LIST) };` declares the fields and a static
// ForEachStat visitor that obs::Flush and obs::Merge walk. Comments inside a
// list must be /* */: a // comment on a line ending in \ swallows the next row.

#ifndef SRC_OBS_CATALOG_H_
#define SRC_OBS_CATALOG_H_

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "src/obs/metrics.h"
#include "src/sim/stats.h"

#define OBS_STATS(Self, LIST)               \
  LIST(OBS_STAT_FIELD_)                     \
  template <typename V>                     \
  static void ForEachStat(const V& visit) { \
    using ObsSelf_ = Self;                  \
    LIST(OBS_STAT_VISIT_)                   \
  }
#define OBS_STAT_FIELD_(kind, field, name, gate, help) OBS_STAT_TYPE_##kind field{};
#define OBS_STAT_VISIT_(kind, field, name, gate, help) \
  visit(&ObsSelf_::field, OBS_STAT_KIND_##kind, name, OBS_STAT_GATE_##gate, help);
#define OBS_STAT_TYPE_counter uint64_t
#define OBS_STAT_TYPE_gauge uint64_t
#define OBS_STAT_TYPE_histogram ::sim::Histogram
#define OBS_STAT_KIND_counter ::obs::StatKind::kCounter
#define OBS_STAT_KIND_gauge ::obs::StatKind::kGauge
#define OBS_STAT_KIND_histogram ::obs::StatKind::kHistogram
#define OBS_STAT_GATE_always ::obs::GateAlways{}
#define OBS_STAT_GATE_self ::obs::GateSelf{}
#define OBS_STAT_GATE_when(sibling) &ObsSelf_::sibling

namespace obs {

enum class StatKind { kCounter, kGauge, kHistogram };
struct GateAlways {};
struct GateSelf {};

namespace internal {
template <typename S, typename T>
bool Open(const S&, const T&, GateAlways) { return true; }
template <typename S>
bool Open(const S&, uint64_t v, GateSelf) { return v != 0; }
template <typename S>
bool Open(const S&, const sim::Histogram& h, GateSelf) { return h.count() > 0; }
template <typename S, typename T>
bool Open(const S& s, const T&, uint64_t S::*sibling) { return s.*sibling != 0; }
}  // namespace internal

// Writes every listed stat of `s` whose gate is open into `reg`.
template <typename S>
void Flush(MetricsRegistry& reg, const Labels& labels, const S& s) {
  S::ForEachStat([&](auto field, StatKind kind, std::string_view name, auto gate, const char*) {
    const auto& v = s.*field;
    if (!internal::Open(s, v, gate)) {
      return;
    }
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, sim::Histogram>) {
      reg.GetHistogram(name, labels)->Merge(v);
    } else if (kind == StatKind::kGauge) {
      reg.GetGauge(name, labels)->Set(static_cast<double>(v));
    } else {
      reg.GetCounter(name, labels)->Add(v);
    }
  });
}

// Adds every listed stat of `from` into `into` (histograms merge).
template <typename S>
void Merge(S& into, const S& from) {
  S::ForEachStat([&](auto field, StatKind, std::string_view, auto, const char*) {
    if constexpr (std::is_same_v<std::decay_t<decltype(into.*field)>, sim::Histogram>) {
      (into.*field).Merge(from.*field);
    } else {
      into.*field += from.*field;
    }
  });
}

}  // namespace obs

#endif  // SRC_OBS_CATALOG_H_
