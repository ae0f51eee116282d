// Virtual time for the discrete-event simulator.
//
// Simulated time is an integer count of nanoseconds since simulation start.
// All latency/throughput modelling in src/rdma and src/rfp is expressed in
// these units; helpers below keep call sites readable.

#ifndef SRC_SIM_TIME_H_
#define SRC_SIM_TIME_H_

#include <cstdint>

namespace sim {

// Nanoseconds of virtual time. Signed so durations can be subtracted safely.
using Time = int64_t;

constexpr Time kTimeZero = 0;

constexpr Time Nanos(int64_t n) { return n; }
constexpr Time Micros(int64_t u) { return u * 1000; }
constexpr Time Millis(int64_t m) { return m * 1000 * 1000; }
constexpr Time Seconds(int64_t s) { return s * 1000 * 1000 * 1000; }

constexpr double ToMicros(Time t) { return static_cast<double>(t) / 1e3; }
constexpr double ToMillis(Time t) { return static_cast<double>(t) / 1e6; }
constexpr double ToSeconds(Time t) { return static_cast<double>(t) / 1e9; }

// Converts a rate expressed in million operations per second into the
// per-operation service gap, rounding to the nearest nanosecond.
constexpr Time GapFromMops(double mops) {
  return static_cast<Time>(1000.0 / mops + 0.5);
}

// Converts an average per-operation gap back into MOPS (for reporting).
constexpr double MopsFromGap(Time gap_ns) {
  return gap_ns > 0 ? 1000.0 / static_cast<double>(gap_ns) : 0.0;
}

// The first tick of the poll grid origin + k·period at or after `t`
// (t >= origin): where a loop polling every `period` from `origin` first
// looks at something that happened at `t`.
constexpr Time TickAtOrAfter(Time origin, Time period, Time t) {
  return origin + (t - origin + period - 1) / period * period;
}

}  // namespace sim

#endif  // SRC_SIM_TIME_H_
