// Virtual time for the discrete-event cluster simulator.
//
// All latencies, costs and task durations are expressed in integer nanoseconds so arithmetic
// is exact and runs are bit-reproducible. Helpers construct durations from the units the
// paper reports (µs for control-plane costs, ms/s for iteration times).

#ifndef NIMBUS_SRC_SIM_VIRTUAL_TIME_H_
#define NIMBUS_SRC_SIM_VIRTUAL_TIME_H_

#include <cstdint>

namespace nimbus::sim {

// A span of virtual time in nanoseconds.
using Duration = std::int64_t;

// An absolute virtual time in nanoseconds since simulation start.
using TimePoint = std::int64_t;

constexpr Duration Nanos(std::int64_t n) { return n; }
constexpr Duration Micros(double us) { return static_cast<Duration>(us * 1e3); }
constexpr Duration Millis(double ms) { return static_cast<Duration>(ms * 1e6); }
constexpr Duration Seconds(double s) { return static_cast<Duration>(s * 1e9); }

constexpr double ToMillis(Duration d) { return static_cast<double>(d) / 1e6; }
constexpr double ToSeconds(Duration d) { return static_cast<double>(d) / 1e9; }

}  // namespace nimbus::sim

#endif  // NIMBUS_SRC_SIM_VIRTUAL_TIME_H_
