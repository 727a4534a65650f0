// Time representation for the discrete-event simulator.
//
// All simulation time is kept in int64 picoseconds. At 100 Gbps one byte
// serializes in exactly 80 ps, so link arithmetic is exact with no floating
// point drift; an int64 covers ~106 days of simulated time.
#pragma once

#include <cmath>
#include <cstdint>

namespace hpcc::sim {

using TimePs = int64_t;

inline constexpr TimePs kPsPerNs = 1'000;
inline constexpr TimePs kPsPerUs = 1'000'000;
inline constexpr TimePs kPsPerMs = 1'000'000'000;
inline constexpr TimePs kPsPerSec = 1'000'000'000'000;

constexpr TimePs Ns(int64_t v) { return v * kPsPerNs; }
constexpr TimePs Us(int64_t v) { return v * kPsPerUs; }
constexpr TimePs Ms(int64_t v) { return v * kPsPerMs; }
constexpr TimePs Sec(int64_t v) { return v * kPsPerSec; }

// The nearest picosecond to `value` units of `ps_per_unit` ps each — the one
// conversion of a decimal time read from a document (a µs or ms value):
// rounding, not truncation, so a value written at ps resolution lands on
// the ps it names (0.000507 µs is 507 ps, as a trace_file row reads it).
inline TimePs RoundToPs(double value, double ps_per_unit) {
  return static_cast<TimePs>(std::llround(value * ps_per_unit));
}

constexpr double ToUs(TimePs t) { return static_cast<double>(t) / kPsPerUs; }
constexpr double ToMs(TimePs t) { return static_cast<double>(t) / kPsPerMs; }
constexpr double ToSec(TimePs t) { return static_cast<double>(t) / kPsPerSec; }

// Serialization time of `bytes` on a link of `bps` bits/second.
constexpr TimePs SerializationTime(int64_t bytes, int64_t bps) {
  // bytes*8*1e12/bps; bytes here are packet-sized (<64KB) so the product
  // bytes*8*kPsPerSec stays far below int64 overflow only for bps >= ~57bps.
  // Compute in long double-free integer form via 128-bit intermediate.
  return static_cast<TimePs>((static_cast<__int128>(bytes) * 8 * kPsPerSec) /
                             bps);
}

// Rate (bits/second) that sends `bytes` in time `t`.
constexpr int64_t RateBps(int64_t bytes, TimePs t) {
  if (t <= 0) return 0;
  return static_cast<int64_t>((static_cast<__int128>(bytes) * 8 * kPsPerSec) /
                              t);
}

inline constexpr int64_t kGbps = 1'000'000'000;

}  // namespace hpcc::sim
