// Physical units for the simulation: picosecond timestamps and clock
// frequencies, plus drift-free cycle<->time conversion.
//
// The modelled SoC mixes four clock domains (ARM 133 MHz, ADPCM core
// 40 MHz, IDEA memory subsystem 24 MHz, IDEA core 6 MHz). None of their
// periods is an integer number of picoseconds, so the conversion from a
// cycle *count* to a timestamp is done as one 128-bit multiply-divide per
// query — edge k of an f-Hz clock is at floor(k * 1e12 / f) ps — rather
// than by accumulating a rounded period, which would drift.
#pragma once

#include <algorithm>
#include <bit>
#include <compare>
#include <limits>
#include <numeric>
#include <string>

#include "base/status.h"
#include "base/types.h"

namespace vcop {

/// A simulation timestamp in integer picoseconds since t=0.
/// 2^63 ps ≈ 106 days of simulated time — far beyond any experiment here.
using Picoseconds = u64;

constexpr Picoseconds kPicosecondsPerSecond = 1'000'000'000'000ULL;

/// A clock frequency in hertz. Strongly typed so a raw cycle count can
/// never be mistaken for a frequency in an interface.
class Frequency {
 public:
  constexpr Frequency() = default;
  constexpr explicit Frequency(u64 hertz) : hertz_(hertz) {
    if (hertz > 0) {
      const u64 g = std::gcd(kPicosecondsPerSecond, hertz);
      ps_num_ = kPicosecondsPerSecond / g;
      ps_den_ = hertz / g;
      edge_fast_max_ = std::numeric_limits<u64>::max() / ps_num_;
      grid_fast_max_ = (std::numeric_limits<u64>::max() -
                        std::max(ps_num_, ps_den_)) /
                       ps_den_;
      div_num_ = U64Div(ps_num_);
      div_den_ = U64Div(ps_den_);
    }
  }

  static constexpr Frequency MHz(u64 mhz) { return Frequency(mhz * 1'000'000); }
  static constexpr Frequency KHz(u64 khz) { return Frequency(khz * 1'000); }

  constexpr u64 hertz() const { return hertz_; }
  constexpr bool valid() const { return hertz_ > 0; }

  /// Timestamp of rising edge `cycle` (edge 0 at t=0). Drift-free:
  /// floor(cycle * 1e12 / hertz), computed with the reduced fraction
  /// 1e12/hertz = ps_num_/ps_den_ so the modelled MHz-scale clocks
  /// (whose ps_den_ fits in a few bits) stay in 64-bit arithmetic; odd
  /// frequencies or huge cycle counts fall back to a 128-bit divide.
  /// Integer-picosecond clocks (ps_den_ == 1) need no divide at all.
  Picoseconds EdgeTime(u64 cycle) const {
    VCOP_CHECK_MSG(valid(), "EdgeTime on a zero frequency");
    if (cycle <= edge_fast_max_) {
      const u64 scaled = cycle * ps_num_;
      return ps_den_ == 1 ? scaled : div_den_.Divide(scaled);
    }
    return EdgeTimeWide(cycle);
  }

  /// Number of complete cycles of this clock elapsed at time `t`,
  /// i.e. the largest k with EdgeTime(k) <= t. Since EdgeTime(k) =
  /// floor(k*num/den), EdgeTime(k) <= t  <=>  k*num < (t+1)*den, so
  /// k = ((t+1)*den - 1) / num exactly — one divide.
  u64 CyclesAt(Picoseconds t) const {
    VCOP_CHECK_MSG(valid(), "CyclesAt on a zero frequency");
    if (t <= grid_fast_max_) return div_num_.Divide((t + 1) * ps_den_ - 1);
    return CyclesAtWide(t);
  }

  /// The first edge at or after time `t`: the smallest k with
  /// EdgeTime(k) >= t. For integer t, floor(x) >= t  <=>  x >= t, so
  /// k = ceil(t*den/num) — one divide.
  u64 FirstEdgeAtOrAfter(Picoseconds t) const {
    VCOP_CHECK_MSG(valid(), "FirstEdgeAtOrAfter on a zero frequency");
    if (t <= grid_fast_max_) {
      return div_num_.Divide(t * ps_den_ + (ps_num_ - 1));
    }
    return FirstEdgeAtOrAfterWide(t);
  }

  /// Duration of `cycles` cycles, rounded down to integer picoseconds.
  Picoseconds Duration(u64 cycles) const { return EdgeTime(cycles); }

  /// e.g. "133 MHz", "24 MHz", "1.5 MHz" (two decimals max).
  std::string ToString() const;

  friend constexpr bool operator==(Frequency a, Frequency b) {
    return a.hertz_ == b.hertz_;
  }
  friend constexpr auto operator<=>(Frequency a, Frequency b) {
    return a.hertz_ <=> b.hertz_;
  }

 private:
  /// Division by a fixed u64 divisor as one multiply-high: the classic
  /// ceil(2^p / d) reciprocal. With p = 63 + floor(log2 d) the
  /// multiplier fits 64 bits and floor(n/d) == (n * mul) >> p exactly
  /// for every n < 2^p / d — proved by frac(n/d) + n*(mul*d - 2^p) /
  /// (d * 2^p) < 1 under that bound. Callers guard with exact_below and
  /// fall back to a hardware divide; divides dominate the simulation
  /// kernel's edge<->time conversions, so this is worth the ceremony.
  struct U64Div {
    u64 d = 1;
    u64 mul = 0;
    u32 shift = 0;
    u64 exact_below = 0;  // multiply path exact for dividends < this

    constexpr U64Div() = default;
    constexpr explicit U64Div(u64 divisor) : d(divisor) {
      shift = 63 + (std::bit_width(d) - 1);
      const unsigned __int128 p = static_cast<unsigned __int128>(1) << shift;
      mul = static_cast<u64>((p + d - 1) / d);
      const unsigned __int128 limit = p / d;
      exact_below = limit > std::numeric_limits<u64>::max()
                        ? std::numeric_limits<u64>::max()
                        : static_cast<u64>(limit);
    }

    u64 Divide(u64 n) const {
      if (n < exact_below) {
        return static_cast<u64>(
            (static_cast<unsigned __int128>(n) * mul) >> shift);
      }
      return n / d;
    }
  };

  Picoseconds EdgeTimeWide(u64 cycle) const;
  u64 CyclesAtWide(Picoseconds t) const;
  u64 FirstEdgeAtOrAfterWide(Picoseconds t) const;

  u64 hertz_ = 0;
  // Reduced fraction: 1e12 / hertz_ == ps_num_ / ps_den_ exactly.
  u64 ps_num_ = 0;
  u64 ps_den_ = 1;
  u64 edge_fast_max_ = 0;  // largest cycle with cycle*ps_num_ in 64 bits
  // Largest t whose (t+1)*ps_den_ and t*ps_den_ + ps_num_ - 1 both fit
  // 64 bits (the CyclesAt and FirstEdgeAtOrAfter dividends).
  u64 grid_fast_max_ = 0;
  U64Div div_num_;           // divide-by-ps_num_ reciprocal
  U64Div div_den_;           // divide-by-ps_den_ reciprocal
};

/// Converts a picosecond duration to fractional milliseconds
/// (for report tables matching the paper's ms axes).
double ToMilliseconds(Picoseconds t);

/// Converts a picosecond duration to fractional microseconds.
double ToMicroseconds(Picoseconds t);

/// Formats a duration with an auto-selected unit, e.g. "3.42 ms".
std::string FormatDuration(Picoseconds t);

}  // namespace vcop
