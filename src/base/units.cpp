#include "base/units.h"

#include <cstdio>

namespace vcop {

Picoseconds Frequency::EdgeTimeWide(u64 cycle) const {
  const unsigned __int128 num =
      static_cast<unsigned __int128>(cycle) * ps_num_;
  return static_cast<Picoseconds>(num / ps_den_);
}

u64 Frequency::CyclesAtWide(Picoseconds t) const {
  const unsigned __int128 scaled =
      (static_cast<unsigned __int128>(t) + 1) * ps_den_ - 1;
  return static_cast<u64>(scaled / ps_num_);
}

u64 Frequency::FirstEdgeAtOrAfterWide(Picoseconds t) const {
  const unsigned __int128 scaled =
      static_cast<unsigned __int128>(t) * ps_den_ + (ps_num_ - 1);
  return static_cast<u64>(scaled / ps_num_);
}

std::string Frequency::ToString() const {
  char buf[32];
  if (hertz_ % 1'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%llu MHz",
                  static_cast<unsigned long long>(hertz_ / 1'000'000));
  } else if (hertz_ >= 1'000'000) {
    std::snprintf(buf, sizeof buf, "%.2f MHz", hertz_ / 1e6);
  } else if (hertz_ % 1'000 == 0) {
    std::snprintf(buf, sizeof buf, "%llu kHz",
                  static_cast<unsigned long long>(hertz_ / 1'000));
  } else {
    std::snprintf(buf, sizeof buf, "%llu Hz",
                  static_cast<unsigned long long>(hertz_));
  }
  return buf;
}

double ToMilliseconds(Picoseconds t) { return static_cast<double>(t) / 1e9; }

double ToMicroseconds(Picoseconds t) { return static_cast<double>(t) / 1e6; }

std::string FormatDuration(Picoseconds t) {
  char buf[32];
  if (t >= 1'000'000'000ULL) {
    std::snprintf(buf, sizeof buf, "%.2f ms", ToMilliseconds(t));
  } else if (t >= 1'000'000ULL) {
    std::snprintf(buf, sizeof buf, "%.2f us", ToMicroseconds(t));
  } else if (t >= 1'000ULL) {
    std::snprintf(buf, sizeof buf, "%.2f ns", static_cast<double>(t) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%llu ps",
                  static_cast<unsigned long long>(t));
  }
  return buf;
}

}  // namespace vcop
