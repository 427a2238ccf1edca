// Execution timelines: what the OS and the coprocessor were doing,
// when — exportable to the Chrome trace-event format (load the JSON in
// chrome://tracing or Perfetto).
//
// The ExecutionReport aggregates the paper's three time buckets; the
// timeline keeps the individual events (each fault service with its
// cause, every overlapped transfer unit, configuration and execution
// spans), which is what you actually stare at when a run is slower than
// expected.
//
// The recorder sits on the fault path, so it is off by default and
// bounded when on: Record() returns before touching anything until
// Enable() is called, records are fixed-size PODs (a kind plus integer
// arguments, no strings) in storage reserved once by Enable(), and a
// full recorder counts what it drops instead of growing. Event names
// are rendered only by ToChromeTrace().
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.h"
#include "base/units.h"

namespace vcop::os {

/// What a record describes; fixes its rendered name and category.
/// `a0`/`a1` are the record's two integer arguments, `design` its
/// interned design name.
enum class TimelineKind : u8 {
  kFault,           // "fault obj<a0> page<a1>"                    fault
  kPrefetch,        // "prefetch obj<a0> page<a1>"                 overlap
  kClean,           // "clean obj<a0> page<a1>"                    overlap
  kPreempt,         // "preempt pid<a0> obj<a1>"                   preempt
  kSweep,           // "end-of-operation sweep"                    transfer
  kConfigure,       // "configure <design>"                        config
  kExecute,         // "execute <design>"                          exec
  kVcopdConfigure,  // "vcopd configure <design>"                  config
  kVcopdActivate,   // "vcopd activate <design>"                   config
  kVcopdDispatch,   // "vcopd dispatch pid<a0> <design>"           exec
  kVcopdResume,     // "vcopd resume pid<a0> <design>"             exec
  kVcopdComplete,   // "vcopd complete pid<a0> <design>", a1 != 0
                    //   appends " (failed)"                       exec
  kRingDrain,       // "ring drain tenant<a0> x<a1>"               service
};

/// Chrome-trace category of `kind`: "fault", "overlap", "preempt",
/// "transfer", "config", "exec" or "service".
std::string_view TimelineCategory(TimelineKind kind);

struct TimelineRecord {
  Picoseconds start = 0;
  Picoseconds duration = 0;
  u64 a0 = 0;
  u64 a1 = 0;
  u32 design = 0;  // index into the recorder's design names
  TimelineKind kind = TimelineKind::kFault;
  /// Virtual lane: 0 = CPU/OS, 1 = coprocessor, 2 = background CPU,
  /// 3 = service daemon (vcopd dispatches, switches, preemptions).
  u8 track = 0;
};
static_assert(sizeof(TimelineRecord) == 40, "keep records compact");

class TimelineRecorder {
 public:
  /// Record budget: a full 64K-record trace is ~2.5 MB, far more than
  /// the examples and trace-identity benches record.
  static constexpr usize kCapacity = usize{1} << 16;

  /// Turns recording on, discarding anything recorded before. Storage
  /// for kCapacity records is reserved here and never grows; once full,
  /// further records are dropped and counted.
  void Enable();

  /// Records one span. A no-op (nothing formatted or stored) unless
  /// enabled. `design` is interned only for the kinds that name one.
  void Record(TimelineKind kind, u32 track, Picoseconds start,
              Picoseconds duration, u64 a0 = 0, u64 a1 = 0,
              std::string_view design = {}) {
    if (!enabled_) return;
    Append(kind, track, start, duration, a0, a1, design);
  }

  /// Kept records, oldest first.
  std::span<const TimelineRecord> events() const { return records_; }
  /// Records refused because the recorder was full.
  u64 dropped() const { return dropped_; }

  /// Forgets the records and the drop count; stays enabled.
  void Clear() {
    records_.clear();
    dropped_ = 0;
  }

  /// The record's event name, e.g. "fault obj0 page3".
  std::string Name(const TimelineRecord& record) const;

  /// Chrome trace-event JSON ("X" complete events, microsecond
  /// timestamps as the format requires).
  std::string ToChromeTrace() const;

 private:
  void Append(TimelineKind kind, u32 track, Picoseconds start,
              Picoseconds duration, u64 a0, u64 a1,
              std::string_view design);
  u32 Intern(std::string_view design);

  bool enabled_ = false;
  std::vector<TimelineRecord> records_;  // reserved to kCapacity
  u64 dropped_ = 0;
  std::vector<std::string> designs_;
};

}  // namespace vcop::os
