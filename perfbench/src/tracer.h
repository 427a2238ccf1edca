// In-memory span recorder for the traced run.
//
// One span per public call the benchmark makes: name, host start and
// end, the job it belongs to and the span that encloses it. Spans stay
// in memory and are written out once, when the run ends. A null Tracer
// pointer means tracing is off; Scope then does nothing.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "base/types.h"

namespace vcop::perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    double start_ns;
    double end_ns;
    u64 job;
    i64 parent;  // index into spans(), -1 for a root span
  };

  static constexpr u32 kRoundShift = 24;

  struct CallStats {
    u64 count = 0;
    double total_ns = 0;
    double self_ns = 0;  // total minus the time of direct child spans
  };

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, u64 job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    i64 index_ = -1;
  };

  /// Span ids carry the round in their upper bits: all spans of one
  /// job share its JobId, spans of the round itself carry RoundId.
  void BeginRound() { ++round_; }
  u64 RoundId() const { return round_ << kRoundShift; }
  u64 JobId(usize index) const { return RoundId() | (index + 1); }
  static u64 RoundOf(u64 id) { return id >> kRoundShift; }
  static usize IndexOf(u64 id) {
    return static_cast<usize>(id & ((u64{1} << kRoundShift) - 1)) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Count, total and self time per span name.
  std::map<std::string, CallStats> Summarize() const;
  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  i64 open_ = -1;  // innermost open span
  u64 round_ = 0;
};

}  // namespace vcop::perfbench
