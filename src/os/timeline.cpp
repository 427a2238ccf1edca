#include "os/timeline.h"

#include "base/status.h"
#include "base/table.h"

namespace vcop::os {

namespace {
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

bool NamesDesign(TimelineKind kind) {
  switch (kind) {
    case TimelineKind::kConfigure:
    case TimelineKind::kExecute:
    case TimelineKind::kVcopdConfigure:
    case TimelineKind::kVcopdActivate:
    case TimelineKind::kVcopdDispatch:
    case TimelineKind::kVcopdResume:
    case TimelineKind::kVcopdComplete:
      return true;
    default:
      return false;
  }
}
}  // namespace

std::string_view TimelineCategory(TimelineKind kind) {
  switch (kind) {
    case TimelineKind::kFault: return "fault";
    case TimelineKind::kPrefetch:
    case TimelineKind::kClean: return "overlap";
    case TimelineKind::kPreempt: return "preempt";
    case TimelineKind::kSweep: return "transfer";
    case TimelineKind::kConfigure:
    case TimelineKind::kVcopdConfigure:
    case TimelineKind::kVcopdActivate: return "config";
    case TimelineKind::kExecute:
    case TimelineKind::kVcopdDispatch:
    case TimelineKind::kVcopdResume:
    case TimelineKind::kVcopdComplete: return "exec";
    case TimelineKind::kRingDrain: return "service";
  }
  return "?";
}

void TimelineRecorder::Enable() {
  enabled_ = true;
  records_ = std::vector<TimelineRecord>();
  records_.reserve(kCapacity);
  dropped_ = 0;
}

void TimelineRecorder::Append(TimelineKind kind, u32 track,
                              Picoseconds start, Picoseconds duration,
                              u64 a0, u64 a1, std::string_view design) {
  if (records_.size() == kCapacity) {
    ++dropped_;
    return;
  }
  TimelineRecord record;
  record.start = start;
  record.duration = duration;
  record.a0 = a0;
  record.a1 = a1;
  record.design = NamesDesign(kind) ? Intern(design) : 0;
  record.kind = kind;
  record.track = static_cast<u8>(track);
  records_.push_back(record);
}

u32 TimelineRecorder::Intern(std::string_view design) {
  // A platform runs a handful of designs; a linear scan beats hashing.
  for (usize i = 0; i < designs_.size(); ++i) {
    if (designs_[i] == design) return static_cast<u32>(i);
  }
  designs_.emplace_back(design);
  return static_cast<u32>(designs_.size() - 1);
}

std::string TimelineRecorder::Name(const TimelineRecord& r) const {
  const unsigned a0 = static_cast<unsigned>(r.a0);
  const unsigned a1 = static_cast<unsigned>(r.a1);
  const char* design =
      NamesDesign(r.kind) ? designs_[r.design].c_str() : "";
  switch (r.kind) {
    case TimelineKind::kFault: return StrFormat("fault obj%u page%u", a0, a1);
    case TimelineKind::kPrefetch:
      return StrFormat("prefetch obj%u page%u", a0, a1);
    case TimelineKind::kClean: return StrFormat("clean obj%u page%u", a0, a1);
    case TimelineKind::kPreempt:
      return StrFormat("preempt pid%u obj%u", a0, a1);
    case TimelineKind::kSweep: return "end-of-operation sweep";
    case TimelineKind::kConfigure: return StrFormat("configure %s", design);
    case TimelineKind::kExecute: return StrFormat("execute %s", design);
    case TimelineKind::kVcopdConfigure:
      return StrFormat("vcopd configure %s", design);
    case TimelineKind::kVcopdActivate:
      return StrFormat("vcopd activate %s", design);
    case TimelineKind::kVcopdDispatch:
      return StrFormat("vcopd dispatch pid%u %s", a0, design);
    case TimelineKind::kVcopdResume:
      return StrFormat("vcopd resume pid%u %s", a0, design);
    case TimelineKind::kVcopdComplete:
      return StrFormat("vcopd complete pid%u %s%s", a0, design,
                       r.a1 != 0 ? " (failed)" : "");
    case TimelineKind::kRingDrain:
      return StrFormat("ring drain tenant%u x%llu", a0,
                       static_cast<unsigned long long>(r.a1));
  }
  return "?";
}

std::string TimelineRecorder::ToChromeTrace() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TimelineRecord& record : records_) {
    if (!first) out += ',';
    first = false;
    out += StrFormat(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
        JsonEscape(Name(record)).c_str(),
        TimelineCategory(record.kind).data(),  // literals: NUL-terminated
        ToMicroseconds(record.start), ToMicroseconds(record.duration),
        static_cast<unsigned>(record.track));
  }
  out += "]}";
  return out;
}

}  // namespace vcop::os
