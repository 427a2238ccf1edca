#include "tracer.h"

#include <cstdio>

#include "perfbench.h"

namespace vcop::perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, u64 job)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<i64>(tracer_->spans_.size());
  tracer_->spans_.push_back(Span{name, HostNs(), 0.0, job, tracer_->open_});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[static_cast<usize>(index_)];
  span.end_ns = HostNs();
  tracer_->open_ = span.parent;
}

std::map<std::string, Tracer::CallStats> Tracer::Summarize() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<usize>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, CallStats> out;
  for (usize i = 0; i < spans_.size(); ++i) {
    const double total = spans_[i].end_ns - spans_[i].start_ns;
    CallStats& stats = out[spans_[i].name];
    ++stats.count;
    stats.total_ns += total;
    stats.self_ns += total - child_ns[i];
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"start_ns\":%.0f,\"end_ns\":%.0f,"
                 "\"job\":%llu,\"parent\":%lld}\n",
                 span.name, span.start_ns - origin, span.end_ns - origin,
                 static_cast<unsigned long long>(span.job),
                 static_cast<long long>(span.parent));
  }
  return std::fclose(file) == 0;
}

}  // namespace vcop::perfbench
