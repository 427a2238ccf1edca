// Timed runs of one workload and the metrics computed from them.
#pragma once

#include <string>
#include <vector>

#include "perfbench.h"

namespace vcop::perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string out_dir;
};

struct RunReport {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line: sample
  /// counts, workload-only figures and anything that went wrong.
  std::vector<std::string> notes;
  /// Layer-group shares of host time (traced run only).
  double per_access_share = 0;
  double fault_share = 0;
  double per_job_share = 0;
};

/// Untraced rounds for `seconds`: the end-to-end metrics.
RunReport RunEndToEnd(const Workload& workload, const RunOptions& options);

/// Traced rounds plus the replays that split host time by layer: the
/// per-layer metrics.
RunReport RunTraced(const Workload& workload, const RunOptions& options);

/// Simulated speedup error against the paper's Figures 8/9, in percent,
/// over the figure points of one round (stream_ff only).
double PaperErrorPct(const RoundResult& round, const os::KernelConfig& config);

/// Jain index over per-stream job throughput in simulated time.
double FairnessJain(const RoundResult& round, const Workload& workload);

/// The end-to-end metrics of `rounds`, all of one workload run along
/// `path`.
std::vector<Metric> EndToEndMetrics(const std::vector<RoundResult>& rounds,
                                    Path path,
                                    std::vector<std::string>& notes);

}  // namespace vcop::perfbench
