// The benchmark binary, vcop_perfbench.
//
//   vcop_perfbench --workload W --seed N --seconds S --trace 0|1
//       One run. The last stdout line is the JSON result: end-to-end
//       metrics with --trace 0, per-layer metrics with --trace 1.
//       Exit code 0 only if every job matched its software reference
//       and every simulated figure repeated exactly across rounds.
//   vcop_perfbench --selftest
//       Determinism and seed checks (see SelfTest below).
//   vcop_perfbench --coverage [--seconds S] [--seed N]
//       Traced run of every workload; checks that each layer group is
//       heaviest on its own workload and small on another.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/table.h"
#include "layer_stats.h"
#include "runner.h"

namespace vcop::perfbench {
namespace {

void PrintResult(const RunReport& report) {
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed));
  for (usize i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", m.name.c_str(), value,
                      m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  return ok;
}

/// Runs `rounds` rounds of the workload's primary path.
std::vector<RoundResult> Rounds(const Workload& w,
                                const os::KernelConfig& config, usize rounds) {
  std::vector<RoundResult> out;
  for (usize i = 0; i < rounds; ++i) {
    out.push_back(RunRound(w, config, w.primary, nullptr));
  }
  return out;
}

/// Everything simulated that a round reports, as comparable values: the
/// per-job simulated times, makespan, figure-point times and counters
/// (digest), plus the workload-only figures.
struct SimFigures {
  u64 digest = 0;
  std::vector<Metric> sim_metrics;
  double paper_err = 0;
  double jain = 0;
  bool operator==(const SimFigures& o) const {
    if (digest != o.digest || paper_err != o.paper_err || jain != o.jain ||
        sim_metrics.size() != o.sim_metrics.size()) {
      return false;
    }
    for (usize i = 0; i < sim_metrics.size(); ++i) {
      if (sim_metrics[i].value != o.sim_metrics[i].value) return false;
    }
    return true;
  }
};

SimFigures Figures(const Workload& w, const std::vector<RoundResult>& rounds) {
  SimFigures f;
  f.digest = rounds.front().sim_digest;
  std::vector<std::string> notes;
  for (Metric& m : EndToEndMetrics(rounds, w.primary, notes)) {
    if (m.name.rfind("sim_", 0) == 0 && m.name != "sim_accesses_per_host_s") {
      f.sim_metrics.push_back(m);
    }
  }
  f.paper_err = PaperErrorPct(rounds.front(), w.config);
  f.jain = FairnessJain(rounds.front(), w);
  return f;
}

/// The benchmark's own tests:
///  - one seed: every simulated metric, paper_err_pct, fairness_jain and
///    every layer counter repeats exactly, within a run and across
///    independently built runs, and every job matches its reference;
///  - another seed changes the inputs;
///  - a shortened stream_ff with fast-forward off gives the same
///    simulated results as with it on (a simulator-only speedup must
///    keep this).
int SelfTest() {
  constexpr u64 kSeed = 20040216;
  bool ok = true;
  for (const std::string& name : WorkloadNames()) {
    Workload a, b, c;
    MakeWorkload(name, kSeed, a);
    MakeWorkload(name, kSeed, b);
    MakeWorkload(name, kSeed + 1, c);
    const std::vector<RoundResult> ra = Rounds(a, a.config, 2);
    const std::vector<RoundResult> rb = Rounds(b, b.config, 1);
    const std::vector<RoundResult> rc = Rounds(c, c.config, 1);
    u64 failed = 0;
    for (const auto* rounds : {&ra, &rb, &rc}) {
      for (const RoundResult& r : *rounds) failed += r.failed;
    }
    ok &= Check(failed == 0, name + ": every job matches its reference");
    ok &= Check(ra[0].sim_digest == ra[1].sim_digest,
                name + ": rounds of one run repeat exactly");
    ok &= Check(Figures(a, ra) == Figures(b, rb),
                name + ": a second run of the seed repeats every simulated "
                       "metric and counter");
    ok &= Check(ra[0].input_digest != rc[0].input_digest,
                name + ": another seed changes the inputs");
  }
  Workload on, off;
  MakeWorkload("stream_ff", kSeed, on);
  on.jobs.resize(20);
  off = on;
  off.config.sim_tuning.fastforward = false;
  const RoundResult r_on = RunRound(on, on.config, on.primary, nullptr);
  const RoundResult r_off = RunRound(off, off.config, off.primary, nullptr);
  LayerCounters c_on = r_on.counters, c_off = r_off.counters;
  c_on.events = c_off.events = 0;  // the one figure fast-forward may cut
  ok &= Check(r_on.failed == 0 && r_off.failed == 0 &&
                  r_on.job_sim_ps == r_off.job_sim_ps &&
                  r_on.makespan == r_off.makespan &&
                  CounterDigest(0, c_on) == CounterDigest(0, c_off),
              "stream_ff: fast-forward off gives identical simulated "
              "results");
  std::printf("%s\n", ok ? "selftest passed" : "selftest FAILED");
  return ok ? 0 : 1;
}

/// Traced run of every workload. A layer group passes when its share of
/// host time is highest on its own workload and at most half that share
/// on at least one other workload.
int Coverage(const RunOptions& base) {
  struct Group {
    const char* name;
    const char* home;
    double RunReport::*share;
  };
  static constexpr Group kGroups[] = {
      {"per-access (hw.imu, cp, mem.dp_ram)", "stream_ff",
       &RunReport::per_access_share},
      {"fault service (os.vim, mem.transfer)", "fault_thrash",
       &RunReport::fault_share},
      {"per-job (os.vcopd, os.service, hw.fabric)", "service_mix",
       &RunReport::per_job_share},
  };
  std::vector<RunReport> reports;
  bool correct = true;
  for (const std::string& name : WorkloadNames()) {
    Workload w;
    MakeWorkload(name, base.seed, w);
    RunOptions options = base;
    options.workload = name;
    reports.push_back(RunTraced(w, options));
    correct &= reports.back().correct;
    for (const std::string& note : reports.back().notes) {
      std::printf("# %s: %s\n", name.c_str(), note.c_str());
    }
  }
  std::printf("\nShare of host time by layer group\n%-44s", "group");
  for (const std::string& name : WorkloadNames()) {
    std::printf(" %12s", name.c_str());
  }
  std::printf("\n");
  bool ok = correct;
  for (const Group& g : kGroups) {
    std::printf("%-44s", g.name);
    double home = 0, lowest_other = 1;
    bool heaviest = true;
    for (usize i = 0; i < reports.size(); ++i) {
      const double share = reports[i].*g.share;
      std::printf(" %12.3f", share);
      if (WorkloadNames()[i] == g.home) home = share;
    }
    for (usize i = 0; i < reports.size(); ++i) {
      if (WorkloadNames()[i] == g.home) continue;
      const double share = reports[i].*g.share;
      heaviest &= share < home;
      lowest_other = std::min(lowest_other, share);
    }
    const bool small_elsewhere = lowest_other <= 0.5 * home;
    std::printf("  %s\n", heaviest && small_elsewhere ? "ok" : "FLAG");
    if (!heaviest) {
      std::printf("FLAG %s is not heaviest on %s\n", g.name, g.home);
    }
    if (!small_elsewhere) {
      std::printf("FLAG %s is not small (<= half its %s share) on any other "
                  "workload\n",
                  g.name, g.home);
    }
    ok &= heaviest && small_elsewhere;
  }
  std::printf("%s\n", ok ? "coverage ok" : "coverage FLAGGED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: vcop_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--out-dir D]\n"
               "       vcop_perfbench --selftest\n"
               "       vcop_perfbench --coverage [--seconds S] [--seed N]\n");
  return 2;
}

}  // namespace
}  // namespace vcop::perfbench

int main(int argc, char** argv) {
  using namespace vcop::perfbench;
  RunOptions options;
  int trace = -1;
  bool selftest = false, coverage = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--coverage") {
      coverage = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (selftest) return SelfTest();
  if (!(options.seconds > 0)) return Usage();
  if (coverage) return Coverage(options);
  Workload workload;
  if ((trace != 0 && trace != 1) ||
      !MakeWorkload(options.workload, options.seed, workload)) {
    return Usage();
  }
  const RunReport report = trace == 1 ? RunTraced(workload, options)
                                      : RunEndToEnd(workload, options);
  PrintResult(report);
  return report.correct && report.failed == 0 ? 0 : 1;
}
