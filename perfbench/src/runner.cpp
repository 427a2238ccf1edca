#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <numeric>

#include "apps/sw_model.h"
#include "base/table.h"
#include "tracer.h"

namespace vcop::perfbench {
namespace {

double Div(double a, double b) { return b == 0 ? 0 : a / b; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The highest percentile with at least ten samples beyond it.
struct Tail {
  double value = 0;
  double percentile = 100;
  usize samples = 0;
};
Tail TailOf(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  if (v.size() <= 10) {
    tail.value = v.back();
    return tail;
  }
  const usize index = v.size() - 11;
  tail.value = v[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(v.size());
  return tail;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double PsToMs(double ps) { return ps / 1e9; }

/// Sums attempted/failed into `report` and checks that every round
/// reproduced the first one's simulated results exactly.
void Settle(RunReport& report, const std::vector<RoundResult>& rounds,
            const char* phase) {
  u64 failed = 0;
  bool repeated = true;
  for (const RoundResult& r : rounds) {
    report.attempted += r.attempted;
    failed += r.failed;
    repeated &= r.sim_digest == rounds.front().sim_digest;
  }
  report.failed += failed;
  if (!repeated) {
    report.correct = false;
    report.notes.push_back(StrFormat(
        "ERROR %s: simulated results differ between rounds of one seed",
        phase));
  }
  if (failed > 0) {
    report.correct = false;
    report.notes.push_back(StrFormat(
        "ERROR %s: %llu jobs failed or mismatched their reference", phase,
        static_cast<unsigned long long>(failed)));
  }
}

void AddWorkloadNotes(RunReport& report, const Workload& workload,
                      const RoundResult& round) {
  report.notes.push_back(StrFormat(
      "jobs_failed_frac %.6g (%llu of %llu)",
      Div(static_cast<double>(report.failed),
          static_cast<double>(report.attempted)),
      static_cast<unsigned long long>(report.failed),
      static_cast<unsigned long long>(report.attempted)));
  if (workload.name == "stream_ff") {
    report.notes.push_back(StrFormat("paper_err_pct %.6f",
                                     PaperErrorPct(round, workload.config)));
  }
  if (workload.name == "service_mix") {
    report.notes.push_back(
        StrFormat("fairness_jain %.6f", FairnessJain(round, workload)));
  }
}

/// Span totals of one phase. Like the end-to-end host times, a call's
/// time per round is taken from the phase's fastest round.
struct CallTable {
  std::map<std::string, Tracer::CallStats> calls;
  std::map<std::string, std::map<u64, double>> per_round;  // name -> round
  double FastestRound(const char* name) const {
    auto it = per_round.find(name);
    if (it == per_round.end()) return 0;
    double fastest = it->second.begin()->second;
    for (const auto& [round, ns] : it->second) fastest = std::min(fastest, ns);
    return fastest;
  }
  double MeanPerCall(const char* name) const {
    auto it = calls.find(name);
    return it == calls.end() ? 0
                             : Div(it->second.total_ns,
                                   static_cast<double>(it->second.count));
  }
};

CallTable Table(const Tracer& tracer) {
  CallTable table{tracer.Summarize(), {}};
  for (const Tracer::Span& span : tracer.spans()) {
    table.per_round[span.name][Tracer::RoundOf(span.job)] +=
        span.end_ns - span.start_ns;
  }
  return table;
}

void NoteCalls(RunReport& report, const char* phase, const CallTable& t) {
  for (const auto& [name, stats] : t.calls) {
    report.notes.push_back(StrFormat(
        "span %-9s %-20s count %8llu  total %10.3f ms  self %10.3f ms",
        phase, name.c_str(), static_cast<unsigned long long>(stats.count),
        stats.total_ns / 1e6, stats.self_ns / 1e6));
  }
}

/// One series of rounds of the traced run.
struct Phase {
  const char* name;
  const Workload* workload;
  os::KernelConfig config;
  Path path;
  bool traced;
  Tracer tracer;
  std::vector<RoundResult> rounds;
  CallTable calls;
};

double Fastest(const std::vector<RoundResult>& rounds) {
  double ns = rounds.front().host_ns;
  for (const RoundResult& r : rounds) ns = std::min(ns, r.host_ns);
  return ns;
}

}  // namespace

double PaperErrorPct(const RoundResult& round,
                     const os::KernelConfig& config) {
  // Figure 8 (adpcmdecode 2/4/8 KB) and Figure 9 (IDEA 4-32 KB)
  // speedups of the VIM coprocessor over software.
  struct Point {
    Kind kind;
    u32 bytes;
    double paper;
  };
  static constexpr Point kPoints[] = {
      {Kind::kAdpcm, 2048, 1.5},  {Kind::kAdpcm, 4096, 1.5},
      {Kind::kAdpcm, 8192, 1.6},  {Kind::kIdea, 4096, 11},
      {Kind::kIdea, 8192, 12},    {Kind::kIdea, 16384, 11},
      {Kind::kIdea, 32768, 11}};
  apps::ArmTimingModel arm;
  arm.cpu_clock = config.costs.cpu_clock;
  double error = 0;
  usize points = 0;
  for (const Point& p : kPoints) {
    double sum = 0;
    usize count = 0;
    for (const auto& [spec, exec_ps] : round.figure_exec_ps) {
      if (spec->kind == p.kind && spec->size == p.bytes) {
        sum += static_cast<double>(exec_ps);
        ++count;
      }
    }
    if (count == 0) continue;
    const double sw = static_cast<double>(
        p.kind == Kind::kAdpcm ? arm.AdpcmDecodeTime(p.bytes)
                               : arm.IdeaEcbTime(p.bytes));
    const double speedup = sw / (sum / static_cast<double>(count));
    error += std::abs(speedup - p.paper) / p.paper;
    ++points;
  }
  return 100.0 * Div(error, static_cast<double>(points));
}

double FairnessJain(const RoundResult& round, const Workload& workload) {
  std::vector<double> jobs(workload.streams, 0);
  for (const JobSpec& spec : workload.jobs) ++jobs[spec.stream];
  double sum = 0, sum_sq = 0;
  for (usize s = 0; s < workload.streams; ++s) {
    const auto [first, last] = round.stream_span[s];
    const double x = Div(jobs[s], static_cast<double>(last - first) / 1e12);
    sum += x;
    sum_sq += x * x;
  }
  return Div(sum * sum, static_cast<double>(workload.streams) * sum_sq);
}

std::vector<Metric> EndToEndMetrics(const std::vector<RoundResult>& rounds,
                                    Path path,
                                    std::vector<std::string>& notes) {
  // Host times: every round runs the same jobs, and other load on the
  // machine only ever slows a job down, by up to 2x for seconds at a
  // time. The figure that repeats between runs is the fastest one, so
  // each job's host time is its fastest over the rounds. Blocking jobs
  // run back to back, so the job phase takes the sum of those; ring
  // jobs overlap, so it takes the fastest round.
  const RoundResult& first = rounds.front();
  const usize jobs = first.job_host_ns.size();
  std::vector<double> setup, job_ns(first.job_host_ns), sim_job_ns;
  double round_ns = first.host_ns;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_ns / 1e9);
    round_ns = std::min(round_ns, r.host_ns);
    for (usize i = 0; i < jobs; ++i) {
      job_ns[i] = std::min(job_ns[i], r.job_host_ns[i]);
    }
  }
  if (path == Path::kBlocking) {
    round_ns = std::accumulate(job_ns.begin(), job_ns.end(), 0.0);
  }
  // Simulated figures repeat exactly in every round; take the first.
  for (Picoseconds ps : first.job_sim_ps) {
    sim_job_ns.push_back(static_cast<double>(ps) / 1e3);
  }
  const Tail host_tail = TailOf(job_ns);
  const Tail sim_tail = TailOf(sim_job_ns);
  const double round_s = round_ns / 1e9;
  notes.push_back(StrFormat(
      "rounds %zu, %zu jobs per round; host times are each job's fastest "
      "round; host_job_ms_tail is p%.2f and sim_job_ms_tail p%.2f of %zu "
      "jobs",
      rounds.size(), jobs, host_tail.percentile, sim_tail.percentile, jobs));
  return {
      {"setup_s", Median(setup), "s"},
      {"host_jobs_per_s", Div(static_cast<double>(jobs), round_s), "1/s"},
      {"host_job_ms_p50", Median(job_ns) / 1e6, "ms"},
      {"host_job_ms_tail", host_tail.value / 1e6, "ms"},
      {"sim_accesses_per_host_s",
       Div(static_cast<double>(first.counters.accesses), round_s), "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"sim_jobs_per_s",
       Div(static_cast<double>(jobs),
           static_cast<double>(first.makespan) / 1e12),
       "1/s"},
      {"sim_job_ms_p50", Median(sim_job_ns) / 1e6, "ms"},
      {"sim_job_ms_tail", sim_tail.value / 1e6, "ms"},
  };
}

RunReport RunEndToEnd(const Workload& workload, const RunOptions& options) {
  RunReport report;
  std::vector<RoundResult> rounds;
  const double deadline = HostNs() + options.seconds * 1e9;
  do {
    rounds.push_back(
        RunRound(workload, workload.config, workload.primary, nullptr));
  } while (rounds.size() < 3 || HostNs() < deadline);
  Settle(report, rounds, workload.name.c_str());
  report.metrics = EndToEndMetrics(rounds, workload.primary, report.notes);
  AddWorkloadNotes(report, workload, rounds.front());
  return report;
}

RunReport RunTraced(const Workload& workload, const RunOptions& options) {
  RunReport report;
  const usize jobs = workload.jobs.size();

  // The probe: 8-byte adpcm jobs, whose Execute time is the fixed cost
  // of one FPGA_EXECUTE.
  Workload probe = workload;
  probe.name = workload.name + "/probe";
  probe.streams = 1;
  probe.jobs.assign(100, JobSpec{Kind::kAdpcm, 8, 0, 0, 0, false});
  for (usize i = 0; i < probe.jobs.size(); ++i) {
    probe.jobs[i].data_seed = options.seed + i;
  }
  // The roomy platform: every object fits in 8 KB superpages of a
  // 256 KB DP-RAM, so the same accesses see almost no faults.
  os::KernelConfig roomy = workload.config;
  roomy.dp_ram_bytes = 256 * 1024;
  roomy.tlb_entries = 32;
  roomy.object_page_bytes.fill(8 * 1024);

  // Phases, one round of each per iteration so that all of them see the
  // same host conditions:
  //  - the workload as run, traced and untraced (the gap is the tracing
  //    overhead);
  //  - the same jobs as blocking calls (service_mix only; the others
  //    are blocking already), whose Execute time is split by layer;
  //  - the blocking form on the roomy platform: the Execute time saved
  //    is the host cost of fault service;
  //  - the probe;
  //  - the same jobs through vcopd directly and through the rings. The
  //    ring and vcopd layers cannot be split by spans from outside, so
  //    their per-job cost is the difference between these replays.
  std::deque<Phase> phases;
  const auto add = [&](const char* name, const Workload& w,
                       const os::KernelConfig& config, Path path,
                       bool traced) -> Phase& {
    return phases.emplace_back(
        Phase{name, &w, config, path, traced, {}, {}, {}});
  };
  Phase& as_run = add("workload", workload, workload.config, workload.primary,
                      true);
  Phase& untraced = add("untraced", workload, workload.config,
                        workload.primary, false);
  Phase& blocking = workload.primary == Path::kBlocking
                        ? as_run
                        : add("blocking", workload, workload.config,
                              Path::kBlocking, true);
  Phase& roomy_run = add("roomy", workload, roomy, Path::kBlocking, true);
  Phase& probe_run = add("probe", probe, workload.config, Path::kBlocking,
                         true);
  Phase& direct = add("direct", workload, workload.config, Path::kDirect,
                      true);
  Phase& ring = workload.primary == Path::kRing
                    ? as_run
                    : add("ring", workload, workload.config, Path::kRing, true);
  // Spans stay in memory until the end, so the iterations are capped.
  constexpr usize kMaxIterations = 40;
  const double deadline = HostNs() + options.seconds * 1e9;
  for (usize i = 0; i < kMaxIterations && (i == 0 || HostNs() < deadline);
       ++i) {
    for (Phase& p : phases) {
      p.rounds.push_back(RunRound(*p.workload, p.config, p.path,
                                  p.traced ? &p.tracer : nullptr));
    }
  }
  for (Phase& p : phases) {
    Settle(report, p.rounds, p.name);
    p.calls = Table(p.tracer);
  }
  const CallTable& blocking_calls = blocking.calls;
  const CallTable& ring_calls = ring.calls;
  const double t_traced = Fastest(as_run.rounds);
  const double t_untraced = Fastest(untraced.rounds);
  const double t_blocking = Fastest(blocking.rounds);
  const double t_direct = Fastest(direct.rounds);
  const double t_ring = Fastest(ring.rounds);

  // Host time of one round split into three layer groups.
  const double execute = blocking_calls.FastestRound("os.kernel.execute");
  const double per_call = blocking_calls.FastestRound("os.kernel.load") +
                          blocking_calls.FastestRound("os.kernel.unload") +
                          blocking_calls.FastestRound("os.kernel.map");
  const double fault =
      std::clamp(execute - roomy_run.calls.FastestRound("os.kernel.execute"),
                 0.0, execute);
  const double execute_fixed =
      std::min(static_cast<double>(jobs) *
                   Div(probe_run.calls.FastestRound("os.kernel.execute"),
                       static_cast<double>(probe.jobs.size())),
               execute - fault);
  const double access = execute - fault - execute_fixed;
  const double transport = workload.primary == Path::kRing
                               ? std::max(0.0, t_ring - t_blocking)
                               : 0.0;
  const double per_job = per_call + execute_fixed + transport;
  const double total = access + fault + per_job;
  report.per_access_share = Div(access, total);
  report.fault_share = Div(fault, total);
  report.per_job_share = Div(per_job, total);

  // Execute time per job kind in the fastest round (spans carry the
  // job's index).
  std::array<std::map<u64, double>, kNumKinds> kind_rounds;
  for (const Tracer::Span& span : blocking.tracer.spans()) {
    if (std::strcmp(span.name, "os.kernel.execute") != 0) continue;
    const Kind kind = workload.jobs[Tracer::IndexOf(span.job)].kind;
    kind_rounds[static_cast<usize>(kind)][Tracer::RoundOf(span.job)] +=
        span.end_ns - span.start_ns;
  }
  std::array<double, kNumKinds> kind_execute{};
  for (usize k = 0; k < kNumKinds; ++k) {
    for (const auto& [round, ns] : kind_rounds[k]) {
      kind_execute[k] = kind_execute[k] == 0 ? ns : std::min(kind_execute[k], ns);
    }
  }

  const LayerCounters& pc = as_run.rounds.front().counters;    // as run
  const LayerCounters& bc = blocking.rounds.front().counters;  // blocking
  const LayerCounters& sc = ring.rounds.front().counters;      // rings
  std::vector<double> waits;
  for (Picoseconds w : sc.waits) waits.push_back(static_cast<double>(w));
  const double pc_accesses = static_cast<double>(pc.accesses);

  std::vector<Metric>& m = report.metrics;
  m = {
      {"sim.events", static_cast<double>(pc.events), "count"},
      {"sim.events_per_access", Div(static_cast<double>(pc.events), pc_accesses),
       "ratio"},
      {"sim.host_ns_per_event",
       Div(t_untraced, static_cast<double>(pc.events)), "ns"},
      {"hw.imu.accesses", pc_accesses, "count"},
      {"hw.imu.writes_frac", Div(static_cast<double>(pc.writes), pc_accesses),
       "ratio"},
      {"hw.tlb.hit_ratio",
       Div(static_cast<double>(pc.tlb_hits),
           static_cast<double>(pc.tlb_lookups)),
       "ratio"},
      {"hw.tlb.misses", static_cast<double>(pc.tlb_misses), "count"},
      {"hw.imu.fault_stall_ms", PsToMs(static_cast<double>(pc.fault_stall)),
       "ms"},
      {"hw.imu.host_ns_per_access",
       Div(execute, static_cast<double>(bc.accesses)), "ns"},
      {"cp.cycles", static_cast<double>(pc.cp_cycles), "count"},
      {"cp.cycles_per_access",
       Div(static_cast<double>(pc.cp_cycles), pc_accesses), "ratio"},
      {"os.vim.faults", static_cast<double>(pc.faults()), "count"},
      {"os.vim.host_us_per_fault",
       Div(execute, static_cast<double>(bc.faults())) / 1e3, "us"},
  };
  for (Kind kind : {Kind::kGather, Kind::kHistogram}) {
    const KindCounters& k = bc.kinds[static_cast<usize>(kind)];
    const std::string p = std::string("os.vim.") + KindName(kind) + ".";
    m.insert(m.end(), {
        {p + "faults", static_cast<double>(k.faults), "count"},
        {p + "tlb_refills", static_cast<double>(k.tlb_refills), "count"},
        {p + "evictions", static_cast<double>(k.evictions), "count"},
        {p + "writebacks", static_cast<double>(k.writebacks), "count"},
        {p + "dirty_evict_frac",
         Div(static_cast<double>(k.writebacks),
             static_cast<double>(k.evictions)),
         "ratio"},
        {p + "bytes_moved", static_cast<double>(k.bytes_moved), "bytes"},
        {p + "t_dp_ms", PsToMs(static_cast<double>(k.t_dp)), "ms"},
        {p + "t_imu_ms", PsToMs(static_cast<double>(k.t_imu)), "ms"},
        {p + "host_us_per_fault",
         Div(kind_execute[static_cast<usize>(kind)],
             static_cast<double>(k.faults)) / 1e3,
         "us"},
    });
  }
  const Tail wait_tail = TailOf(waits);
  m.insert(m.end(), {
      {"os.vim.context_saves", static_cast<double>(sc.context_saves), "count"},
      {"os.vim.pages_written_back_on_save",
       static_cast<double>(sc.pages_written_back_on_save), "count"},
      {"os.vim.pages_writeback_deferred",
       static_cast<double>(sc.pages_writeback_deferred), "count"},
      {"hw.fabric.reconfigurations", static_cast<double>(sc.reconfigurations),
       "count"},
      {"hw.fabric.slot_activations", static_cast<double>(sc.slot_activations),
       "count"},
      {"hw.fabric.config_ms", PsToMs(static_cast<double>(sc.config_time)),
       "ms"},
      {"os.vcopd.dispatches", static_cast<double>(sc.dispatches), "count"},
      {"os.vcopd.preemptions", static_cast<double>(sc.preemptions), "count"},
      {"os.vcopd.wait_ms_p50", PsToMs(Median(waits)), "ms"},
      {"os.vcopd.wait_ms_tail", PsToMs(wait_tail.value), "ms"},
      {"os.vcopd.host_us_per_job",
       (t_direct - t_blocking) / static_cast<double>(jobs) / 1e3, "us"},
      {"os.service.kicks", static_cast<double>(sc.kicks), "count"},
      {"os.service.kicks_coalesced", static_cast<double>(sc.kicks_coalesced),
       "count"},
      {"os.service.drains", static_cast<double>(sc.drains), "count"},
      {"os.service.max_batch", static_cast<double>(sc.max_batch), "count"},
      {"os.service.host_us_per_job",
       (t_ring - t_direct) / static_cast<double>(jobs) / 1e3, "us"},
      {"runtime.stage_ms", as_run.calls.MeanPerCall("runtime.stage") / 1e6,
       "ms"},
      {"os.kernel.load_ms", blocking_calls.MeanPerCall("os.kernel.load") / 1e6,
       "ms"},
      {"os.kernel.map_us", blocking_calls.MeanPerCall("os.kernel.map") / 1e3,
       "us"},
      {"os.kernel.execute_ms",
       blocking_calls.MeanPerCall("os.kernel.execute") / 1e6, "ms"},
      {"os.service.publish_us",
       ring_calls.MeanPerCall("os.service.publish") / 1e3, "us"},
      {"os.service.kick_us", ring_calls.MeanPerCall("os.service.kick") / 1e3,
       "us"},
      {"os.service.reap_us", ring_calls.MeanPerCall("os.service.reap") / 1e3,
       "us"},
      {"os.timeline.records", static_cast<double>(pc.timeline_records),
       "count"},
      {"layer.per_access_share", report.per_access_share, "ratio"},
      {"layer.fault_share", report.fault_share, "ratio"},
      {"layer.per_job_share", report.per_job_share, "ratio"},
      {"trace.overhead_frac", Div(t_traced - t_untraced, t_untraced), "ratio"},
  });

  AddWorkloadNotes(report, workload, as_run.rounds.front());
  report.notes.push_back(StrFormat(
      "%zu iterations; fastest round host ms: traced %.3f, untraced %.3f "
      "(tracing overhead %.3f ms), blocking %.3f, direct %.3f, ring %.3f",
      as_run.rounds.size(), t_traced / 1e6, t_untraced / 1e6,
      (t_traced - t_untraced) / 1e6, t_blocking / 1e6, t_direct / 1e6,
      t_ring / 1e6));
  report.notes.push_back(StrFormat(
      "layer split per round: per-access %.3f ms, fault service %.3f ms, "
      "per-job %.3f ms (calls %.3f, execute fixed %.3f, transport %.3f)",
      access / 1e6, fault / 1e6, per_job / 1e6, per_call / 1e6,
      execute_fixed / 1e6, transport / 1e6));
  for (const Phase& p : phases) {
    if (p.traced) NoteCalls(report, p.name, p.calls);
  }
  if (!options.out_dir.empty()) {
    const std::string base = StrFormat(
        "%s/spans-%s-%llu-", options.out_dir.c_str(), workload.name.c_str(),
        static_cast<unsigned long long>(options.seed));
    bool written = true;
    for (const Phase& p : phases) {
      if (p.traced) written &= p.tracer.WriteJsonLines(base + p.name + ".jsonl");
    }
    report.notes.push_back(StrFormat("spans %s %s*.jsonl",
                                     written ? "written to" : "NOT written to",
                                     base.c_str()));
  }
  return report;
}

}  // namespace vcop::perfbench
