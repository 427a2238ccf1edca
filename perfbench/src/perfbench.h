// Shared types of the repository benchmark: job specifications, the
// three ways a job list is driven through the public API, and the
// per-round results the metrics are computed from.
//
// The benchmark only calls the system's public entry points:
//   blocking  FpgaSystem::Load / Map / Unmap / Execute
//   direct    Vcopd::MapObject / RepointObject / Submit / Wait
//   ring      VcopService::Publish / Kick / Reap / RunUntilQuiescent
// Every read of a layer statistics struct is confined to
// layer_stats.cpp.
#pragma once

#include <array>
#include <chrono>
#include <string>
#include <vector>

#include "base/types.h"
#include "base/units.h"
#include "hw/fabric.h"
#include "os/kernel.h"
#include "os/service.h"
#include "os/vcopd.h"
#include "runtime/fpga_api.h"

namespace vcop::perfbench {

/// Host monotonic clock in nanoseconds.
inline double HostNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Kind : u8 { kAdpcm, kIdea, kConv, kGather, kHistogram };
inline constexpr usize kNumKinds = 5;
const char* KindName(Kind kind);
const hw::Bitstream& KindBitstream(Kind kind);

/// One job of a workload, before staging. `size` is bytes for adpcm and
/// IDEA, the image width for conv (with `height`), and the element
/// count for gather and histogram.
struct JobSpec {
  Kind kind = Kind::kAdpcm;
  u32 size = 0;
  u32 height = 0;
  u64 data_seed = 0;
  /// Closed-loop stream (service tenant) the job belongs to.
  u32 stream = 0;
  /// One of the paper's Figure 8/9 points (stream_ff only).
  bool figure_point = false;
};

/// One interface object of a staged job, in the job's user memory.
struct ObjectMap {
  hw::ObjectId id = 0;
  mem::UserAddr addr = 0;
  u32 bytes = 0;
  u32 elem_width = 1;
  os::Direction dir = os::Direction::kIn;
};

/// A job with its inputs written into a platform's user memory and its
/// software reference output computed.
struct StagedJob {
  const JobSpec* spec = nullptr;
  std::vector<ObjectMap> objects;
  std::array<u32, 4> params{};
  u32 nparams = 0;
  mem::UserAddr out_addr = 0;
  u32 out_bytes = 0;
  std::vector<u8> expect;
  std::span<const u32> param_span() const {
    return std::span<const u32>(params.data(), nparams);
  }
};

/// How a job list is driven.
enum class Path : u8 {
  kBlocking,  // FPGA_LOAD / FPGA_MAP_OBJECT / FPGA_EXECUTE
  kDirect,    // Vcopd::Submit / Wait, one job in flight per stream
  kRing,      // VcopService rings, one job in flight per stream
};

/// Per-kind VIM counters (fault_thrash splits gather from histogram).
struct KindCounters {
  u64 faults = 0;
  u64 tlb_refills = 0;
  u64 evictions = 0;
  u64 writebacks = 0;
  u64 bytes_moved = 0;
  Picoseconds t_dp = 0;
  Picoseconds t_imu = 0;
};

/// Counters of one round, filled only by layer_stats.cpp.
struct LayerCounters {
  u64 events = 0;
  u64 accesses = 0;
  u64 writes = 0;
  u64 tlb_lookups = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  u64 cp_cycles = 0;
  Picoseconds fault_stall = 0;
  std::array<KindCounters, kNumKinds> kinds{};
  u64 context_saves = 0;
  u64 pages_written_back_on_save = 0;
  u64 pages_writeback_deferred = 0;
  u64 reconfigurations = 0;
  u64 slot_activations = 0;
  Picoseconds config_time = 0;
  u64 dispatches = 0;
  u64 preemptions = 0;
  std::vector<Picoseconds> waits;
  u64 kicks = 0;
  u64 kicks_coalesced = 0;
  u64 drains = 0;
  u64 max_batch = 0;
  u64 timeline_records = 0;

  u64 faults() const;
};

/// One workload: platform, job list and closed-loop structure.
struct Workload {
  std::string name;
  os::KernelConfig config;
  os::VcopdConfig daemon_config;
  Path primary = Path::kBlocking;
  u32 streams = 1;
  std::vector<JobSpec> jobs;
};

/// Builds `name` from `seed`; false for an unknown name.
bool MakeWorkload(const std::string& name, u64 seed, Workload& out);
/// The workload names, in report order.
const std::vector<std::string>& WorkloadNames();

class Tracer;

/// Results of one round: set-up, then the job list once on a fresh
/// platform, then verification outside the timed region.
struct RoundResult {
  double setup_ns = 0;
  double host_ns = 0;       // job phase wall time
  std::vector<double> job_host_ns;
  std::vector<Picoseconds> job_sim_ps;
  /// Per-job simulated Execute time of figure points (stream_ff).
  std::vector<std::pair<const JobSpec*, Picoseconds>> figure_exec_ps;
  Picoseconds makespan = 0;
  u64 attempted = 0;
  u64 failed = 0;
  LayerCounters counters;
  u64 input_digest = 0;
  u64 sim_digest = 0;
  /// Per-stream simulated first-publish and last-completion instants.
  std::vector<std::pair<Picoseconds, Picoseconds>> stream_span;
};

/// Runs one round of `workload` along `path` (platform `config`, which
/// may differ from the workload's own for the replays).
RoundResult RunRound(const Workload& workload, const os::KernelConfig& config,
                     Path path, Tracer* tracer);

}  // namespace vcop::perfbench
