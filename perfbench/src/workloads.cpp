// The three workloads. Each is built from the seed alone; the seed
// picks job order, data and small size jitter, never the job mix, so
// the simulated figures move only a little between seeds.
#include <algorithm>

#include "base/rng.h"
#include "perfbench.h"
#include "runtime/config.h"

namespace vcop::perfbench {
namespace {

/// Mapped buffers of one round stay far below this; the space is
/// mmap-backed, so untouched capacity costs nothing.
constexpr u32 kUserMemoryBytes = 64 * 1024 * 1024;

/// stream_ff: one client, blocking calls, fast-forward on. The paper's
/// Figure 8/9 points plus larger streaming jobs (adpcm 15-17 KB, conv3x3
/// 1024 x 20-28) over a working set a few times the 16 KB DP-RAM: TLB
/// hits dominate, so host time is the per-access chain (translation,
/// coprocessor step, DP-RAM word).
///
/// The order is fixed (figure points, then adpcm, then conv3x3), so the
/// number of FPGA_LOADs, and with it the simulated makespan, does not
/// depend on the seed. With 5 conv3x3 jobs on top, both the median and
/// the tail job (10 jobs beyond it) fall inside the size-jittered adpcm
/// block, and no job is long enough for host noise to swamp its fastest
/// round.
void StreamFf(u64 seed, Workload& w) {
  w.config.sim_tuning.fastforward = true;
  Rng rng(seed);
  for (u32 r = 0; r < 3; ++r) {
    for (u32 kb : {2u, 4u, 8u}) {
      w.jobs.push_back({Kind::kAdpcm, kb * 1024, 0, 0, 0, true});
    }
    for (u32 kb : {4u, 8u, 16u, 32u}) {
      w.jobs.push_back({Kind::kIdea, kb * 1024, 0, 0, 0, true});
    }
  }
  for (u32 i = 0; i < 22; ++i) {
    const u32 bytes = 15 * 1024 + 256 * static_cast<u32>(rng.NextBelow(9));
    w.jobs.push_back({Kind::kAdpcm, bytes, 0, 0, 0, false});
  }
  for (u32 i = 0; i < 5; ++i) {
    const u32 height = 20 + static_cast<u32>(rng.NextBelow(9));
    w.jobs.push_back({Kind::kConv, 1024, height, 0, 0, false});
  }
}

/// fault_thrash: one client, blocking calls, EPXA1 defaults (cycle
/// engine, 8 x 2 KB frames, 8-entry TLB, FIFO). Gather and histogram
/// alternate with equal element counts: random reads over a 64 KB table
/// versus random read-modify-write over 64 KB of bins, so about a third
/// of all accesses fault and fault service dominates host time.
void FaultThrash(u64 seed, Workload& w) {
  Rng rng(seed);
  for (u32 i = 0; i < 50; ++i) {
    const u32 n = 960 + 32 * static_cast<u32>(rng.NextBelow(5));
    w.jobs.push_back({Kind::kGather, n, 0, 0, 0, false});
    w.jobs.push_back({Kind::kHistogram, n, 0, 0, 0, false});
  }
}

/// service_mix: 48 tenants in a closed loop through the rings, one job
/// in flight each. Three designs share two configuration slots. Seven
/// of every eight tenants send tiny jobs, so per-job costs (ring, vcopd
/// dispatch, slot activation, VIM prepare and sweeps) dominate; the
/// rest send 1 KB jobs that outlive the 200 us slice and get preempted.
void ServiceMix(u64 seed, Workload& w) {
  constexpr u32 kTenants = 48;
  constexpr u32 kJobsPerTenant = 8;
  w.config.sim_tuning.fastforward = true;
  w.config.config_slots = 2;
  w.config.design_affinity = true;
  w.config.vim.lazy_writeback = true;
  w.primary = Path::kRing;
  w.streams = kTenants;
  Rng rng(seed);
  for (u32 t = 0; t < kTenants; ++t) {
    const Kind kind = static_cast<Kind>(t % 3);  // adpcm, IDEA, conv3x3
    const bool large = t % 8 == 7;
    JobSpec spec{kind, 0, 0, 0, t, false};
    switch (kind) {
      case Kind::kAdpcm:
        spec.size = large ? 1024 : 8 + static_cast<u32>(rng.NextBelow(57));
        break;
      case Kind::kIdea:
        spec.size = large ? 1024 : 8 * (1 + static_cast<u32>(rng.NextBelow(8)));
        break;
      default:
        spec.size = large ? 32 : 3 + static_cast<u32>(rng.NextBelow(6));
        spec.height = large ? 32 : 3 + static_cast<u32>(rng.NextBelow(6));
        break;
    }
    for (u32 j = 0; j < kJobsPerTenant; ++j) w.jobs.push_back(spec);
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"stream_ff", "fault_thrash",
                                                 "service_mix"};
  return names;
}

bool MakeWorkload(const std::string& name, u64 seed, Workload& w) {
  w = Workload{};
  w.name = name;
  w.config = runtime::Epxa1Config();
  w.config.user_memory_bytes = kUserMemoryBytes;
  if (name == "stream_ff") {
    StreamFf(seed, w);
  } else if (name == "fault_thrash") {
    FaultThrash(seed, w);
  } else if (name == "service_mix") {
    ServiceMix(seed, w);
  } else {
    return false;
  }
  w.daemon_config.max_asids = std::max<u32>(w.daemon_config.max_asids,
                                            w.streams + 2);
  Rng data(seed ^ 0x9e3779b97f4a7c15ULL);
  for (JobSpec& spec : w.jobs) spec.data_seed = data.Next();
  return true;
}

}  // namespace vcop::perfbench
