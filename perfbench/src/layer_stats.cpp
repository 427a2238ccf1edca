#include "layer_stats.h"

namespace vcop::perfbench {

u64 LayerCounters::faults() const {
  u64 sum = 0;
  for (const KindCounters& k : kinds) sum += k.faults;
  return sum;
}

void AddJobReport(LayerCounters& c, Kind kind,
                  const os::ExecutionReport& report) {
  const hw::ImuStats& imu = report.imu;
  const hw::TlbStats& tlb = report.tlb;
  const os::VimAccounting& vim = report.vim;
  c.accesses += imu.accesses;
  c.writes += imu.writes;
  c.fault_stall += imu.fault_stall_time;
  c.tlb_lookups += tlb.lookups;
  c.tlb_hits += tlb.hits;
  c.tlb_misses += tlb.misses;
  c.cp_cycles += report.cp_cycles;
  KindCounters& k = c.kinds[static_cast<usize>(kind)];
  k.faults += vim.faults;
  k.tlb_refills += vim.tlb_refills;
  k.evictions += vim.evictions;
  k.writebacks += vim.writebacks;
  k.bytes_moved += vim.bytes_loaded + vim.bytes_written_back;
  k.t_dp += vim.t_dp;
  k.t_imu += vim.t_imu;
}

void AddDaemon(LayerCounters& c, os::Vcopd& daemon,
               const os::VcopService* service) {
  const os::VcopdStats& stats = daemon.stats();
  // Tickets are numbered 1, 2, ... in submission order.
  for (os::Ticket t = 1; t <= stats.submitted; ++t) {
    const os::JobResult* job = daemon.Poll(t);
    if (job == nullptr || !job->status.ok()) continue;
    for (usize k = 0; k < kNumKinds; ++k) {
      if (KindBitstream(static_cast<Kind>(k)).name == job->bitstream) {
        AddJobReport(c, static_cast<Kind>(k), job->report);
      }
    }
    c.waits.push_back(job->wait());
  }
  c.dispatches += stats.dispatches;
  c.preemptions += stats.preemptions;
  c.reconfigurations += stats.reconfigurations;
  c.slot_activations += stats.slot_activations;
  const hw::ConfigSlotStats& slots = daemon.kernel().fabric().slot_stats();
  c.config_time += slots.configure_time + slots.activation_time;
  if (service != nullptr) {
    const os::VcopServiceStats& ring = service->stats();
    c.kicks += ring.doorbell_kicks;
    c.kicks_coalesced += ring.doorbells_coalesced;
    c.drains += ring.drains;
    c.max_batch = std::max(c.max_batch, ring.max_batch);
  }
}

void AddPlatform(LayerCounters& c, os::Kernel& kernel) {
  c.events += kernel.simulator().events_dispatched();
  c.timeline_records += kernel.timeline().events().size();
  const os::VimServiceStats& vim = kernel.vim().service_stats();
  c.context_saves += vim.context_saves;
  c.pages_written_back_on_save += vim.pages_written_back_on_save;
  c.pages_writeback_deferred += vim.pages_writeback_deferred;
}

u64 CounterDigest(u64 hash, const LayerCounters& c) {
  std::vector<u64> values = {
      c.events,          c.accesses,        c.writes,
      c.tlb_lookups,     c.tlb_hits,        c.tlb_misses,
      c.cp_cycles,       c.fault_stall,     c.context_saves,
      c.pages_written_back_on_save,         c.pages_writeback_deferred,
      c.reconfigurations, c.slot_activations, c.config_time,
      c.dispatches,      c.preemptions,     c.kicks,
      c.kicks_coalesced, c.drains,          c.max_batch,
      c.timeline_records};
  for (const KindCounters& k : c.kinds) {
    values.insert(values.end(), {k.faults, k.tlb_refills,
                                 k.evictions, k.writebacks, k.bytes_moved,
                                 k.t_dp, k.t_imu});
  }
  values.insert(values.end(), c.waits.begin(), c.waits.end());
  for (u64 v : values) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

}  // namespace vcop::perfbench
