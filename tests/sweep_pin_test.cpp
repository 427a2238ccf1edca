// Golden digests of the VIM's write-back sweeps: the end-of-operation
// sweep (full and ASID scope), the eager, lazy and untagged context
// saves, a FlushAsid teardown with write-back, and sweeps whose stores
// hit injected bus errors. Each run is reduced to one FNV-1a digest of
// its output bytes, the final simulated time, every VimServiceStats
// field, every space's VimAccounting and the TLB statistics, hashed
// field by field (never raw struct bytes, whose padding is undefined).
// Any change to which pages a sweep writes back, in what order, at what
// cost or with what bookkeeping changes a digest.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <vector>

#include "apps/adpcm.h"
#include "base/fault.h"
#include "cp/adpcm_cp.h"
#include "cp/registry.h"
#include "os/kernel.h"
#include "os/vcopd.h"
#include "runtime/fpga_api.h"

namespace vcop::os {
namespace {

using runtime::FpgaSystem;
using runtime::HostBuffer;
using runtime::VcopdClient;

class Digest {
 public:
  void Add(u64 v) {
    for (u32 i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(double v) { Add(std::bit_cast<u64>(v)); }
  template <typename T>
  void AddBytes(const std::vector<T>& values) {
    std::vector<u8> bytes(values.size() * sizeof(T));
    std::memcpy(bytes.data(), values.data(), bytes.size());
    Add(static_cast<u64>(bytes.size()));
    for (const u8 b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ull;
    }
  }
  u64 value() const { return hash_; }

 private:
  u64 hash_ = 0xcbf29ce484222325ull;
};

void AddService(Digest& d, const VimServiceStats& s) {
  for (const u64 v :
       {s.context_saves, s.context_restores, s.full_tlb_flushes,
        s.tlb_flushes_avoided, s.tlb_entries_restored,
        s.pages_written_back_on_save, s.param_page_restores,
        s.lazy_context_saves, s.pages_writeback_deferred,
        s.deferred_writebacks, s.transfer_retries,
        s.transfer_retry_failures, s.watchdog_wakeups,
        s.watchdog_recoveries, s.watchdog_hang_aborts,
        s.duplicate_irqs_ignored, s.spurious_faults_ignored,
        s.fault_budget_aborts, s.tlb_parity_drops, s.prefetch_issued,
        s.prefetch_useful, s.prefetch_wasted,
        s.prefetch_suggestions_dropped, s.victim_tlb_hits,
        s.victim_tlb_misses, s.coalesced_bursts, s.coalesced_pages,
        s.hw_tlb_evict_merges}) {
    d.Add(v);
  }
}

void AddAccounting(Digest& d, const VimAccounting& a) {
  for (const u64 v :
       {a.t_dp, a.t_imu, a.t_wakeup, a.faults, a.tlb_refills, a.evictions,
        a.writebacks, a.loads, a.prefetched_pages, a.cleaned_pages,
        a.bytes_loaded, a.bytes_written_back, a.t_dp_overlapped,
        a.t_dp_wait, a.dirty_in_pages_dropped, a.preemptions,
        a.fault_recoveries, a.iommu_faults, a.prefetch_useful,
        a.prefetch_wasted, a.prefetch_suggestions_dropped,
        a.victim_tlb_hits, a.victim_tlb_misses, a.coalesced_bursts,
        a.coalesced_pages, a.fault_service_us.count()}) {
    d.Add(v);
  }
  d.Add(a.fault_service_us.sum());
  d.Add(a.fault_service_us.min());
  d.Add(a.fault_service_us.max());
}

void AddTlb(Digest& d, const hw::TlbStats& s) {
  for (const u64 v :
       {s.lookups, s.hits, s.misses, s.parity_errors, s.installs}) {
    d.Add(v);
  }
}

void AddHierarchy(Digest& d, const hw::TlbHierarchyStats& s) {
  for (const u64 v : {s.l1_fills, s.l1_fill_evictions, s.dirty_merges,
                      s.orphan_evictions}) {
    d.Add(v);
  }
}

std::vector<u8> AdpcmInput(u32 bytes, u32 seed) {
  std::vector<u8> input(bytes);
  for (u32 i = 0; i < bytes; ++i) {
    input[i] = static_cast<u8>((seed * 2654435761u + i * 97u) >> 13);
  }
  return input;
}

std::vector<i16> AdpcmExpect(const std::vector<u8>& input) {
  std::vector<i16> expect(input.size() * 2);
  apps::AdpcmState state;
  apps::AdpcmDecode(input, expect, state);
  return expect;
}

void ApplyTwoLevel(KernelConfig& config, bool two_level) {
  if (!two_level) return;
  config.l1_tlb_entries = 4;
  config.l2_tlb_entries = 8;
}

// ----- kernel path: full-scope end-of-operation sweep -----

struct KernelRun {
  u64 digest = 0;
  bool exact = false;
};

/// Two blocking 6 KB adpcm decodes (24 KB of output over a 16 KB
/// DP-RAM) on one system, so the second run starts from the first's
/// leftovers. With a fault plan the runs may fail; their partial state
/// is hashed all the same.
KernelRun RunKernel(const KernelConfig& config, FaultPlan* plan = nullptr) {
  FpgaSystem sys(config);
  if (plan != nullptr) sys.kernel().InstallFaultPlan(plan);
  VCOP_CHECK(sys.Load(cp::AdpcmDecodeBitstream()).ok());
  const std::vector<u8> input = AdpcmInput(6 * 1024, 5);
  HostBuffer<u8> in = sys.Allocate<u8>(6 * 1024).value();
  in.Fill(input);
  HostBuffer<i16> out = sys.Allocate<i16>(12 * 1024).value();
  VCOP_CHECK(sys.Map(cp::AdpcmDecodeCoprocessor::kObjIn, in,
                     Direction::kIn).ok());
  VCOP_CHECK(sys.Map(cp::AdpcmDecodeCoprocessor::kObjOut, out,
                     Direction::kOut).ok());
  KernelRun run;
  run.exact = true;
  Digest d;
  for (u32 i = 0; i < 2; ++i) {
    const Result<ExecutionReport> report =
        sys.Execute({6u * 1024, 0u, 0u});
    d.Add(static_cast<u64>(report.status().code()));
    d.AddBytes(out.ToVector());
    d.Add(sys.kernel().simulator().now());
    AddAccounting(d, sys.kernel().vim().accounting());
    AddTlb(d, sys.kernel().imu()->tlb().stats());
    AddTlb(d, sys.kernel().shared_tlb().stats());
    AddHierarchy(d, sys.kernel().imu()->xlat().stats());
    run.exact = run.exact && report.ok();
  }
  AddService(d, sys.kernel().vim().service_stats());
  run.exact = run.exact && out.ToVector() == AdpcmExpect(input);
  run.digest = d.value();
  return run;
}

KernelConfig KernelCase(bool coalesce, bool two_level, bool iommu) {
  KernelConfig config;
  config.vim.prefetch = PrefetchKind::kSequential;
  config.vim.coalesce_writeback = coalesce;
  config.vim.iommu = iommu;
  ApplyTwoLevel(config, two_level);
  return config;
}

TEST(SweepPinTest, KernelFullScopeSweep) {
  const u64 expected[8] = {
      0x6fd5820b5432de02ull, 0x785a8f626644e337ull, 0x80114480bd651695ull,
      0x35e2d8c9e54d1575ull, 0xeb11be4f66778d2eull, 0x256d359f346b6e0bull,
      0xc94585c69f9dcc05ull, 0xc9d3397239141d91ull,
  };
  for (u32 i = 0; i < 8; ++i) {
    const bool coalesce = (i & 4) != 0;
    const bool two_level = (i & 2) != 0;
    const bool iommu = (i & 1) != 0;
    const KernelRun run = RunKernel(KernelCase(coalesce, two_level, iommu));
    EXPECT_TRUE(run.exact) << i;
    EXPECT_EQ(run.digest, expected[i])
        << "coalesce=" << coalesce << " two_level=" << two_level
        << " iommu=" << iommu << std::hex << " digest=0x" << run.digest;
  }
}

TEST(SweepPinTest, KernelOverlappedPrefetchAndCleaning) {
  const u64 expected[2] = {0xa8cec6751a141dadull, 0x521db8495bf20233ull};
  for (u32 i = 0; i < 2; ++i) {
    KernelConfig config = KernelCase(/*coalesce=*/i == 1,
                                     /*two_level=*/false, /*iommu=*/false);
    config.vim.overlap_prefetch = true;
    const KernelRun run = RunKernel(config);
    EXPECT_TRUE(run.exact) << i;
    EXPECT_EQ(run.digest, expected[i])
        << "coalesce=" << (i == 1) << std::hex << " digest=0x"
        << run.digest;
  }
}

TEST(SweepPinTest, KernelSweepUnderBusErrors) {
  const u64 expected[2] = {0x417d47982c4bd49eull, 0xce51513d642f55ceull};
  for (u32 i = 0; i < 2; ++i) {
    FaultPlan plan;
    plan.WithProbability(FaultSite::kAhbError, 0.25);
    const KernelRun run = RunKernel(
        KernelCase(/*coalesce=*/i == 1, /*two_level=*/false,
                   /*iommu=*/false),
        &plan);
    EXPECT_GT(plan.stats(FaultSite::kAhbError).injected, 0u);
    EXPECT_EQ(run.digest, expected[i])
        << "coalesce=" << (i == 1) << std::hex << " digest=0x"
        << run.digest;
  }
}

// ----- vcopd: scoped sweeps, context saves and FlushAsid -----

enum class SaveMode { kTaggedEager, kTaggedLazy, kUntagged };

struct Tenant {
  TenantId id = 0;
  std::vector<u8> input;
  HostBuffer<i16> out;
};

Tenant StageTenant(FpgaSystem& sys, Vcopd& daemon, const char* name,
                   u32 seed) {
  Tenant t;
  t.id = daemon.RegisterTenant(name).value();
  t.input = AdpcmInput(12 * 1024, seed);
  HostBuffer<u8> in = sys.Allocate<u8>(12 * 1024).value();
  in.Fill(t.input);
  t.out = sys.Allocate<i16>(24 * 1024).value();
  VcopdClient client(daemon, t.id);
  VCOP_CHECK(client.Map(cp::AdpcmDecodeCoprocessor::kObjIn, in,
                        Direction::kIn).ok());
  VCOP_CHECK(client.Map(cp::AdpcmDecodeCoprocessor::kObjOut, t.out,
                        Direction::kOut).ok());
  return t;
}

struct ContendedRun {
  u64 digest = 0;
  bool exact = false;
  u64 flushed = 0;  // pages FlushAsid wrote back (teardown case only)
};

/// Two contended 12 KB adpcm tenants under a 50 us fair-share slice.
/// With `flush_first`, the context of the first tenant whose lazy save
/// deferred dirty pages is torn down with FlushAsid(write_back=true);
/// its job then resumes from user memory.
ContendedRun RunContended(SaveMode mode, bool coalesce, bool two_level,
                          bool flush_first = false,
                          FaultPlan* plan = nullptr) {
  KernelConfig kernel_config;
  kernel_config.vim.lazy_writeback = mode == SaveMode::kTaggedLazy;
  kernel_config.vim.coalesce_writeback = coalesce;
  ApplyTwoLevel(kernel_config, two_level);
  FpgaSystem sys(kernel_config);
  if (plan != nullptr) sys.kernel().InstallFaultPlan(plan);
  VcopdConfig config;
  config.policy = ServicePolicy::kFairShare;
  config.time_slice = 50ull * 1000 * 1000;
  config.quantum = 100ull * 1000 * 1000;
  config.asid_tagging = mode != SaveMode::kUntagged;
  Vcopd daemon(sys.kernel(), config);
  Vim& vim = sys.kernel().vim();
  vim.ResetServiceStats();

  Tenant alpha = StageTenant(sys, daemon, "alpha", 1);
  Tenant beta = StageTenant(sys, daemon, "beta", 2);
  const std::vector<u32> params = {12u * 1024, 0u, 0u};
  const Ticket t1 = VcopdClient(daemon, alpha.id)
                        .Submit(cp::AdpcmDecodeBitstream(), params)
                        .value();
  const Ticket t2 = VcopdClient(daemon, beta.id)
                        .Submit(cp::AdpcmDecodeBitstream(), params)
                        .value();
  ContendedRun run;
  Digest d;
  if (flush_first) {
    // Step slices until a lazy save leaves dirty pages deferred; the
    // space that just switched out holds them.
    while (vim.service_stats().pages_writeback_deferred == 0) {
      VCOP_CHECK(daemon.HasWork());
      VCOP_CHECK(daemon.RunOne().ok());
    }
    const u64 before = vim.space()->accounting.writebacks;
    const Picoseconds cost =
        vim.FlushAsid(vim.space()->asid(), /*write_back=*/true);
    run.flushed = vim.space()->accounting.writebacks - before;
    d.Add(cost);
    d.Add(run.flushed);
    d.AddBytes(alpha.out.ToVector());
  }
  VCOP_CHECK(daemon.RunUntilIdle().ok());

  d.AddBytes(alpha.out.ToVector());
  d.AddBytes(beta.out.ToVector());
  d.Add(sys.kernel().simulator().now());
  AddService(d, vim.service_stats());
  AddTlb(d, sys.kernel().shared_tlb().stats());
  for (const Ticket t : {t1, t2}) {
    const JobResult* r = daemon.Poll(t);
    VCOP_CHECK(r != nullptr);
    d.Add(static_cast<u64>(r->status.code()));
    d.Add(r->finished_at);
    d.Add(static_cast<u64>(r->preemptions));
    AddAccounting(d, r->report.vim);
    AddTlb(d, r->report.tlb);
  }
  run.exact = daemon.Poll(t1)->status.ok() && daemon.Poll(t2)->status.ok() &&
              alpha.out.ToVector() == AdpcmExpect(alpha.input) &&
              beta.out.ToVector() == AdpcmExpect(beta.input);
  run.digest = d.value();
  return run;
}

TEST(SweepPinTest, ContendedContextSaves) {
  const u64 expected[12] = {
      0x98375f4c3740633dull, 0x8d20589672db4ed7ull, 0x98375f4c3740633dull,
      0x8d20589672db4ed7ull, 0xa5183cb2a0ee74feull, 0x25a407389fa76619ull,
      0x9ffc84003fa9f033ull, 0x83e2e25455259975ull, 0x0c2f168c76b51dbcull,
      0xf64fe6b25f384b5cull, 0x0c2f168c76b51dbcull, 0xf64fe6b25f384b5cull,
  };
  for (u32 i = 0; i < 12; ++i) {
    const SaveMode mode = static_cast<SaveMode>(i / 4);
    const bool coalesce = (i & 2) != 0;
    const bool two_level = (i & 1) != 0;
    const ContendedRun run = RunContended(mode, coalesce, two_level);
    EXPECT_TRUE(run.exact) << i;
    EXPECT_EQ(run.digest, expected[i])
        << "mode=" << static_cast<int>(mode) << " coalesce=" << coalesce
        << " two_level=" << two_level << std::hex << " digest=0x"
        << run.digest;
  }
}

TEST(SweepPinTest, FlushAsidWriteBackTeardown) {
  const u64 expected[2] = {0xf8a00f9fe666df6aull, 0xb1011c32f68cc4cdull};
  for (u32 i = 0; i < 2; ++i) {
    const ContendedRun run =
        RunContended(SaveMode::kTaggedLazy, /*coalesce=*/i == 1,
                     /*two_level=*/false, /*flush_first=*/true);
    EXPECT_TRUE(run.exact) << i;
    EXPECT_GT(run.flushed, 0u) << i;
    EXPECT_EQ(run.digest, expected[i])
        << "coalesce=" << (i == 1) << std::hex << " digest=0x"
        << run.digest;
  }
}

TEST(SweepPinTest, ContextSavesUnderBusErrors) {
  const u64 expected[3] = {0x7e5384135cde6041ull, 0x05672d867838fe93ull,
                           0xc2171ce5a0156b99ull};
  for (u32 i = 0; i < 3; ++i) {
    FaultPlan plan;
    plan.WithProbability(FaultSite::kAhbError, 0.25);
    const ContendedRun run =
        RunContended(static_cast<SaveMode>(i), /*coalesce=*/true,
                     /*two_level=*/false, /*flush_first=*/false, &plan);
    EXPECT_GT(plan.stats(FaultSite::kAhbError).injected, 0u);
    EXPECT_EQ(run.digest, expected[i])
        << "mode=" << i << std::hex << " digest=0x" << run.digest;
  }
}

}  // namespace
}  // namespace vcop::os
