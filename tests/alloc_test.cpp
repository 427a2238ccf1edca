// Heap-allocation budget of the fault path. This binary replaces the
// global operator new with a counting one, so it is kept apart from the
// other suites: with the timeline recorder off (the default), the
// number of allocations a blocking Execute makes must not depend on how
// many page faults it services.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "base/rng.h"
#include "cp/gather_cp.h"
#include "cp/registry.h"
#include "runtime/config.h"
#include "runtime/fpga_api.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<unsigned long long> g_allocations{0};

void* CountedAlloc(std::size_t bytes) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return CountedAlloc(bytes); }
void* operator new[](std::size_t bytes) { return CountedAlloc(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vcop {
namespace {

struct Counted {
  unsigned long long allocations = 0;
  u64 faults = 0;
};

/// Runs the mapped gather job, counting the heap allocations made
/// inside Execute.
Counted CountGather(runtime::FpgaSystem& sys, u32 n) {
  g_allocations = 0;
  g_counting = true;
  auto report = sys.Execute({n});
  g_counting = false;
  VCOP_CHECK_MSG(report.ok(), report.status().ToString());
  return Counted{g_allocations.load(), report.value().vim.faults};
}

/// Runs a gather job over a table four times the size of the DP-RAM
/// twice — once with indices that mostly hit, once with indices that
/// mostly fault — and expects both runs to allocate equally often.
void ExpectAllocationsIndependentOfFaults(const os::KernelConfig& config) {
  runtime::FpgaSystem sys(config);
  ASSERT_TRUE(sys.Load(cp::GatherBitstream()).ok());

  const u32 table_words = 4 * config.dp_ram_bytes / 4;
  constexpr u32 kN = 4096;
  auto table = sys.Allocate<u32>(table_words);
  auto perm = sys.Allocate<u32>(kN);
  auto out = sys.Allocate<u32>(kN);
  ASSERT_TRUE(table.ok() && perm.ok() && out.ok());
  Rng rng(3);
  for (u32& v : table.value().view()) v = static_cast<u32>(rng.Next());
  ASSERT_TRUE(sys.Map(cp::GatherCoprocessor::kObjIn, table.value(),
                      os::Direction::kIn)
                  .ok());
  ASSERT_TRUE(sys.Map(cp::GatherCoprocessor::kObjOut, out.value(),
                      os::Direction::kOut)
                  .ok());
  ASSERT_TRUE(sys.Map(cp::GatherCoprocessor::kObjPerm, perm.value(),
                      os::Direction::kIn)
                  .ok());
  // Same job size and output either way; only the number of faults
  // differs: indices confined to the table's first 4 KB mostly hit,
  // indices over the whole table mostly fault.
  const auto fill_perm = [&](u32 span_words) {
    for (u32& v : perm.value().view()) {
      v = static_cast<u32>(rng.NextBelow(span_words));
    }
  };

  fill_perm(table_words);
  CountGather(sys, kN);  // warm-up: containers reach steady capacity
  fill_perm(1024);
  const Counted few = CountGather(sys, kN);
  fill_perm(table_words);
  const Counted many = CountGather(sys, kN);
  ASSERT_GT(many.faults, 4 * few.faults);
  EXPECT_EQ(many.allocations, few.allocations)
      << few.faults << " faults: " << few.allocations << " allocations; "
      << many.faults << " faults: " << many.allocations << " allocations";
  EXPECT_TRUE(sys.kernel().timeline().events().empty());
}

TEST(AllocTest, FaultServiceAllocatesNothingPerFaultWithRecorderOff) {
  ExpectAllocationsIndependentOfFaults(runtime::Epxa1Config());
}

// Overlap mode adds background cleaning to every fault service: it
// enumerates the resident frames and copies dirty pages out while the
// coprocessor runs, and must do both without allocating.
TEST(AllocTest, BackgroundCleaningAllocatesNothingPerFault) {
  os::KernelConfig config = runtime::Epxa1Config();
  config.vim.overlap_prefetch = true;
  config.vim.prefetch = os::PrefetchKind::kNone;
  ExpectAllocationsIndependentOfFaults(config);
}

}  // namespace
}  // namespace vcop
