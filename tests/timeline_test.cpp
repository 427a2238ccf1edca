// Tests for the execution timeline recorder and its Chrome-trace export.
#include <gtest/gtest.h>

#include "apps/workloads.h"
#include "os/timeline.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

using os::TimelineKind;

TEST(TimelineTest, RecordsAndExports) {
  os::TimelineRecorder timeline;
  timeline.Enable();
  timeline.Record(TimelineKind::kFault, 0, 1'000'000, 2'000'000,
                  /*object=*/0, /*page=*/1);
  timeline.Record(TimelineKind::kExecute, 1, 0, 10'000'000, 0, 0, "adpcm");
  ASSERT_EQ(timeline.events().size(), 2u);

  const std::string json = timeline.ToChromeTrace();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fault obj0 page1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"execute adpcm\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"exec\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // 1e6 ps = 1 us timestamps.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
}

TEST(TimelineTest, RendersEveryKindsNameAndCategory) {
  os::TimelineRecorder timeline;
  timeline.Enable();
  timeline.Record(TimelineKind::kPreempt, 3, 0, 1, 7, 2);
  timeline.Record(TimelineKind::kVcopdDispatch, 3, 0, 1, 7, 0, "idea");
  timeline.Record(TimelineKind::kVcopdComplete, 3, 0, 0, 7, 1, "idea");
  timeline.Record(TimelineKind::kRingDrain, 3, 0, 0, 4, 12);
  timeline.Record(TimelineKind::kSweep, 0, 0, 1);
  const auto events = timeline.events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(timeline.Name(events[0]), "preempt pid7 obj2");
  EXPECT_EQ(os::TimelineCategory(events[0].kind), "preempt");
  EXPECT_EQ(timeline.Name(events[1]), "vcopd dispatch pid7 idea");
  EXPECT_EQ(timeline.Name(events[2]), "vcopd complete pid7 idea (failed)");
  EXPECT_EQ(timeline.Name(events[3]), "ring drain tenant4 x12");
  EXPECT_EQ(os::TimelineCategory(events[3].kind), "service");
  EXPECT_EQ(timeline.Name(events[4]), "end-of-operation sweep");
  EXPECT_EQ(os::TimelineCategory(events[4].kind), "transfer");
}

TEST(TimelineTest, EscapesJsonSpecials) {
  os::TimelineRecorder timeline;
  timeline.Enable();
  timeline.Record(TimelineKind::kConfigure, 0, 0, 1, 0, 0,
                  "quote\"back\\slash");
  const std::string json = timeline.ToChromeTrace();
  EXPECT_NE(json.find("configure quote\\\"back\\\\slash"),
            std::string::npos);
}

TEST(TimelineTest, DisabledRecorderKeepsNothing) {
  os::TimelineRecorder timeline;
  timeline.Record(TimelineKind::kFault, 0, 0, 1, 0, 0);
  EXPECT_TRUE(timeline.events().empty());
  EXPECT_EQ(timeline.dropped(), 0u);
  EXPECT_EQ(timeline.ToChromeTrace(), "{\"traceEvents\":[]}");
}

TEST(TimelineTest, FullRecorderCountsDropsAndDoesNotGrow) {
  os::TimelineRecorder timeline;
  timeline.Enable();
  timeline.Record(TimelineKind::kFault, 0, 0, 1, 0, 0);
  const os::TimelineRecord* storage = timeline.events().data();
  constexpr usize kCapacity = os::TimelineRecorder::kCapacity;
  for (u64 page = 1; page < kCapacity + 6; ++page) {
    timeline.Record(TimelineKind::kFault, 0, page, 1, 0, page);
  }
  ASSERT_EQ(timeline.events().size(), kCapacity);
  EXPECT_EQ(timeline.dropped(), 6u);
  // The storage reserved by Enable() was never reallocated, and the
  // oldest records are the ones kept.
  EXPECT_EQ(timeline.events().data(), storage);
  EXPECT_EQ(timeline.events().back().a1, kCapacity - 1);

  timeline.Clear();
  EXPECT_TRUE(timeline.events().empty());
  EXPECT_EQ(timeline.dropped(), 0u);
  // Clear() leaves the recorder on.
  timeline.Record(TimelineKind::kFault, 0, 0, 1, 0, 0);
  EXPECT_EQ(timeline.events().size(), 1u);
}

TEST(TimelineTest, KernelRecordsNothingUntilEnabled) {
  runtime::FpgaSystem sys(runtime::Epxa1Config());
  const std::vector<u8> input = apps::MakeAdpcmStream(8192, 7);
  auto run = runtime::RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run.value().report.vim.faults, 0u);
  EXPECT_TRUE(sys.kernel().timeline().events().empty());
  EXPECT_EQ(sys.kernel().timeline().dropped(), 0u);
}

TEST(TimelineTest, KernelPopulatesTimelineDuringRuns) {
  runtime::FpgaSystem sys(runtime::Epxa1Config());
  sys.kernel().timeline().Enable();
  const std::vector<u8> input = apps::MakeAdpcmStream(8192, 7);
  auto run = runtime::RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const auto events = sys.kernel().timeline().events();
  EXPECT_EQ(sys.kernel().timeline().dropped(), 0u);
  usize configs = 0, execs = 0, faults = 0, sweeps = 0;
  for (const auto& event : events) {
    configs += event.kind == TimelineKind::kConfigure;
    execs += event.kind == TimelineKind::kExecute;
    faults += event.kind == TimelineKind::kFault;
    sweeps += event.kind == TimelineKind::kSweep;
  }
  EXPECT_EQ(configs, 1u);
  EXPECT_EQ(execs, 1u);
  EXPECT_EQ(faults, run.value().report.vim.faults +
                        run.value().report.vim.tlb_refills);
  EXPECT_EQ(sweeps, 1u);

  // Every fault span lies inside the execute span.
  Picoseconds exec_start = 0, exec_end = 0;
  for (const auto& event : events) {
    if (event.kind == TimelineKind::kExecute) {
      exec_start = event.start;
      exec_end = event.start + event.duration;
    }
  }
  for (const auto& event : events) {
    if (event.kind != TimelineKind::kFault) continue;
    EXPECT_GE(event.start, exec_start);
    EXPECT_LE(event.start + event.duration, exec_end);
  }
}

TEST(TimelineTest, OverlappedUnitsLandOnBackgroundTrack) {
  os::KernelConfig config = runtime::Epxa1Config();
  config.vim.prefetch = os::PrefetchKind::kSequential;
  config.vim.overlap_prefetch = true;
  runtime::FpgaSystem sys(config);
  sys.kernel().timeline().Enable();
  const std::vector<u8> input = apps::MakeAdpcmStream(8192, 9);
  auto run = runtime::RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  usize overlap_units = 0;
  for (const auto& event : sys.kernel().timeline().events()) {
    if (os::TimelineCategory(event.kind) == "overlap") {
      EXPECT_EQ(event.track, 2u);
      ++overlap_units;
    }
  }
  EXPECT_GT(overlap_units, 0u);
}

}  // namespace
}  // namespace vcop
