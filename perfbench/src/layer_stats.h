// The one adapter between the benchmark and the system's per-layer
// statistics structs (ImuStats, TlbStats, VimAccounting,
// VimServiceStats, VcopdStats, VcopServiceStats, ConfigSlotStats).
//
// Every read of those structs lives in layer_stats.cpp. When the
// structs are replaced by a metrics tree, only that file changes; the
// end-to-end metrics are computed from syscall and ring results plus
// the host clock and keep their meaning.
#pragma once

#include "perfbench.h"

namespace vcop::perfbench {

/// Adds one job's FPGA_EXECUTE report (blocking path, or a vcopd job's
/// report) under `kind`.
void AddJobReport(LayerCounters& counters, Kind kind,
                  const os::ExecutionReport& report);

/// Adds the daemon's counters and every job report it holds, plus the
/// ring transport's counters when `service` is non-null.
void AddDaemon(LayerCounters& counters, os::Vcopd& daemon,
               const os::VcopService* service);

/// Adds platform-wide counters: dispatched events, timeline records and
/// the VIM's context-switch counters.
void AddPlatform(LayerCounters& counters, os::Kernel& kernel);

/// Folds every deterministic counter into `hash`.
u64 CounterDigest(u64 hash, const LayerCounters& counters);

}  // namespace vcop::perfbench
