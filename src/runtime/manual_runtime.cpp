#include "runtime/manual_runtime.h"

#include "base/bitops.h"
#include "base/table.h"
#include "mem/ahb.h"
#include "mem/transfer.h"

namespace vcop::runtime {

DirectPort::DirectPort(sim::Simulator& sim, mem::DualPortRam& dp_ram)
    : sim_(sim), dp_ram_(dp_ram) {}

void DirectPort::SetObject(hw::ObjectId object, u32 base_offset,
                           u32 elem_width) {
  VCOP_CHECK_MSG(object < hw::kMaxObjects, "object id out of range");
  VCOP_CHECK_MSG(elem_width == 1 || elem_width == 2 || elem_width == 4,
                 "element width must be 1, 2 or 4");
  VCOP_CHECK_MSG(base_offset % elem_width == 0,
                 "manual layout must align objects to their element size");
  Mapping m;
  m.valid = true;
  m.base = base_offset;
  m.width = elem_width;
  map_[object] = m;
}

void DirectPort::SetRegisterObject(hw::ObjectId object, u32 base_offset,
                                   u32 elem_width) {
  SetObject(object, base_offset, elem_width);
  map_[object].registers = true;
}

void DirectPort::WriteRegisterFile(u32 offset, std::span<const u8> data) {
  VCOP_CHECK_MSG(offset + data.size() <= reg_file_.size(),
                 "register-file write out of range");
  std::copy(data.begin(), data.end(), reg_file_.begin() + offset);
}

bool DirectPort::CanIssue() const { return started_ && !outstanding_; }

void DirectPort::Issue(const hw::CpAccess& access) {
  VCOP_CHECK_MSG(CanIssue(), "Issue on a busy direct port");
  const Mapping& m = map_[access.object];
  VCOP_CHECK_MSG(m.valid, StrFormat("direct port: object %u has no fixed "
                                    "base (platform wiring bug)",
                                    access.object));
  const u32 paddr = m.base + access.index * m.width;
  if (m.registers) {
    VCOP_CHECK_MSG(paddr + m.width <= reg_file_.size(),
                   "register-file access out of range");
    if (access.write) {
      for (u32 b = 0; b < m.width; ++b) {
        reg_file_[paddr + b] = static_cast<u8>(access.wdata >> (8 * b));
      }
      rdata_ = 0;
    } else {
      rdata_ = 0;
      for (u32 b = 0; b < m.width; ++b) {
        rdata_ |= static_cast<u32>(reg_file_[paddr + b]) << (8 * b);
      }
    }
  } else if (access.write) {
    dp_ram_.WriteWord(mem::DualPortRam::Port::kCoprocessor, paddr, m.width,
                      access.wdata);
    rdata_ = 0;
  } else {
    rdata_ = dp_ram_.ReadWord(mem::DualPortRam::Port::kCoprocessor, paddr,
                              m.width);
  }
  outstanding_ = true;
  // Single-cycle memory: data valid at the core's next rising edge.
  VCOP_CHECK_MSG(cp_domain_ != nullptr, "direct port clock not bound");
  const Frequency& f = cp_domain_->frequency();
  ready_at_ = f.EdgeTime(f.CyclesAt(sim_.now()) + 1);
  sim::ClockDomain* cp = cp_domain_;
  sim_.ScheduleAt(ready_at_, [cp] { cp->Kick(); });
}

bool DirectPort::ResponseReady() const {
  return outstanding_ && sim_.now() >= ready_at_;
}

u32 DirectPort::ConsumeResponse() {
  VCOP_CHECK_MSG(ResponseReady(), "ConsumeResponse before data valid");
  outstanding_ = false;
  return rdata_;
}

void DirectPort::SignalFinish() {
  VCOP_CHECK_MSG(started_, "CP_FIN while not started");
  started_ = false;
  finished_ = true;
}

ManualRunner::ManualRunner(const os::CostModel& costs, u32 dp_ram_bytes)
    : costs_(costs), dp_ram_bytes_(dp_ram_bytes) {
  VCOP_CHECK_MSG(dp_ram_bytes >= 16, "interface memory unrealistically small");
}

Result<ManualRunResult> ManualRunner::Run(
    const hw::Bitstream& bitstream, std::span<const ManualObject> objects,
    std::span<const u32> params) {
  // --- the platform-specific layout arithmetic the paper's Figure 3
  // complains about: pack everything at fixed offsets. Scalar params
  // and register objects go into the core register file; datasets go
  // into the dual-port RAM. ---
  const u32 param_bytes = static_cast<u32>(params.size() * 4);
  u32 dp_cursor = 0;
  u32 reg_cursor = param_bytes;
  std::vector<u32> base(objects.size());
  for (usize i = 0; i < objects.size(); ++i) {
    const ManualObject& object = objects[i];
    if (object.size_bytes == 0 ||
        object.size_bytes % object.elem_width != 0) {
      return InvalidArgumentError(
          StrFormat("object %u: bad size/width", object.id));
    }
    u32& cursor = object.in_registers ? reg_cursor : dp_cursor;
    cursor = static_cast<u32>(AlignUp(cursor, object.elem_width));
    base[i] = cursor;
    cursor += object.size_bytes;
  }
  if (dp_cursor > dp_ram_bytes_) {
    return ResourceExhaustedError(StrFormat(
        "dataset exceeds available memory: layout needs %u bytes, the "
        "dual-port RAM has %u",
        dp_cursor, dp_ram_bytes_));
  }
  if (reg_cursor > DirectPort::kRegisterFileBytes) {
    return ResourceExhaustedError(StrFormat(
        "register objects need %u bytes; the core register file has %u",
        reg_cursor, DirectPort::kRegisterFileBytes));
  }

  // --- private platform: simulator, DP-RAM, core, direct port ---
  sim::Simulator sim;
  mem::DualPortRam dp_ram(dp_ram_bytes_);
  if (!bitstream.create) {
    return InvalidArgumentError("bitstream has no core factory");
  }
  std::unique_ptr<hw::Coprocessor> core = bitstream.create();
  sim::ClockDomain& cp_domain =
      sim.AddClockDomain("cp", bitstream.cp_clock);
  DirectPort port(sim, dp_ram);
  port.BindCpDomain(cp_domain);
  port.SetRegisterObject(hw::kParamObject, 0, 4);
  for (usize i = 0; i < objects.size(); ++i) {
    if (objects[i].in_registers) {
      port.SetRegisterObject(objects[i].id, base[i], objects[i].elem_width);
    } else {
      port.SetObject(objects[i].id, base[i], objects[i].elem_width);
    }
  }
  core->BindPort(port);
  cp_domain.Attach(*core);

  // --- user-code staging (single direct copies; no OS, no bounce) ---
  mem::TransferEngine pricing(mem::AhbModel(costs_.ahb, costs_.cpu_clock),
                              costs_.cpu_clock, mem::CopyMode::kSingleCopy,
                              costs_.sdram_cycles_per_word);
  Picoseconds t_copy = 0;
  for (usize i = 0; i < params.size(); ++i) {
    u8 word[4];
    for (u32 b = 0; b < 4; ++b) word[b] = static_cast<u8>(params[i] >> (8 * b));
    port.WriteRegisterFile(static_cast<u32>(4 * i), word);
  }
  t_copy += pricing.PriceTransfer(param_bytes);
  for (usize i = 0; i < objects.size(); ++i) {
    if (objects[i].in.empty()) continue;
    if (objects[i].in.size() != objects[i].size_bytes) {
      return InvalidArgumentError(
          StrFormat("object %u: staged data size mismatch", objects[i].id));
    }
    if (objects[i].in_registers) {
      port.WriteRegisterFile(base[i], objects[i].in);
    } else {
      dp_ram.Write(mem::DualPortRam::Port::kProcessor, base[i],
                   objects[i].in);
    }
    t_copy += pricing.PriceTransfer(objects[i].size_bytes);
  }

  // --- run the core ---
  const Picoseconds t_start = sim.now();
  port.Start();
  core->Start(static_cast<u32>(params.size()));
  cp_domain.Kick();
  const bool converged = sim.RunUntil([&port] { return port.finished(); });
  if (!converged) {
    return UnavailableError("coprocessor did not complete (FSM deadlock?)");
  }
  const Picoseconds t_hw = sim.now() - t_start;

  // --- copy results back ---
  for (usize i = 0; i < objects.size(); ++i) {
    if (objects[i].out.empty()) continue;
    if (objects[i].out.size() != objects[i].size_bytes) {
      return InvalidArgumentError(
          StrFormat("object %u: output buffer size mismatch",
                    objects[i].id));
    }
    dp_ram.Read(mem::DualPortRam::Port::kProcessor, base[i],
                objects[i].out);
    t_copy += pricing.PriceTransfer(objects[i].size_bytes);
  }

  ManualRunResult result;
  result.t_hw = t_hw;
  result.t_copy = t_copy;
  // Minimal invocation overhead: a couple of register writes and a
  // completion poll — no syscalls, no interrupts.
  result.total = t_hw + t_copy + costs_.Cycles(400);
  result.cp_cycles = core->cycles_run();
  return result;
}

}  // namespace vcop::runtime
