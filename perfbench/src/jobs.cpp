// Staging, the three drive paths and verification of one round.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>

#include "apps/adpcm.h"
#include "apps/conv2d.h"
#include "apps/idea.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "cp/adpcm_cp.h"
#include "cp/conv_cp.h"
#include "cp/gather_cp.h"
#include "cp/histogram_cp.h"
#include "cp/idea_cp.h"
#include "cp/registry.h"
#include "layer_stats.h"
#include "perfbench.h"
#include "tracer.h"

namespace vcop::perfbench {
namespace {

/// Gather input and histogram bins: 16 Ki words = 64 KB, four times the
/// EPXA1 dual-port RAM.
constexpr u32 kTableWords = 16 * 1024;
constexpr u32 kConvShift = 3;

u64 Fnv(u64 hash, const void* data, usize len) {
  const u8* bytes = static_cast<const u8*>(data);
  for (usize i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
template <typename T>
u64 FnvValue(u64 hash, const T& value) {
  return Fnv(hash, &value, sizeof(value));
}

template <typename T>
std::vector<u8> AsBytes(const std::vector<T>& values) {
  std::vector<u8> out(values.size() * sizeof(T));
  std::memcpy(out.data(), values.data(), out.size());
  return out;
}

class Stager {
 public:
  explicit Stager(runtime::FpgaSystem& sys) : sys_(sys) {}

  /// Allocates `data.size()` bytes, writes `data`, returns the address.
  mem::UserAddr Put(const std::vector<u8>& data) {
    const mem::UserAddr addr = Reserve(static_cast<u32>(data.size()));
    sys_.kernel().user_memory().WriteBytes(addr, data);
    input_digest = Fnv(input_digest, data.data(), data.size());
    return addr;
  }
  mem::UserAddr Reserve(u32 bytes) {
    Result<mem::UserAddr> addr = sys_.kernel().user_memory().Allocate(bytes);
    VCOP_CHECK_MSG(addr.ok(), addr.status().ToString());
    return addr.value();
  }

  StagedJob Stage(const JobSpec& spec);

  u64 input_digest = 0xcbf29ce484222325ULL;

 private:
  runtime::FpgaSystem& sys_;
};

StagedJob Stager::Stage(const JobSpec& spec) {
  StagedJob job;
  job.spec = &spec;
  const u32 n = spec.size;
  switch (spec.kind) {
    case Kind::kAdpcm: {
      const std::vector<u8> input = apps::MakeAdpcmStream(n, spec.data_seed);
      std::vector<i16> expect(2 * static_cast<usize>(n));
      apps::AdpcmState state;
      apps::AdpcmDecode(input, expect, state);
      job.expect = AsBytes(expect);
      job.out_bytes = 4 * n;
      job.out_addr = Reserve(job.out_bytes);
      job.objects = {
          {cp::AdpcmDecodeCoprocessor::kObjIn, Put(input), n, 1,
           os::Direction::kIn},
          {cp::AdpcmDecodeCoprocessor::kObjOut, job.out_addr, job.out_bytes,
           2, os::Direction::kOut}};
      job.params = {n, 0, 0, 0};
      job.nparams = 3;
      break;
    }
    case Kind::kIdea: {
      const apps::IdeaSubkeys keys =
          apps::IdeaExpandKey(apps::MakeIdeaKey(spec.data_seed));
      const std::vector<u8> input =
          apps::MakeRandomBytes(n, spec.data_seed + 1);
      job.expect.resize(n);
      apps::IdeaCryptEcb(keys, input, job.expect);
      const std::vector<u16> key(keys.begin(), keys.end());
      job.out_bytes = n;
      job.out_addr = Reserve(n);
      job.objects = {
          {cp::IdeaCoprocessor::kObjIn, Put(input), n, 4, os::Direction::kIn},
          {cp::IdeaCoprocessor::kObjOut, job.out_addr, n, 4,
           os::Direction::kOut},
          {cp::IdeaCoprocessor::kObjKey, Put(AsBytes(key)),
           static_cast<u32>(key.size() * 2), 2, os::Direction::kIn}};
      job.params = {n / 8, cp::IdeaCoprocessor::kModeEcb, 0, 0};
      job.nparams = 4;
      break;
    }
    case Kind::kConv: {
      const u32 pixels = n * spec.height;
      const std::vector<u8> image =
          apps::MakeTestImage(n, spec.height, spec.data_seed);
      const apps::Conv3x3Kernel kernel = apps::BoxBlurKernel();
      job.expect.resize(pixels);
      apps::Convolve3x3(image, n, spec.height, kernel, kConvShift, job.expect);
      std::vector<u32> coeffs(kernel.begin(), kernel.end());
      job.out_bytes = pixels;
      job.out_addr = Reserve(pixels);
      job.objects = {
          {cp::Conv3x3Coprocessor::kObjSrc, Put(image), pixels, 1,
           os::Direction::kIn},
          {cp::Conv3x3Coprocessor::kObjDst, job.out_addr, pixels, 1,
           os::Direction::kOut},
          {cp::Conv3x3Coprocessor::kObjKernel, Put(AsBytes(coeffs)), 36, 4,
           os::Direction::kIn}};
      job.params = {n, spec.height, kConvShift, 0};
      job.nparams = 3;
      break;
    }
    case Kind::kGather: {
      Rng rng(spec.data_seed);
      std::vector<u32> table(kTableWords), perm(n), expect(n);
      for (u32& v : table) v = static_cast<u32>(rng.Next());
      for (u32 i = 0; i < n; ++i) {
        perm[i] = static_cast<u32>(rng.NextBelow(kTableWords));
        expect[i] = table[perm[i]];
      }
      job.expect = AsBytes(expect);
      job.out_bytes = 4 * n;
      job.out_addr = Reserve(job.out_bytes);
      job.objects = {
          {cp::GatherCoprocessor::kObjIn, Put(AsBytes(table)), 4 * kTableWords,
           4, os::Direction::kIn},
          {cp::GatherCoprocessor::kObjOut, job.out_addr, job.out_bytes, 4,
           os::Direction::kOut},
          {cp::GatherCoprocessor::kObjPerm, Put(AsBytes(perm)), 4 * n, 4,
           os::Direction::kIn}};
      job.params = {n, 0, 0, 0};
      job.nparams = 1;
      break;
    }
    case Kind::kHistogram: {
      Rng rng(spec.data_seed);
      std::vector<u32> values(n), bins(kTableWords, 0);
      for (u32& v : values) {
        v = static_cast<u32>(rng.Next());
        ++bins[v & (kTableWords - 1)];
      }
      job.expect = AsBytes(bins);
      job.out_bytes = 4 * kTableWords;
      job.out_addr = Reserve(job.out_bytes);
      job.objects = {
          {cp::HistogramCoprocessor::kObjIn, Put(AsBytes(values)), 4 * n, 4,
           os::Direction::kIn},
          {cp::HistogramCoprocessor::kObjBins, job.out_addr, job.out_bytes, 4,
           os::Direction::kInOut}};
      job.params = {n, kTableWords - 1, 0, 0};
      job.nparams = 2;
      break;
    }
  }
  return job;
}

bool Uses(const StagedJob& job, hw::ObjectId id) {
  return std::any_of(job.objects.begin(), job.objects.end(),
                     [id](const ObjectMap& o) { return o.id == id; });
}

bool SameShape(const ObjectMap& a, const ObjectMap& b) {
  return a.bytes == b.bytes && a.elem_width == b.elem_width && a.dir == b.dir;
}

using MapState = std::array<std::optional<ObjectMap>, hw::kMaxObjects>;

/// Brings a tenant's object table to `job`'s buffers through the vcopd
/// map calls: a same-shaped object is re-pointed, anything else is
/// unmapped and mapped again.
Status MapForTenant(os::Vcopd& daemon, os::TenantId tenant, MapState& mapped,
                    const StagedJob& job, Tracer* tracer, u64 job_id) {
  Tracer::Scope scope(tracer, "os.vcopd.map", job_id);
  for (hw::ObjectId id = 0; id < mapped.size(); ++id) {
    if (mapped[id] && !Uses(job, id)) {
      VCOP_RETURN_IF_ERROR(daemon.UnmapObject(tenant, id));
      mapped[id].reset();
    }
  }
  for (const ObjectMap& o : job.objects) {
    std::optional<ObjectMap>& slot = mapped[o.id];
    if (slot && SameShape(*slot, o)) {
      if (slot->addr != o.addr) {
        VCOP_RETURN_IF_ERROR(daemon.RepointObject(tenant, o.id, o.addr));
      }
    } else {
      if (slot) VCOP_RETURN_IF_ERROR(daemon.UnmapObject(tenant, o.id));
      VCOP_RETURN_IF_ERROR(daemon.MapObject(tenant, o.id, o.addr, o.bytes,
                                            o.elem_width, o.dir));
    }
    slot = o;
  }
  return Status::Ok();
}

/// Bookkeeping shared by the three paths while a round runs.
struct RoundState {
  Tracer* tracer;
  std::vector<StagedJob> jobs;
  std::vector<std::vector<usize>> streams;  // job indices per stream
  std::vector<bool> ok;
  std::vector<double> host_start;
  std::vector<Picoseconds> sim_start;
  RoundResult result;

  u64 JobId(usize index) const {
    return tracer != nullptr ? tracer->JobId(index) : 0;
  }
  u64 RoundId() const { return tracer != nullptr ? tracer->RoundId() : 0; }

  void Finish(usize index, bool status_ok, double host_ns,
              Picoseconds sim_ps) {
    ok[index] = status_ok;
    result.job_host_ns[index] = host_ns;
    result.job_sim_ps[index] = sim_ps;
  }
};

void RunBlocking(RoundState& st, runtime::FpgaSystem& sys,
                 std::vector<os::ExecutionReport>& reports) {
  std::string loaded;
  MapState mapped;
  // Blocking order: the i-th job of every stream, then the (i+1)-th.
  std::vector<usize> order;
  for (usize i = 0;; ++i) {
    bool any = false;
    for (const std::vector<usize>& s : st.streams) {
      if (i < s.size()) {
        order.push_back(s[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  reports.resize(st.jobs.size());
  for (usize index : order) {
    const StagedJob& job = st.jobs[index];
    const hw::Bitstream& bitstream = KindBitstream(job.spec->kind);
    const u64 id = st.JobId(index);
    const double t0 = HostNs();
    Status status = Status::Ok();
    {
      Tracer::Scope job_scope(st.tracer, "job", id);
      if (loaded != bitstream.name) {
        if (!loaded.empty()) {
          Tracer::Scope scope(st.tracer, "os.kernel.unload", id);
          status = sys.Unload();
        }
        if (status.ok()) {
          Tracer::Scope scope(st.tracer, "os.kernel.load", id);
          status = sys.Load(bitstream);
        }
        loaded = status.ok() ? bitstream.name : "";
      }
      for (hw::ObjectId oid = 0; oid < mapped.size() && status.ok(); ++oid) {
        if (mapped[oid] && !Uses(job, oid)) {
          Tracer::Scope scope(st.tracer, "os.kernel.map", id);
          status = sys.Unmap(oid);
          mapped[oid].reset();
        }
      }
      for (const ObjectMap& o : job.objects) {
        if (!status.ok()) break;
        Tracer::Scope scope(st.tracer, "os.kernel.map", id);
        if (mapped[o.id]) status = sys.Unmap(o.id);
        if (status.ok()) {
          status = sys.kernel().FpgaMapObject(o.id, o.addr, o.bytes,
                                              o.elem_width, o.dir);
        }
        mapped[o.id] = o;
      }
      if (status.ok()) {
        Tracer::Scope scope(st.tracer, "os.kernel.execute", id);
        Result<os::ExecutionReport> report = sys.Execute(job.param_span());
        status = report.status();
        if (report.ok()) reports[index] = report.value();
      }
    }
    // A blocking job's simulated time is its FPGA_EXECUTE; FPGA_LOAD
    // time still counts in the round's makespan.
    st.Finish(index, status.ok(), HostNs() - t0,
              status.ok() ? reports[index].total : 0);
    if (status.ok() && job.spec->figure_point) {
      st.result.figure_exec_ps.emplace_back(job.spec, reports[index].total);
    }
  }
}

void RunDirect(RoundState& st, os::Vcopd& daemon,
               const std::vector<os::TenantId>& tenants) {
  std::vector<MapState> mapped(st.streams.size());
  std::vector<usize> cursor(st.streams.size(), 0);
  std::vector<os::Ticket> tickets(st.streams.size(), 0);
  sim::Simulator& sim = daemon.kernel().simulator();
  auto submit_next = [&](usize s) {
    const usize index = st.streams[s][cursor[s]++];
    const StagedJob& job = st.jobs[index];
    const u64 id = st.JobId(index);
    st.host_start[index] = HostNs();
    st.sim_start[index] = sim.now();
    Status status = MapForTenant(daemon, tenants[s], mapped[s], job,
                                 st.tracer, id);
    if (status.ok()) {
      Tracer::Scope scope(st.tracer, "os.vcopd.submit", id);
      Result<os::Ticket> ticket = daemon.Submit(
          tenants[s], KindBitstream(job.spec->kind), job.param_span());
      status = ticket.status();
      if (ticket.ok()) tickets[s] = ticket.value();
    }
    if (!status.ok()) {
      tickets[s] = 0;
      st.Finish(index, false, 0, 0);
    }
  };
  for (usize s = 0; s < st.streams.size(); ++s) {
    if (!st.streams[s].empty()) submit_next(s);
  }
  for (bool active = true; active;) {
    active = false;
    for (usize s = 0; s < st.streams.size(); ++s) {
      if (cursor[s] == 0) continue;
      const usize index = st.streams[s][cursor[s] - 1];
      if (tickets[s] != 0) {
        Tracer::Scope scope(st.tracer, "os.vcopd.wait", st.JobId(index));
        Result<os::JobResult> r = daemon.Wait(tickets[s]);
        tickets[s] = 0;
        const bool ok = r.ok() && r.value().status.ok();
        st.Finish(index, ok, HostNs() - st.host_start[index],
                  ok ? r.value().finished_at - st.sim_start[index] : 0);
        if (ok) st.result.stream_span[s].second = r.value().finished_at;
      }
      if (cursor[s] < st.streams[s].size()) {
        submit_next(s);
        active = true;
      }
    }
  }
  VCOP_CHECK(daemon.RunUntilIdle().ok());
}

void RunRing(RoundState& st, os::VcopService& service,
             const std::vector<os::TenantId>& tenants) {
  os::Vcopd& daemon = service.daemon();
  sim::Simulator& sim = daemon.kernel().simulator();
  std::vector<MapState> mapped(st.streams.size());
  std::vector<usize> cursor(st.streams.size(), 0);
  std::array<u32, kNumKinds> designs{};
  for (usize k = 0; k < kNumKinds; ++k) {
    designs[k] = service.RegisterDesign(KindBitstream(static_cast<Kind>(k)));
  }
  auto publish_next = [&](usize s) {
    const usize index = st.streams[s][cursor[s]++];
    const StagedJob& job = st.jobs[index];
    const u64 id = st.JobId(index);
    st.host_start[index] = HostNs();
    st.sim_start[index] = sim.now();
    Status status = MapForTenant(daemon, tenants[s], mapped[s], job,
                                 st.tracer, id);
    if (status.ok()) {
      os::RingDescriptor d;
      d.cookie = index + 1;
      d.design = designs[static_cast<usize>(job.spec->kind)];
      d.nparams = job.nparams;
      std::copy(job.params.begin(), job.params.begin() + job.nparams,
                d.params.begin());
      Tracer::Scope scope(st.tracer, "os.service.publish", id);
      status = service.Publish(tenants[s], d);
    }
    if (status.ok()) {
      Tracer::Scope scope(st.tracer, "os.service.kick", id);
      status = service.Kick(tenants[s]);
    }
    if (!status.ok()) st.Finish(index, false, 0, 0);
  };
  for (usize s = 0; s < st.streams.size(); ++s) {
    const os::TenantId tenant = tenants[s];
    service.SetCompletionNotifier(tenant, [&, s, tenant] {
      while (service.HasCompletions(tenant)) {
        const usize index = st.streams[s][cursor[s] - 1];
        Result<os::CompletionDescriptor> c = [&] {
          Tracer::Scope scope(st.tracer, "os.service.reap", st.JobId(index));
          return service.Reap(tenant);
        }();
        const bool ok = c.ok() && c.value().code == 0 &&
                        c.value().cookie == index + 1;
        st.Finish(index, ok, HostNs() - st.host_start[index],
                  ok ? c.value().finished_at - st.sim_start[index] : 0);
        if (ok) st.result.stream_span[s].second = c.value().finished_at;
        if (cursor[s] < st.streams[s].size()) publish_next(s);
      }
    });
  }
  for (usize s = 0; s < st.streams.size(); ++s) {
    if (!st.streams[s].empty()) publish_next(s);
  }
  Tracer::Scope scope(st.tracer, "os.service.run", st.RoundId());
  VCOP_CHECK(service.RunUntilQuiescent().ok());
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kAdpcm: return "adpcm";
    case Kind::kIdea: return "idea";
    case Kind::kConv: return "conv3x3";
    case Kind::kGather: return "gather";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

const hw::Bitstream& KindBitstream(Kind kind) {
  static const std::array<hw::Bitstream, kNumKinds> bitstreams = {
      cp::AdpcmDecodeBitstream(), cp::IdeaBitstream(),
      cp::Conv3x3Bitstream(), cp::GatherBitstream(),
      cp::HistogramBitstream()};
  return bitstreams[static_cast<usize>(kind)];
}

RoundResult RunRound(const Workload& workload, const os::KernelConfig& config,
                     Path path, Tracer* tracer) {
  RoundState st{tracer, {}, {}, {}, {}, {}, {}};
  RoundResult& r = st.result;
  if (tracer != nullptr) tracer->BeginRound();

  // ----- set-up: platform, inputs, references, staging, tenants -----
  const double setup_start = HostNs();
  std::unique_ptr<runtime::FpgaSystem> sys;
  std::unique_ptr<os::Vcopd> daemon;
  std::unique_ptr<os::VcopService> service;
  std::vector<os::TenantId> tenants;
  {
    Tracer::Scope setup(tracer, "runtime.setup", st.RoundId());
    sys = std::make_unique<runtime::FpgaSystem>(config);
    {
      Tracer::Scope stage(tracer, "runtime.stage", st.RoundId());
      Stager stager(*sys);
      st.jobs.reserve(workload.jobs.size());
      for (const JobSpec& spec : workload.jobs) {
        st.jobs.push_back(stager.Stage(spec));
      }
      r.input_digest = stager.input_digest;
    }
    st.streams.resize(workload.streams);
    for (usize i = 0; i < workload.jobs.size(); ++i) {
      st.streams[workload.jobs[i].stream].push_back(i);
    }
    if (path != Path::kBlocking) {
      daemon = std::make_unique<os::Vcopd>(sys->kernel(),
                                           workload.daemon_config);
      if (path == Path::kRing) {
        service = std::make_unique<os::VcopService>(*daemon);
      }
      for (u32 s = 0; s < workload.streams; ++s) {
        Result<os::TenantId> tenant =
            daemon->RegisterTenant("tenant-" + std::to_string(s));
        VCOP_CHECK_MSG(tenant.ok(), tenant.status().ToString());
        tenants.push_back(tenant.value());
        if (service) VCOP_CHECK(service->AttachTenant(tenant.value()).ok());
      }
    }
  }
  r.setup_ns = HostNs() - setup_start;

  // ----- job phase (timed) -----
  const usize n = st.jobs.size();
  st.ok.assign(n, false);
  st.host_start.assign(n, 0);
  st.sim_start.assign(n, 0);
  r.job_host_ns.assign(n, 0);
  r.job_sim_ps.assign(n, 0);
  r.stream_span.assign(workload.streams, {0, 0});
  sim::Simulator& sim = sys->kernel().simulator();
  const Picoseconds sim_start = sim.now();
  std::vector<os::ExecutionReport> reports;
  const double host_start = HostNs();
  switch (path) {
    case Path::kBlocking: RunBlocking(st, *sys, reports); break;
    case Path::kDirect: RunDirect(st, *daemon, tenants); break;
    case Path::kRing: RunRing(st, *service, tenants); break;
  }
  r.host_ns = HostNs() - host_start;
  r.makespan = sim.now() - sim_start;

  // ----- verification and counters (untimed) -----
  r.attempted = n;
  const mem::UserMemory& memory = sys->kernel().user_memory();
  for (usize i = 0; i < n; ++i) {
    const StagedJob& job = st.jobs[i];
    const std::span<const u8> out = memory.View(job.out_addr, job.out_bytes);
    if (!st.ok[i] || !std::equal(out.begin(), out.end(), job.expect.begin(),
                                 job.expect.end())) {
      ++r.failed;
    }
  }
  for (usize s = 0; s < st.streams.size(); ++s) {
    if (!st.streams[s].empty()) {
      r.stream_span[s].first = st.sim_start[st.streams[s].front()];
    }
  }
  if (path == Path::kBlocking) {
    for (usize i = 0; i < n; ++i) {
      if (st.ok[i]) AddJobReport(r.counters, st.jobs[i].spec->kind, reports[i]);
    }
  } else {
    AddDaemon(r.counters, *daemon, service.get());
  }
  AddPlatform(r.counters, sys->kernel());

  u64 digest = 0xcbf29ce484222325ULL;
  for (usize i = 0; i < n; ++i) {
    digest = FnvValue(digest, r.job_sim_ps[i]);
    digest = FnvValue(digest, static_cast<u8>(st.ok[i]));
  }
  digest = FnvValue(digest, r.makespan);
  digest = CounterDigest(digest, r.counters);
  r.sim_digest = digest;
  return r;
}

}  // namespace vcop::perfbench
