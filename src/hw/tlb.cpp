#include "hw/tlb.h"

namespace vcop::hw {

Tlb::Tlb(u32 num_entries) : entries_(num_entries) {
  VCOP_CHECK_MSG(num_entries >= 1, "TLB needs at least one entry");
}

std::optional<u32> Tlb::Lookup(ObjectId object, mem::VirtPage vpage,
                               Asid asid) {
  ++stats_.lookups;
  const std::optional<u32> idx = Probe(object, vpage, asid);
  if (idx.has_value()) {
    if (!entries_[*idx].parity_ok) {
      // The CAM match hit a corrupted entry: the parity check rejects
      // it, the entry is dropped, and the access takes the miss path so
      // the OS re-installs a good mapping.
      ++stats_.parity_errors;
      const TlbEntry old = entries_[*idx];
      entries_[*idx] = TlbEntry{};
      ++generation_;
      if (parity_drop_hook_) parity_drop_hook_(old);
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    entries_[*idx].accessed = true;
  } else {
    ++stats_.misses;
  }
  return idx;
}

void Tlb::NoteHit(u32 index) {
  VCOP_CHECK_MSG(index < entries_.size(), "TLB index out of range");
  VCOP_CHECK_MSG(entries_[index].valid, "NoteHit on invalid entry");
  ++stats_.lookups;
  ++stats_.hits;
  entries_[index].accessed = true;
}

std::optional<u32> Tlb::Probe(ObjectId object, mem::VirtPage vpage,
                              Asid asid) const {
  for (u32 i = 0; i < entries_.size(); ++i) {
    const TlbEntry& e = entries_[i];
    if (e.valid && e.object == object && e.vpage == vpage &&
        e.asid == asid) {
      return i;
    }
  }
  return std::nullopt;
}

void Tlb::Install(u32 index, ObjectId object, mem::VirtPage vpage,
                  mem::FrameId frame, Asid asid) {
  VCOP_CHECK_MSG(index < entries_.size(), "TLB index out of range");
  VCOP_CHECK_MSG(object < kMaxObjects, "object id out of range");
  TlbEntry entry;
  entry.valid = true;
  entry.object = object;
  entry.asid = asid;
  entry.vpage = vpage;
  entry.frame = frame;
  if (fault_plan_ && fault_plan_->ShouldInject(FaultSite::kTlbParity)) {
    entry.parity_ok = false;
  }
  entries_[index] = entry;
  ++stats_.installs;
  ++generation_;
}

TlbEntry Tlb::Invalidate(u32 index) {
  VCOP_CHECK_MSG(index < entries_.size(), "TLB index out of range");
  TlbEntry old = entries_[index];
  entries_[index] = TlbEntry{};
  ++generation_;
  return old;
}

void Tlb::InvalidateAll() {
  for (TlbEntry& e : entries_) e = TlbEntry{};
  ++generation_;
}

u32 Tlb::InvalidateAsid(Asid asid) {
  u32 dropped = 0;
  for (TlbEntry& e : entries_) {
    if (e.valid && e.asid == asid) {
      e = TlbEntry{};
      ++dropped;
    }
  }
  if (dropped != 0) ++generation_;
  return dropped;
}

void Tlb::MarkDirty(u32 index) {
  VCOP_CHECK_MSG(index < entries_.size(), "TLB index out of range");
  VCOP_CHECK_MSG(entries_[index].valid, "MarkDirty on invalid entry");
  entries_[index].dirty = true;
}

void Tlb::ClearDirty(u32 index) {
  VCOP_CHECK_MSG(index < entries_.size(), "TLB index out of range");
  VCOP_CHECK_MSG(entries_[index].valid, "ClearDirty on invalid entry");
  entries_[index].dirty = false;
}

void Tlb::HarvestAccessed(std::vector<mem::FrameId>& touched) {
  touched.clear();
  AppendAccessed(touched);
}

void Tlb::AppendAccessed(std::vector<mem::FrameId>& touched) {
  for (TlbEntry& e : entries_) {
    if (e.valid && e.accessed) {
      touched.push_back(e.frame);
      e.accessed = false;
    }
  }
}

std::optional<u32> Tlb::FindByFrame(mem::FrameId frame) const {
  for (u32 i = 0; i < entries_.size(); ++i) {
    if (entries_[i].valid && entries_[i].frame == frame) return i;
  }
  return std::nullopt;
}

std::optional<u32> Tlb::FindFree() const {
  for (u32 i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].valid) return i;
  }
  return std::nullopt;
}

const TlbEntry& Tlb::entry(u32 index) const {
  VCOP_CHECK_MSG(index < entries_.size(), "TLB index out of range");
  return entries_[index];
}

std::optional<u32> TlbHierarchy::Lookup(ObjectId object,
                                        mem::VirtPage vpage, Asid asid) {
  last_fill_from_l2_ = false;
  const std::optional<u32> l1_idx = l1_->Lookup(object, vpage, asid);
  if (l1_idx.has_value() || l2_ == nullptr) return l1_idx;

  // L1 missed; probe the shared L2 (its parity screening applies — a
  // corrupt L2 entry is dropped there and the access faults).
  const std::optional<u32> l2_idx = l2_->Lookup(object, vpage, asid);
  if (!l2_idx.has_value()) return std::nullopt;
  const TlbEntry l2e = l2_->entry(*l2_idx);

  // Hardware fill into L1: a free slot if one exists, else round-robin.
  u32 slot;
  if (const std::optional<u32> free = l1_->FindFree(); free.has_value()) {
    slot = *free;
  } else {
    slot = fill_cursor_++ % l1_->num_entries();
  }
  const TlbEntry victim = l1_->entry(slot);
  if (victim.valid) {
    ++stats_.l1_fill_evictions;
    if (victim.dirty) {
      // The victim usually still lives in L2 (fills copy, they don't
      // move); merge the dirty bit there. Only if the OS has since
      // recycled the L2 twin does the dirtiness need to escape to the
      // OS via the evict hook.
      const std::optional<u32> twin =
          l2_->Probe(victim.object, victim.vpage, victim.asid);
      if (twin.has_value() && l2_->entry(*twin).frame == victim.frame) {
        l2_->MarkDirty(*twin);
        ++stats_.dirty_merges;
      } else {
        ++stats_.orphan_evictions;
        if (evict_hook_) evict_hook_(victim);
      }
    }
  }
  // The L2 entry's dirty bit stays in L2; the L1 copy starts clean, so
  // no write-back information is lost or duplicated.
  l1_->Install(slot, object, vpage, l2e.frame, asid);
  ++stats_.l1_fills;
  if (!l1_->entry(slot).parity_ok) {
    // The fill itself was corrupted on the way into the CAM. Treat the
    // access as a miss: the OS fault path re-installs a good entry (the
    // corrupt one is dropped by its own parity check on the next match).
    return std::nullopt;
  }
  last_fill_from_l2_ = true;
  return slot;
}

u32 TlbHierarchy::InvalidateAsid(Asid asid) {
  u32 dropped = l1_->InvalidateAsid(asid);
  if (l2_ != nullptr) dropped += l2_->InvalidateAsid(asid);
  return dropped;
}

void TlbHierarchy::InvalidateAll() {
  l1_->InvalidateAll();
  if (l2_ != nullptr) l2_->InvalidateAll();
}

TlbEntry TlbHierarchy::InvalidateFrame(mem::FrameId frame) {
  TlbEntry merged;
  for (Tlb* level : {l1_, l2_}) {
    if (level == nullptr) continue;
    if (const std::optional<u32> e = level->FindByFrame(frame)) {
      const TlbEntry old = level->Invalidate(*e);
      merged.valid = true;
      merged.dirty = merged.dirty || old.dirty;
      merged.accessed = merged.accessed || old.accessed;
    }
  }
  return merged;
}

bool TlbHierarchy::FrameDirty(mem::FrameId frame) const {
  for (const Tlb* level : {l1_, l2_}) {
    if (level == nullptr) continue;
    const std::optional<u32> e = level->FindByFrame(frame);
    if (e.has_value() && level->entry(*e).dirty) return true;
  }
  return false;
}

void TlbHierarchy::ClearDirtyFrame(mem::FrameId frame) {
  for (Tlb* level : {l1_, l2_}) {
    if (level == nullptr) continue;
    if (const std::optional<u32> e = level->FindByFrame(frame)) {
      level->ClearDirty(*e);
    }
  }
}

void TlbHierarchy::HarvestAccessed(std::vector<mem::FrameId>& touched) {
  l1_->HarvestAccessed(touched);
  if (l2_ != nullptr) l2_->AppendAccessed(touched);
}

void TlbHierarchy::ResetStats() {
  stats_ = TlbHierarchyStats{};
  l1_->ResetStats();
  if (l2_ != nullptr) l2_->ResetStats();
}

}  // namespace vcop::hw
