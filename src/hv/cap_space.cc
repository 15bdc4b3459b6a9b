#include "src/hv/cap_space.h"

namespace nova::hv {

Status CapSpace::Insert(CapSel sel, Capability cap) {
  if (sel >= slots_.size()) {
    return Status::kOverflow;
  }
  if (slots_[sel].object != nullptr && slots_[sel].Valid()) {
    return Status::kBusy;
  }
  const std::uint32_t chunk_bit = 1u << (sel / kChunkSlots);
  if ((committed_ & chunk_bit) == 0) {
    if (charge_ && !charge_(1)) {
      return Status::kNoMem;
    }
    committed_ |= chunk_bit;
    ++committed_count_;
  }
  slots_[sel] = std::move(cap);
  return Status::kSuccess;
}

const Capability* CapSpace::Lookup(CapSel sel) const {
  if (sel >= slots_.size() || !slots_[sel].Valid()) {
    return nullptr;
  }
  return &slots_[sel];
}

ObjRef CapSpace::LookupRef(CapSel sel) const {
  const Capability* cap = Lookup(sel);
  return cap == nullptr ? nullptr : cap->object;
}

Status CapSpace::Remove(CapSel sel) {
  if (sel >= slots_.size()) {
    return Status::kBadParameter;
  }
  slots_[sel] = Capability{};
  return Status::kSuccess;
}

CapSel CapSpace::FindFree(CapSel from) const {
  for (CapSel sel = from; sel < slots_.size(); ++sel) {
    if (slots_[sel].object == nullptr) {
      return sel;
    }
  }
  return kInvalidSel;
}

std::size_t CapSpace::used() const {
  std::size_t n = 0;
  for (const Capability& cap : slots_) {
    if (cap.object != nullptr) {
      ++n;
    }
  }
  return n;
}

// `map` is the caller's oid translation: object to oid on save, oid to
// object on load.
template <class Self, class Io, class Map>
Status CapSpace::Fields(Self& s, Io& io, const Map& map) {
  io.U32(s.committed_);
  io.U64(s.committed_count_);
  struct Held {
    CapSel sel = 0;
    std::uint64_t oid = 0;
    std::uint8_t perms = 0;
  };
  std::vector<Held> held;
  if constexpr (!Io::kLoading) {
    for (CapSel sel = 0; sel < s.slots_.size(); ++sel) {
      const Capability& cap = s.slots_[sel];
      if (cap.object != nullptr) {
        held.push_back({sel, map(cap.object.get()), cap.perms});
        io.Require(held.back().oid != KObject::kNoOid);  // Unregistered.
      }
    }
  }
  io.Seq32(held, [&io](auto& h) {
    io.U32(h.sel);
    io.U64(h.oid);
    io.U8(h.perms);
  });
  if constexpr (Io::kLoading) {
    s.slots_.assign(kCapSpaceSlots, Capability{});
    for (const Held& h : held) {
      ObjRef obj = h.sel < s.slots_.size() ? map(h.oid) : nullptr;
      io.Require(obj != nullptr);
      if (obj != nullptr) {
        s.slots_[h.sel] = Capability{std::move(obj), h.perms};
      }
    }
  }
  return io.status();
}

Status CapSpace::SaveState(sim::SnapWriter& w, const OidOf& oid_of) const {
  return Fields(*this, w, oid_of);
}
Status CapSpace::LoadState(sim::SnapReader& r, const RefOf& ref_of) {
  return Fields(*this, r, ref_of);
}

}  // namespace nova::hv
