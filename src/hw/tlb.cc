#include "src/hw/tlb.h"

#include <algorithm>
#include <tuple>
#include <vector>

namespace nova::hw {

std::optional<PhysAddr> Tlb::Lookup(TlbTag tag, VirtAddr va, Access access) {
  // Probe both size classes: we do not know the mapping size in advance.
  for (const std::uint64_t size : {kPageSize, std::uint64_t{2} << 20, std::uint64_t{4} << 20}) {
    auto it = map_.find(MakeKey(tag, va, size));
    if (it == map_.end() || it->second.entry.page_size != size) {
      continue;
    }
    TlbEntry& e = it->second.entry;
    if (access.write && !e.writable) {
      continue;  // Permission-insufficient entry: treat as miss.
    }
    if (access.user && !e.user) {
      continue;
    }
    if (access.write && !e.dirty) {
      continue;  // Clean entry: the walk must run again to set D.
    }
    it->second.lru = ++clock_;
    hits_.Add();
    return (e.phys_page & ~(size - 1)) | (va & (size - 1));
  }
  misses_.Add();
  return std::nullopt;
}

void Tlb::Insert(TlbTag tag, VirtAddr va, PhysAddr pa, std::uint64_t page_size,
                 bool writable, bool user, bool dirty, bool global) {
  const Key key = MakeKey(tag, va, page_size);
  auto it = map_.find(key);
  if (it == map_.end()) {
    EvictIfNeeded(key.large);
    it = map_.emplace(key, Slot{}).first;
    if (key.large) {
      ++count_large_;
    } else {
      ++count_4k_;
    }
  }
  it->second.entry = TlbEntry{
      .phys_page = pa & ~(page_size - 1),
      .page_size = page_size,
      .writable = writable,
      .user = user,
      .dirty = dirty,
      .global = global,
  };
  it->second.lru = ++clock_;
}

void Tlb::EvictIfNeeded(bool large) {
  const std::uint32_t cap = large ? capacity_large_ : capacity_4k_;
  std::uint32_t& count = large ? count_large_ : count_4k_;
  if (count < cap) {
    return;
  }
  // Evict the least recently used entry of the same size class. The lru
  // stamps come from ++clock_ and are unique, so the strict-min victim is
  // the same whatever order the buckets are walked in.
  auto victim = map_.end();
  // nova-lint: allow(determinism) -- strict min over unique lru stamps
  for (auto it = map_.begin(); it != map_.end(); ++it) {
    if (it->first.large != large) {
      continue;
    }
    if (victim == map_.end() || it->second.lru < victim->second.lru) {
      victim = it;
    }
  }
  if (victim != map_.end()) {
    map_.erase(victim);
    --count;
  }
}

void Tlb::FlushAll() {
  map_.clear();
  count_4k_ = 0;
  count_large_ = 0;
  flushes_.Add();
}

void Tlb::FlushTag(TlbTag tag) {
  // Erases every matching entry; the surviving set and both counters are
  // the same in any walk order.
  // nova-lint: allow(determinism) -- order-independent full-scan erase
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.tag == tag) {
      if (it->first.large) {
        --count_large_;
      } else {
        --count_4k_;
      }
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
  flushes_.Add();
}

void Tlb::FlushNonGlobal(TlbTag tag) {
  // nova-lint: allow(determinism) -- order-independent full-scan erase
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.tag == tag && !it->second.entry.global) {
      if (it->first.large) {
        --count_large_;
      } else {
        --count_4k_;
      }
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
  flushes_.Add();
}

void Tlb::FlushVa(TlbTag tag, VirtAddr va) {
  for (const std::uint64_t size : {kPageSize, std::uint64_t{2} << 20, std::uint64_t{4} << 20}) {
    auto it = map_.find(MakeKey(tag, va, size));
    if (it != map_.end() && it->second.entry.page_size == size) {
      if (it->first.large) {
        --count_large_;
      } else {
        --count_4k_;
      }
      map_.erase(it);
    }
  }
}

template <class Self, class Io>
Status Tlb::Fields(Self& s, Io& io) {
  io.U32(s.count_4k_);
  io.U32(s.count_large_);
  io.U64(s.clock_);
  io.State(s.hits_, s.misses_, s.flushes_);
  std::vector<std::pair<Key, Slot>> entries;
  if constexpr (!Io::kLoading) {
    entries.reserve(s.map_.size());
    // nova-lint: allow(determinism) -- collected then sorted before encoding
    for (const auto& kv : s.map_) {
      entries.push_back(kv);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                return std::tie(a.first.tag, a.first.vpage, a.first.large) <
                       std::tie(b.first.tag, b.first.vpage, b.first.large);
              });
  }
  io.Seq32(entries, [&io](auto& kv) {
    io.U16(kv.first.tag);
    io.U64(kv.first.vpage);
    io.Bool(kv.first.large);
    auto& e = kv.second.entry;
    io.U64(e.phys_page);
    io.U64(e.page_size);
    io.Bool(e.writable);
    io.Bool(e.user);
    io.Bool(e.dirty);
    io.Bool(e.global);
    io.U64(kv.second.lru);
  });
  if constexpr (Io::kLoading) {
    s.map_.clear();
    s.map_.insert(entries.begin(), entries.end());
  }
  return io.status();
}

Status Tlb::SaveState(sim::SnapWriter& w) const { return Fields(*this, w); }
Status Tlb::LoadState(sim::SnapReader& r) { return Fields(*this, r); }

std::size_t Tlb::EntryCount(TlbTag tag) const {
  std::size_t n = 0;
  // nova-lint: allow(determinism) -- pure count, order-independent
  for (const auto& [key, slot] : map_) {
    if (key.tag == tag) {
      ++n;
    }
  }
  return n;
}

}  // namespace nova::hw
