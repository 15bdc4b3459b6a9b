#include "src/hw/tlb.h"

#include <algorithm>
#include <bit>
#include <tuple>

namespace nova::hw {

namespace {

constexpr std::uint64_t k2M = std::uint64_t{2} << 20;
constexpr std::uint64_t k4M = std::uint64_t{4} << 20;

}  // namespace

Tlb::SizeClass::SizeClass(std::uint32_t cap)
    : capacity(std::max<std::uint32_t>(cap, 1)),
      slots(capacity),
      index(std::bit_ceil(std::uint64_t{capacity} * 2), kNil),
      mask(static_cast<std::uint32_t>(index.size() - 1)),
      shift(64 - std::countr_zero(index.size())) {
  Clear();
}

inline std::uint32_t Tlb::SizeClass::Home(TlbTag tag,
                                          std::uint64_t vpage) const {
  // Fibonacci hashing: the multiply spreads consecutive pages (and the
  // tag, folded in above any real page number) into the top bits, which
  // select the bucket.
  const std::uint64_t h =
      (vpage ^ (static_cast<std::uint64_t>(tag) << 48)) * 0x9e3779b97f4a7c15ull;
  return static_cast<std::uint32_t>(h >> shift);
}

inline std::uint32_t Tlb::SizeClass::Find(TlbTag tag,
                                          std::uint64_t vpage) const {
  for (std::uint32_t i = Home(tag, vpage);; i = (i + 1) & mask) {
    const std::uint32_t id = index[i];
    if (id == kNil) {
      return kNil;
    }
    if (slots[id].vpage == vpage && slots[id].tag == tag) {
      return id;
    }
  }
}

std::uint32_t Tlb::SizeClass::Add(TlbTag tag, std::uint64_t vpage) {
  const std::uint32_t id = free;
  free = slots[id].newer;
  slots[id].tag = tag;
  slots[id].vpage = vpage;
  std::uint32_t i = Home(tag, vpage);
  while (index[i] != kNil) {
    i = (i + 1) & mask;
  }
  index[i] = id;
  ++count;
  return id;
}

void Tlb::SizeClass::Remove(std::uint32_t id) {
  const Slot& s = slots[id];
  std::uint32_t hole = Home(s.tag, s.vpage);
  while (index[hole] != id) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull each later member of the probe run
  // whose home does not lie in (hole, j] into the hole, so lookups never
  // need tombstones.
  for (std::uint32_t j = (hole + 1) & mask; index[j] != kNil;
       j = (j + 1) & mask) {
    const Slot& m = slots[index[j]];
    const std::uint32_t home = Home(m.tag, m.vpage);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index[hole] = index[j];
      hole = j;
    }
  }
  index[hole] = kNil;
  Unlink(id);
  slots[id].newer = free;
  free = id;
  --count;
}

[[gnu::always_inline]] inline void Tlb::SizeClass::Touch(
    std::uint32_t id, std::uint64_t stamp) {
  slots[id].lru = stamp;
  if (id != newest) {
    Unlink(id);
    Link(id);
  }
}

inline void Tlb::SizeClass::Link(std::uint32_t id) {
  slots[id].older = newest;
  slots[id].newer = kNil;
  if (newest != kNil) {
    slots[newest].newer = id;
  } else {
    oldest = id;
  }
  newest = id;
}

inline void Tlb::SizeClass::Unlink(std::uint32_t id) {
  Slot& s = slots[id];
  (s.older != kNil ? slots[s.older].newer : oldest) = s.newer;
  (s.newer != kNil ? slots[s.newer].older : newest) = s.older;
}

void Tlb::SizeClass::Clear() {
  std::fill(index.begin(), index.end(), kNil);
  for (std::uint32_t id = 0; id < slots.size(); ++id) {
    slots[id].newer = id + 1 < slots.size() ? id + 1 : kNil;
  }
  free = 0;
  oldest = kNil;
  newest = kNil;
  count = 0;
}

template <class Pred>
void Tlb::SizeClass::RemoveIf(Pred pred) {
  for (std::uint32_t id = oldest; id != kNil;) {
    const std::uint32_t next = slots[id].newer;
    if (pred(slots[id])) {
      Remove(id);
    }
    id = next;
  }
}

// Forced inline, with Touch: Lookup runs once per simulated memory access,
// and GCC would otherwise keep both as calls from Lookup's three probes.
[[gnu::always_inline]] inline std::optional<PhysAddr> Tlb::Probe(
    SizeClass& c, TlbTag tag, VirtAddr va, std::uint64_t page_size,
    Access access) {
  const std::uint32_t id = c.Find(tag, (va & ~(page_size - 1)) >> kPageShift);
  if (id == kNil) {
    return std::nullopt;
  }
  const TlbEntry& e = c.slots[id].entry;
  if (e.page_size != page_size) {
    return std::nullopt;  // A 2 MiB and a 4 MiB mapping share a base key.
  }
  if (access.write && !e.writable) {
    return std::nullopt;  // Permission-insufficient entry: treat as miss.
  }
  if (access.user && !e.user) {
    return std::nullopt;
  }
  if (access.write && !e.dirty) {
    return std::nullopt;  // Clean entry: the walk must run again to set D.
  }
  c.Touch(id, ++clock_);
  return (e.phys_page & ~(page_size - 1)) | (va & (page_size - 1));
}

std::optional<PhysAddr> Tlb::Lookup(TlbTag tag, VirtAddr va, Access access) {
  // Probe every size in turn: we do not know the mapping size in advance.
  std::optional<PhysAddr> pa = Probe(small_, tag, va, kPageSize, access);
  if (!pa) {
    pa = Probe(large_, tag, va, k2M, access);
    if (!pa) {
      pa = Probe(large_, tag, va, k4M, access);
    }
  }
  (pa ? hits_ : misses_).Add();
  return pa;
}

void Tlb::Insert(TlbTag tag, VirtAddr va, PhysAddr pa, std::uint64_t page_size,
                 bool writable, bool user, bool dirty, bool global) {
  SizeClass& c = page_size > kPageSize ? large_ : small_;
  const std::uint64_t vpage = (va & ~(page_size - 1)) >> kPageShift;
  std::uint32_t id = c.Find(tag, vpage);
  if (id == kNil) {
    if (c.count == c.capacity) {
      c.Remove(c.oldest);  // Least recently used of the same class.
    }
    id = c.Add(tag, vpage);
    c.Link(id);
  }
  c.slots[id].entry = TlbEntry{
      .phys_page = pa & ~(page_size - 1),
      .page_size = page_size,
      .writable = writable,
      .user = user,
      .dirty = dirty,
      .global = global,
  };
  c.Touch(id, ++clock_);
}

void Tlb::FlushAll() {
  small_.Clear();
  large_.Clear();
  flushes_.Add();
}

void Tlb::FlushTag(TlbTag tag) {
  const auto of_tag = [tag](const Slot& s) { return s.tag == tag; };
  small_.RemoveIf(of_tag);
  large_.RemoveIf(of_tag);
  flushes_.Add();
}

void Tlb::FlushNonGlobal(TlbTag tag) {
  const auto non_global = [tag](const Slot& s) {
    return s.tag == tag && !s.entry.global;
  };
  small_.RemoveIf(non_global);
  large_.RemoveIf(non_global);
  flushes_.Add();
}

void Tlb::FlushVa(TlbTag tag, VirtAddr va) {
  const std::uint64_t sizes[] = {kPageSize, k2M, k4M};
  for (const std::uint64_t size : sizes) {
    SizeClass& c = size > kPageSize ? large_ : small_;
    const std::uint32_t id = c.Find(tag, (va & ~(size - 1)) >> kPageShift);
    if (id != kNil && c.slots[id].entry.page_size == size) {
      c.Remove(id);
    }
  }
}

std::size_t Tlb::EntryCount(TlbTag tag) const {
  std::size_t n = 0;
  for (const SizeClass* c : {&small_, &large_}) {
    for (std::uint32_t id = c->oldest; id != kNil; id = c->slots[id].newer) {
      n += c->slots[id].tag == tag ? 1 : 0;
    }
  }
  return n;
}

std::vector<Tlb::Record> Tlb::Records() const {
  std::vector<Record> out;
  out.reserve(size());
  for (const SizeClass* c : {&small_, &large_}) {
    for (std::uint32_t id = c->oldest; id != kNil; id = c->slots[id].newer) {
      const Slot& s = c->slots[id];
      out.push_back(Record{s.tag, s.vpage, c == &large_, s.entry, s.lru});
    }
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    return std::tie(a.tag, a.vpage, a.large) < std::tie(b.tag, b.vpage, b.large);
  });
  return out;
}

bool Tlb::Rebuild(std::vector<Record> records, std::uint32_t count_4k,
                  std::uint32_t count_large) {
  small_.Clear();
  large_.Clear();
  // Installing in stamp order rebuilds each LRU list oldest first.
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.lru < b.lru; });
  bool ok = true;
  std::uint64_t last_lru = 0;
  for (const Record& rec : records) {
    const std::uint64_t size = rec.entry.page_size;
    SizeClass& c = rec.large ? large_ : small_;
    ok = (rec.large ? (size == k2M || size == k4M) : size == kPageSize) &&
         rec.lru > last_lru && rec.lru <= clock_ && c.count < c.capacity &&
         c.Find(rec.tag, rec.vpage) == kNil;
    if (!ok) {
      break;
    }
    last_lru = rec.lru;
    const std::uint32_t id = c.Add(rec.tag, rec.vpage);
    c.slots[id].entry = rec.entry;
    c.slots[id].lru = rec.lru;
    c.Link(id);
  }
  ok = ok && small_.count == count_4k && large_.count == count_large;
  if (!ok) {
    small_.Clear();
    large_.Clear();
  }
  return ok;
}

template <class Self, class Io>
Status Tlb::Fields(Self& s, Io& io) {
  std::uint32_t count_4k = s.small_.count;
  std::uint32_t count_large = s.large_.count;
  io.U32(count_4k);
  io.U32(count_large);
  io.U64(s.clock_);
  io.State(s.hits_, s.misses_, s.flushes_);
  std::vector<Record> records;
  if constexpr (!Io::kLoading) {
    records = s.Records();
  }
  io.Seq32(records, [&io](auto& rec) {
    io.U16(rec.tag);
    io.U64(rec.vpage);
    io.Bool(rec.large);
    auto& e = rec.entry;
    io.U64(e.phys_page);
    io.U64(e.page_size);
    io.Bool(e.writable);
    io.Bool(e.user);
    io.Bool(e.dirty);
    io.Bool(e.global);
    io.U64(rec.lru);
  });
  if constexpr (Io::kLoading) {
    io.Require(s.Rebuild(std::move(records), count_4k, count_large));
  }
  return io.status();
}

Status Tlb::SaveState(sim::SnapWriter& w) const { return Fields(*this, w); }
Status Tlb::LoadState(sim::SnapReader& r) { return Fields(*this, r); }

}  // namespace nova::hw
