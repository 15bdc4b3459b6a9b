#include "src/hw/tlb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "src/sim/rng.h"

namespace nova::hw {
namespace {

constexpr std::uint64_t k2M = 2ull << 20;
constexpr std::uint64_t k4M = 4ull << 20;

TEST(Tlb, MissThenHit) {
  Tlb tlb(16, 4);
  EXPECT_FALSE(tlb.Lookup(kHostTag, 0x1000, Access{}).has_value());
  (void)tlb.Insert(kHostTag, 0x1000, 0x5000, kPageSize, true, true, true);
  const auto hit = tlb.Lookup(kHostTag, 0x1234, Access{});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0x5234u);
  EXPECT_EQ(tlb.hits().value(), 1u);
  EXPECT_EQ(tlb.misses().value(), 1u);
}

TEST(Tlb, TagsIsolate) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(1, 0x1000, 0x5000, kPageSize, true, true, true);
  EXPECT_FALSE(tlb.Lookup(2, 0x1000, Access{}).has_value());
  EXPECT_TRUE(tlb.Lookup(1, 0x1000, Access{}).has_value());
}

TEST(Tlb, WriteToCleanEntryMisses) {
  Tlb tlb(16, 4);
  // Installed by a read walk: not dirty.
  (void)tlb.Insert(kHostTag, 0x1000, 0x5000, kPageSize, true, true, /*dirty=*/false);
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x1000, Access{.write = false}).has_value());
  EXPECT_FALSE(tlb.Lookup(kHostTag, 0x1000, Access{.write = true}).has_value());
  // Re-walked with dirty set: write hits now.
  (void)tlb.Insert(kHostTag, 0x1000, 0x5000, kPageSize, true, true, /*dirty=*/true);
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x1000, Access{.write = true}).has_value());
}

TEST(Tlb, ReadOnlyEntryRejectsWrites) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(kHostTag, 0x1000, 0x5000, kPageSize, /*writable=*/false, true, true);
  EXPECT_FALSE(tlb.Lookup(kHostTag, 0x1000, Access{.write = true}).has_value());
}

TEST(Tlb, SupervisorEntryRejectsUser) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(kHostTag, 0x1000, 0x5000, kPageSize, true, /*user=*/false, true);
  EXPECT_FALSE(tlb.Lookup(kHostTag, 0x1000, Access{.user = true}).has_value());
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x1000, Access{.user = false}).has_value());
}

TEST(Tlb, LargePageCoversRange) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(kHostTag, k2M, k2M * 3, k2M, true, true, true);
  const auto hit = tlb.Lookup(kHostTag, k2M + 0x12345, Access{});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, k2M * 3 + 0x12345);
}

TEST(Tlb, CapacityEvictsLru) {
  Tlb tlb(2, 2);
  (void)tlb.Insert(kHostTag, 0x1000, 0xa000, kPageSize, true, true, true);
  (void)tlb.Insert(kHostTag, 0x2000, 0xb000, kPageSize, true, true, true);
  // Touch the first entry so the second becomes LRU.
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x1000, Access{}).has_value());
  (void)tlb.Insert(kHostTag, 0x3000, 0xc000, kPageSize, true, true, true);
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x1000, Access{}).has_value());
  EXPECT_FALSE(tlb.Lookup(kHostTag, 0x2000, Access{}).has_value());  // Evicted.
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x3000, Access{}).has_value());
}

TEST(Tlb, SizeClassesIndependent) {
  Tlb tlb(1, 1);
  (void)tlb.Insert(kHostTag, 0x1000, 0xa000, kPageSize, true, true, true);
  (void)tlb.Insert(kHostTag, 0, k2M * 5, k2M, true, true, true);
  // Both survive: they occupy different arrays.
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x1000, Access{}).has_value());
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x100, Access{}).has_value());
}

TEST(Tlb, FlushTagOnlyAffectsTag) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(1, 0x1000, 0xa000, kPageSize, true, true, true);
  (void)tlb.Insert(2, 0x1000, 0xb000, kPageSize, true, true, true);
  tlb.FlushTag(1);
  EXPECT_FALSE(tlb.Lookup(1, 0x1000, Access{}).has_value());
  EXPECT_TRUE(tlb.Lookup(2, 0x1000, Access{}).has_value());
}

TEST(Tlb, FlushNonGlobalKeepsGlobalEntries) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(1, 0x1000, 0xa000, kPageSize, true, true, true, /*global=*/true);
  (void)tlb.Insert(1, 0x2000, 0xb000, kPageSize, true, true, true, /*global=*/false);
  tlb.FlushNonGlobal(1);
  EXPECT_TRUE(tlb.Lookup(1, 0x1000, Access{}).has_value());
  EXPECT_FALSE(tlb.Lookup(1, 0x2000, Access{}).has_value());
}

TEST(Tlb, FlushVaRemovesSingleTranslation) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(1, 0x1000, 0xa000, kPageSize, true, true, true);
  (void)tlb.Insert(1, 0x2000, 0xb000, kPageSize, true, true, true);
  tlb.FlushVa(1, 0x1000);
  EXPECT_FALSE(tlb.Lookup(1, 0x1000, Access{}).has_value());
  EXPECT_TRUE(tlb.Lookup(1, 0x2000, Access{}).has_value());
}

TEST(Tlb, FlushAllEmpties) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(1, 0x1000, 0xa000, kPageSize, true, true, true);
  (void)tlb.Insert(2, 0, k2M, k2M, true, true, true);
  tlb.FlushAll();
  EXPECT_EQ(tlb.size(), 0u);
  EXPECT_EQ(tlb.flushes().value(), 1u);
}

TEST(Tlb, EntryCountPerTag) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(1, 0x1000, 0xa000, kPageSize, true, true, true);
  (void)tlb.Insert(1, 0x2000, 0xb000, kPageSize, true, true, true);
  (void)tlb.Insert(2, 0x3000, 0xc000, kPageSize, true, true, true);
  EXPECT_EQ(tlb.EntryCount(1), 2u);
  EXPECT_EQ(tlb.EntryCount(2), 1u);
}

// The reference semantics hw::Tlb must keep: a flat list with a
// linear-scan, strict-min-LRU victim per size class, encoded the same way.
class RefTlb {
 public:
  RefTlb(std::uint32_t cap_4k, std::uint32_t cap_large)
      : cap_{cap_4k, cap_large} {}

  std::optional<PhysAddr> Lookup(TlbTag tag, VirtAddr va, Access a) {
    for (const std::uint64_t size : {kPageSize, k2M, k4M}) {
      E* e = Find(tag, va, size);
      if (e == nullptr || e->page_size != size || (a.write && !e->writable) ||
          (a.user && !e->user) || (a.write && !e->dirty)) {
        continue;
      }
      e->lru = ++clock_;
      ++hits;
      return (e->phys & ~(size - 1)) | (va & (size - 1));
    }
    ++misses;
    return std::nullopt;
  }

  void Insert(TlbTag tag, VirtAddr va, PhysAddr pa, std::uint64_t size,
              bool w, bool u, bool d, bool g) {
    E* e = Find(tag, va, size);
    if (e == nullptr) {
      const bool large = size > kPageSize;
      if (Count(large) >= cap_[large]) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
          if (it->large == large &&
              (victim == entries_.end() || it->lru < victim->lru)) {
            victim = it;
          }
        }
        if (victim != entries_.end()) {
          entries_.erase(victim);
        }
      }
      entries_.push_back(E{tag, (va & ~(size - 1)) >> kPageShift, large});
      e = &entries_.back();
    }
    e->phys = pa & ~(size - 1);
    e->page_size = size;
    e->writable = w;
    e->user = u;
    e->dirty = d;
    e->global = g;
    e->lru = ++clock_;
  }

  void FlushAll() {
    entries_.clear();
    ++flushes;
  }
  void FlushTag(TlbTag t) {
    std::erase_if(entries_, [t](const E& e) { return e.tag == t; });
    ++flushes;
  }
  void FlushNonGlobal(TlbTag t) {
    std::erase_if(entries_, [t](const E& e) { return e.tag == t && !e.global; });
    ++flushes;
  }
  void FlushVa(TlbTag tag, VirtAddr va) {
    for (const std::uint64_t size : {kPageSize, k2M, k4M}) {
      E* e = Find(tag, va, size);
      if (e != nullptr && e->page_size == size) {
        entries_.erase(entries_.begin() + (e - entries_.data()));
      }
    }
  }

  std::size_t EntryCount(TlbTag t) const {
    return std::count_if(entries_.begin(), entries_.end(),
                         [t](const E& e) { return e.tag == t; });
  }

  std::vector<std::uint8_t> Save() const {
    std::vector<E> sorted = entries_;
    std::sort(sorted.begin(), sorted.end(), [](const E& a, const E& b) {
      return std::tie(a.tag, a.vpage, a.large) < std::tie(b.tag, b.vpage, b.large);
    });
    sim::SnapWriter w;
    w.U32(static_cast<std::uint32_t>(Count(false)));
    w.U32(static_cast<std::uint32_t>(Count(true)));
    w.U64(clock_);
    w.U64(hits);
    w.U64(misses);
    w.U64(flushes);
    w.U32(static_cast<std::uint32_t>(sorted.size()));
    for (const E& e : sorted) {
      w.U16(e.tag);
      w.U64(e.vpage);
      w.Bool(e.large);
      w.U64(e.phys);
      w.U64(e.page_size);
      w.Bool(e.writable);
      w.Bool(e.user);
      w.Bool(e.dirty);
      w.Bool(e.global);
      w.U64(e.lru);
    }
    return w.data();
  }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t flushes = 0;

 private:
  struct E {
    TlbTag tag;
    std::uint64_t vpage;
    bool large;
    PhysAddr phys = 0;
    std::uint64_t page_size = 0;
    bool writable = false;
    bool user = false;
    bool dirty = false;
    bool global = false;
    std::uint64_t lru = 0;
  };

  E* Find(TlbTag tag, VirtAddr va, std::uint64_t size) {
    const std::uint64_t vpage = (va & ~(size - 1)) >> kPageShift;
    for (E& e : entries_) {
      if (e.tag == tag && e.vpage == vpage && e.large == (size > kPageSize)) {
        return &e;
      }
    }
    return nullptr;
  }
  std::size_t Count(bool large) const {
    return std::count_if(entries_.begin(), entries_.end(),
                         [large](const E& e) { return e.large == large; });
  }

  std::uint32_t cap_[2];
  std::uint64_t clock_ = 0;
  std::vector<E> entries_;
};

std::vector<std::uint8_t> Saved(const Tlb& tlb) {
  sim::SnapWriter w;
  EXPECT_EQ(tlb.SaveState(w), Status::kSuccess);
  return w.data();
}

// Seeded random operation sequences against the reference, over small
// capacities, four tags, overlapping 4 KiB/2 MiB/4 MiB mappings, global
// entries and permission or dirty-bit misses. About one op in a hundred
// replaces the TLB by a twin restored from its own snapshot.
TEST(TlbDifferential, MatchesReferenceModel) {
  const std::pair<std::uint32_t, std::uint32_t> caps[] = {
      {1, 1}, {2, 1}, {4, 2}, {8, 3}, {0, 0}};
  // Pages on both sides of a 2 MiB and a 4 MiB boundary.
  const std::uint64_t pages[] = {0, 1, 2, 511, 512, 513, 1023, 1024, 1025, 1536};
  for (const auto& [cap_4k, cap_large] : caps) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(testing::Message() << "caps " << cap_4k << "/" << cap_large
                                      << " seed " << seed);
      sim::Rng rng(seed);
      Tlb tlb(cap_4k, cap_large);
      RefTlb ref(cap_4k, cap_large);
      for (int op = 0; op < 1500; ++op) {
        const TlbTag tag = static_cast<TlbTag>(rng.Below(4));
        const VirtAddr va = pages[rng.Below(std::size(pages))] * kPageSize +
                            rng.Below(kPageSize);
        const std::uint64_t kind = rng.Below(100);
        if (kind < 45) {
          const Access a{.write = rng.Below(3) == 0, .user = rng.Below(3) == 0};
          ASSERT_EQ(tlb.Lookup(tag, va, a), ref.Lookup(tag, va, a))
              << "op " << op;
        } else if (kind < 90) {
          const std::uint64_t r = rng.Below(10);
          const std::uint64_t size = r < 6 ? kPageSize : r < 8 ? k2M : k4M;
          const PhysAddr pa = rng.Below(1 << 20) * kPageSize;
          const bool w = rng.Below(4) != 0, u = rng.Below(4) != 0;
          const bool d = rng.Below(2) != 0, g = rng.Below(5) == 0;
          tlb.Insert(tag, va, pa, size, w, u, d, g);
          ref.Insert(tag, va, pa, size, w, u, d, g);
        } else if (kind < 93) {
          tlb.FlushVa(tag, va);
          ref.FlushVa(tag, va);
        } else if (kind < 96) {
          tlb.FlushNonGlobal(tag);
          ref.FlushNonGlobal(tag);
        } else if (kind < 98) {
          tlb.FlushTag(tag);
          ref.FlushTag(tag);
        } else if (kind < 99) {
          tlb.FlushAll();
          ref.FlushAll();
        } else {
          const std::vector<std::uint8_t> bytes = Saved(tlb);
          sim::SnapReader r(bytes.data(), bytes.size());
          tlb = Tlb(cap_4k, cap_large);
          ASSERT_EQ(tlb.LoadState(r), Status::kSuccess);
          ASSERT_EQ(r.Finish(), Status::kSuccess);
        }
        ASSERT_EQ(tlb.hits().value(), ref.hits) << "op " << op;
        ASSERT_EQ(tlb.misses().value(), ref.misses) << "op " << op;
        ASSERT_EQ(tlb.flushes().value(), ref.flushes) << "op " << op;
        for (TlbTag t = 0; t < 4; ++t) {
          ASSERT_EQ(tlb.EntryCount(t), ref.EntryCount(t)) << "op " << op;
        }
        ASSERT_EQ(Saved(tlb), ref.Save()) << "op " << op;
      }
    }
  }
}

}  // namespace
}  // namespace nova::hw
