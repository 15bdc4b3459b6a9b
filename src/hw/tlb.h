// Simulated translation lookaside buffer.
//
// Fully associative, LRU replacement, with separate capacity classes for
// 4 KiB and superpage translations (matching the split structure of the
// parts in Table 1). Entries carry a 16-bit tag: 0 is the host address
// space; guests get VPID/ASID tags when the CPU model supports them.
//
// The dirty bit is modelled faithfully: a write that hits an entry whose
// translation was installed without the dirty flag reports a miss, forcing
// a re-walk — this is what lets the vTLB algorithm intercept the first
// write to a clean page.
#ifndef SRC_HW_TLB_H_
#define SRC_HW_TLB_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/hw/paging.h"
#include "src/hw/phys_mem.h"
#include "src/sim/stats.h"

namespace nova::hw {

using TlbTag = std::uint16_t;
constexpr TlbTag kHostTag = 0;

// Hands out unique TLB tags (VPID/ASID values). Tag 0 is reserved for the
// host address space. VMs receive one identity tag at creation; the vTLB's
// shadow-context cache additionally allocates one tag per cached guest
// address space so a guest CR3 switch can become a tag switch instead of a
// flush (PCID-style reuse). Released tags are recycled.
class TlbTagAllocator {
 public:
  explicit TlbTagAllocator(TlbTag first = 1) : next_(first) {}

  TlbTag Allocate() {
    if (!free_.empty()) {
      const TlbTag tag = free_.back();
      free_.pop_back();
      return tag;
    }
    return next_++;
  }

  void Release(TlbTag tag) {
    if (tag != kHostTag) {
      free_.push_back(tag);
    }
  }

  Status SaveState(sim::SnapWriter& w) const { return Fields(*this, w); }
  Status LoadState(sim::SnapReader& r) { return Fields(*this, r); }

 private:
  template <class Self, class Io>
  static Status Fields(Self& s, Io& io) {
    io.U16(s.next_);
    io.Seq32(s.free_, [&io](auto& t) { io.U16(t); });
    return io.status();
  }

  // snapshot-x-list(TlbTagAllocator): next_, free_
  TlbTag next_;
  std::vector<TlbTag> free_;
};

struct TlbEntry {
  PhysAddr phys_page = 0;        // Physical base of the mapping.
  std::uint64_t page_size = 0;
  bool writable = false;
  bool user = false;
  bool dirty = false;            // Translation was installed for write.
  bool global = false;           // Survives non-tag full flushes.
};

class Tlb {
 public:
  Tlb(std::uint32_t capacity_4k, std::uint32_t capacity_large)
      : small_(capacity_4k), large_(capacity_large) {}

  // Look up `va` under `tag`. Returns the translated physical address on a
  // usable hit. Misses (including permission-insufficient and clean-entry
  // write cases) return nullopt.
  std::optional<PhysAddr> Lookup(TlbTag tag, VirtAddr va, Access access);

  // Install a translation as produced by a page-table walk.
  void Insert(TlbTag tag, VirtAddr va, PhysAddr pa, std::uint64_t page_size,
              bool writable, bool user, bool dirty, bool global = false);

  // Invalidations.
  void FlushAll();                      // Everything, all tags.
  void FlushTag(TlbTag tag);            // All entries of one tag.
  void FlushNonGlobal(TlbTag tag);      // Tag's entries except global ones
                                        // (x86 CR3-write semantics).
  void FlushVa(TlbTag tag, VirtAddr va);  // INVLPG.

  std::size_t EntryCount(TlbTag tag) const;
  std::size_t size() const { return small_.count + large_.count; }

  const sim::Counter& hits() const { return hits_; }
  const sim::Counter& misses() const { return misses_; }
  const sim::Counter& flushes() const { return flushes_; }

  // Serialize entries sorted by (tag, vpage, large) plus the LRU clock, so
  // post-restore replacement decisions are bit-identical. Load fails with
  // kBadParameter on a class over capacity, a duplicated key, a page size
  // that is not 4 KiB/2 MiB/4 MiB or disagrees with `large`, a stored
  // count that differs from the entries, or LRU stamps that repeat or run
  // ahead of the clock.
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  // One translation. Live slots sit on their class's LRU list, oldest
  // first; free slots chain through `newer`.
  struct Slot {
    TlbTag tag = 0;
    std::uint64_t vpage = 0;  // va >> 12; superpages insert their base page.
    TlbEntry entry;
    std::uint64_t lru = 0;    // ++clock_ at insert and at every hit.
    std::uint32_t older = kNil;
    std::uint32_t newer = kNil;
  };

  // One capacity class (4 KiB or superpage): a fixed slot array, an
  // open-addressed (linear probing, load <= 1/2) index from (tag, vpage)
  // to slot, and an intrusive LRU list. Stamps only grow and every stamp
  // moves its slot to the newest end, so the list is in stamp order and
  // its oldest slot is the strict-min-LRU victim.
  struct SizeClass {
    explicit SizeClass(std::uint32_t capacity);

    std::uint32_t Find(TlbTag tag, std::uint64_t vpage) const;  // Or kNil.
    std::uint32_t Add(TlbTag tag, std::uint64_t vpage);  // count < capacity.
    void Remove(std::uint32_t id);
    void Touch(std::uint32_t id, std::uint64_t stamp);  // Becomes newest.
    void Clear();
    template <class Pred>
    void RemoveIf(Pred pred);

    std::uint32_t Home(TlbTag tag, std::uint64_t vpage) const;
    void Link(std::uint32_t id);    // At the newest end.
    void Unlink(std::uint32_t id);

    // A zero-capacity class still holds the entry being installed.
    std::uint32_t capacity;
    std::uint32_t count = 0;
    std::vector<Slot> slots;            // max(capacity, 1) of them.
    std::vector<std::uint32_t> index;   // Slot ids; kNil marks empty.
    std::uint32_t mask = 0;             // index.size() - 1.
    int shift = 0;                      // 64 - log2(index.size()).
    std::uint32_t oldest = kNil;
    std::uint32_t newest = kNil;
    std::uint32_t free = 0;             // Head of the free chain.
  };

  // A usable hit of `va` in the `page_size` mapping of `c`: stamps the
  // entry and returns the translation, else nullopt.
  std::optional<PhysAddr> Probe(SizeClass& c, TlbTag tag, VirtAddr va,
                                std::uint64_t page_size, Access access);

  // One entry as the snapshot encodes it.
  struct Record {
    TlbTag tag = 0;
    std::uint64_t vpage = 0;
    bool large = false;
    TlbEntry entry;
    std::uint64_t lru = 0;
  };
  std::vector<Record> Records() const;  // Sorted by (tag, vpage, large).
  bool Rebuild(std::vector<Record> records, std::uint32_t count_4k,
               std::uint32_t count_large);
  template <class Self, class Io>
  static Status Fields(Self& s, Io& io);

  // snapshot-x-list(Tlb): small_, large_, clock_, hits_, misses_, flushes_
  SizeClass small_;
  SizeClass large_;
  std::uint64_t clock_ = 0;
  sim::Counter hits_;
  sim::Counter misses_;
  sim::Counter flushes_;
};

}  // namespace nova::hw

#endif  // SRC_HW_TLB_H_
