// Mapping database: the delegation tree behind recursive revocation.
//
// Every resource grant (memory range, port range, object capability range)
// creates a node whose parent is the grant it was derived from. Revoking a
// node removes the entire subtree from all affected protection domains —
// the recursive address-space model the paper inherits from L4 (§6).
#ifndef SRC_HV_MDB_H_
#define SRC_HV_MDB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/hv/types.h"
#include "src/sim/snapshot.h"
#include "src/sim/status.h"

namespace nova::hv {

class Pd;

struct MdbNode {
  Pd* pd = nullptr;
  CrdKind kind = CrdKind::kNull;
  std::uint64_t base = 0;   // Page / port / selector index in `pd`'s space.
  std::uint64_t count = 0;
  std::uint8_t perms = 0;
  // Index of this grant in the *parent's* space (delegation may relocate:
  // a host frame appears at a guest-physical hotspot). Used to decide
  // which children a partial revocation of the parent's range hits.
  std::uint64_t src_base = 0;
  MdbNode* parent = nullptr;
  std::vector<MdbNode*> children;

  bool Overlaps(std::uint64_t b, std::uint64_t c) const {
    return base < b + c && b < base + count;
  }
  bool SrcOverlaps(std::uint64_t b, std::uint64_t c) const {
    return src_base < b + c && b < src_base + count;
  }
  bool ContainsRange(std::uint64_t b, std::uint64_t c) const {
    return b >= base && b + c <= base + count;
  }
};

class Mdb {
 public:
  // Called for each revoked node so the kernel can unmap the resource from
  // the owning domain's space.
  using UnmapFn = std::function<void(const MdbNode&)>;

  // Record an initial (rootless) resource grant, e.g. boot-time assignment
  // of all memory to the root partition manager.
  MdbNode* CreateRoot(Pd* pd, CrdKind kind, std::uint64_t base,
                      std::uint64_t count, std::uint8_t perms);

  // Record a delegation derived from `parent`. `src_base` is where the
  // granted range sits in the parent's space.
  MdbNode* Delegate(MdbNode* parent, Pd* pd, std::uint64_t base,
                    std::uint64_t count, std::uint8_t perms,
                    std::uint64_t src_base);

  // Find a node owned by `pd` whose range contains [base, base+count).
  MdbNode* Find(const Pd* pd, CrdKind kind, std::uint64_t base,
                std::uint64_t count);

  // Revoke all nodes owned by `pd` overlapping the CRD. Children are
  // always revoked; the nodes themselves only when `include_self`.
  // `unmap` runs for every removed node.
  void Revoke(const Pd* pd, const Crd& crd, bool include_self,
              const UnmapFn& unmap);

  // Drop every node owned by `pd` (domain destruction), revoking all
  // derived delegations in other domains.
  void DropDomain(const Pd* pd, const UnmapFn& unmap);

  std::size_t node_count() const { return nodes_.size(); }

  // Serialization addresses owning domains by oid and nodes by their index
  // in `nodes_` (scan order is part of Find's semantics, so the list order
  // is restored exactly). LoadState rebuilds the whole database; nothing
  // outside Mdb holds MdbNode pointers across calls.
  using PdOidOf = std::function<std::uint64_t(const Pd*)>;
  using PdByOid = std::function<Pd*(std::uint64_t)>;
  Status SaveState(sim::SnapWriter& w, const PdOidOf& oid_of) const;
  Status LoadState(sim::SnapReader& r, const PdByOid& pd_of);

 private:
  void RevokeSubtree(MdbNode* node, const UnmapFn& unmap);
  void Erase(MdbNode* node);
  static constexpr std::uint64_t kNoIndex = ~0ull;
  template <class Self, class Io, class Map>
  static Status Fields(Self& s, Io& io, const Map& map);

  // snapshot-x-list(Mdb): nodes_
  std::vector<std::unique_ptr<MdbNode>> nodes_;
};

}  // namespace nova::hv

#endif  // SRC_HV_MDB_H_
