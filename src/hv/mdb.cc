#include "src/hv/mdb.h"

#include <algorithm>
#include <unordered_map>

namespace nova::hv {

MdbNode* Mdb::CreateRoot(Pd* pd, CrdKind kind, std::uint64_t base,
                         std::uint64_t count, std::uint8_t perms) {
  auto node = std::make_unique<MdbNode>();
  node->pd = pd;
  node->kind = kind;
  node->base = base;
  node->count = count;
  node->perms = perms;
  MdbNode* raw = node.get();
  nodes_.push_back(std::move(node));
  return raw;
}

MdbNode* Mdb::Delegate(MdbNode* parent, Pd* pd, std::uint64_t base,
                       std::uint64_t count, std::uint8_t perms,
                       std::uint64_t src_base) {
  MdbNode* node = CreateRoot(pd, parent->kind, base, count, perms);
  node->src_base = src_base;
  node->parent = parent;
  parent->children.push_back(node);
  return node;
}

MdbNode* Mdb::Find(const Pd* pd, CrdKind kind, std::uint64_t base,
                   std::uint64_t count) {
  for (const auto& node : nodes_) {
    if (node->pd == pd && node->kind == kind && node->ContainsRange(base, count)) {
      return node.get();
    }
  }
  return nullptr;
}

void Mdb::RevokeSubtree(MdbNode* node, const UnmapFn& unmap) {
  // Depth-first: remove leaves before their parents.
  while (!node->children.empty()) {
    MdbNode* child = node->children.back();
    RevokeSubtree(child, unmap);
  }
  if (unmap) {
    unmap(*node);
  }
  Erase(node);
}

void Mdb::Erase(MdbNode* node) {
  if (node->parent != nullptr) {
    auto& siblings = node->parent->children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), node),
                   siblings.end());
  }
  for (MdbNode* child : node->children) {
    child->parent = nullptr;  // Orphaned (only during DropDomain bulk paths).
  }
  auto it = std::find_if(nodes_.begin(), nodes_.end(),
                         [node](const auto& p) { return p.get() == node; });
  if (it != nodes_.end()) {
    nodes_.erase(it);
  }
}

void Mdb::Revoke(const Pd* pd, const Crd& crd, bool include_self,
                 const UnmapFn& unmap) {
  // Collect first: revocation mutates the node list.
  std::vector<MdbNode*> hits;
  for (const auto& node : nodes_) {
    if (node->pd == pd && node->kind == crd.kind &&
        node->Overlaps(crd.base, crd.count())) {
      hits.push_back(node.get());
    }
  }
  for (MdbNode* node : hits) {
    // The node may already be gone if it was a descendant of an earlier hit.
    const bool alive = std::any_of(nodes_.begin(), nodes_.end(),
                                   [node](const auto& p) { return p.get() == node; });
    if (!alive) {
      continue;
    }
    if (include_self) {
      RevokeSubtree(node, unmap);
    } else {
      // Only children whose *source range* overlaps the revoked CRD fall;
      // siblings derived from other parts of this holding are untouched.
      for (;;) {
        MdbNode* victim = nullptr;
        for (MdbNode* child : node->children) {
          if (child->SrcOverlaps(crd.base, crd.count())) {
            victim = child;
            break;
          }
        }
        if (victim == nullptr) {
          break;
        }
        RevokeSubtree(victim, unmap);
      }
    }
  }
}

// Nodes travel as records addressing their domain by oid (`map`
// translates: Pd to oid on save, oid to Pd on load) and their parent and
// children by index in nodes_.
template <class Self, class Io, class Map>
Status Mdb::Fields(Self& s, Io& io, const Map& map) {
  struct Rec {
    std::uint64_t pd = 0;
    MdbNode node;  // Range fields only; links travel as indices.
    std::uint64_t parent = kNoIndex;
    std::vector<std::uint64_t> children;
  };
  std::vector<Rec> recs;
  if constexpr (!Io::kLoading) {
    // The pointer-keyed index is lookup-only — it is never iterated, so
    // bucket order cannot reach the encoding.
    // nova-lint: allow(determinism) -- lookup-only table, never iterated
    std::unordered_map<const MdbNode*, std::uint64_t> index;
    index.reserve(s.nodes_.size());
    for (std::size_t i = 0; i < s.nodes_.size(); ++i) {
      index[s.nodes_[i].get()] = i;
    }
    for (const auto& node : s.nodes_) {
      Rec rec{map(node->pd), *node,
              node->parent != nullptr ? index.at(node->parent) : kNoIndex,
              {}};
      for (const MdbNode* child : node->children) {
        rec.children.push_back(index.at(child));
      }
      io.Require(rec.pd != kNoIndex);  // Node owned by an unregistered domain.
      recs.push_back(std::move(rec));
    }
  }
  io.Seq64(recs, [&io](auto& rec) {
    io.U64(rec.pd);
    io.Enum(rec.node.kind, CrdKind::kObj);
    io.U64(rec.node.base);
    io.U64(rec.node.count);
    io.U8(rec.node.perms);
    io.U64(rec.node.src_base);
    io.U64(rec.parent);
    io.Seq32(rec.children, [&io](auto& c) { io.U64(c); });
  });
  if constexpr (Io::kLoading) {
    const std::uint64_t n = recs.size();
    for (const Rec& rec : recs) {
      io.Require(map(rec.pd) != nullptr &&
                 (rec.parent == kNoIndex || rec.parent < n) &&
                 std::all_of(rec.children.begin(), rec.children.end(),
                             [n](std::uint64_t c) { return c < n; }));
    }
    if (!io.ok()) return io.status();
    s.nodes_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      s.nodes_.push_back(std::make_unique<MdbNode>());
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      const Rec& rec = recs[i];
      MdbNode& node = *s.nodes_[i];
      node = rec.node;
      node.pd = map(rec.pd);
      if (rec.parent != kNoIndex) node.parent = s.nodes_[rec.parent].get();
      for (const std::uint64_t c : rec.children) {
        node.children.push_back(s.nodes_[c].get());
      }
    }
  }
  return io.status();
}

Status Mdb::SaveState(sim::SnapWriter& w, const PdOidOf& oid_of) const {
  return Fields(*this, w, oid_of);
}
Status Mdb::LoadState(sim::SnapReader& r, const PdByOid& pd_of) {
  return Fields(*this, r, pd_of);
}

void Mdb::DropDomain(const Pd* pd, const UnmapFn& unmap) {
  for (;;) {
    MdbNode* victim = nullptr;
    for (const auto& node : nodes_) {
      if (node->pd == pd) {
        victim = node.get();
        break;
      }
    }
    if (victim == nullptr) {
      return;
    }
    RevokeSubtree(victim, unmap);
  }
}

}  // namespace nova::hv
