// determinism: flags nondeterminism sources that would
// silently break the repo's digest-exactness guarantees (golden traces,
// snapshot/restore twins, bit-identical SMP reruns). Inside the
// simulated-machine layers (src/sim, src/hw, src/hv, src/vmm, src/guest,
// src/root, src/services) it reports:
//   * iteration over std::unordered_map / std::unordered_set — the walk
//     order is hash-seed and libstdc++-version dependent;
//   * containers keyed on pointer values — address-based order changes
//     run to run under ASLR and allocator drift;
//   * wall-clock and OS randomness (std::chrono, time(), rand(),
//     std::random_device, std::mt19937) outside sim::Rng — simulated
//     time must be the only clock;
//   * address-of expressions and pointer-to-integer casts flowing into
//     trace/digest/snapshot sinks — pointer values in payloads make
//     digests unreproducible.
// Vetted sites (iterate-then-sort copies, lookup-only tables) are
// suppressed with a justified `// nova-lint: allow(determinism)`.
#include <map>
#include <set>
#include <string>
#include <utility>

#include "tools/nova_lint/rule.h"

namespace nova::lint {
namespace {

bool InSimulatedLayer(const std::string& path) {
  const std::string layer = ProjectModel::LayerOf(path);
  return layer == "sim" || layer == "hw" || layer == "hv" ||
         layer == "vmm" || layer == "guest" || layer == "root" ||
         layer == "services";
}

bool IsUnorderedContainer(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

bool IsOrderedKeyed(const std::string& s) {
  return s == "map" || s == "set" || s == "multimap" || s == "multiset";
}

bool IsRandomnessSource(const std::string& s) {
  return s == "rand" || s == "srand" || s == "random_device" ||
         s == "mt19937" || s == "mt19937_64" || s == "minstd_rand";
}

// Snapshot/digest/trace payload sinks: SnapWriter's fixed-width writers
// plus anything with Digest in the name.
bool IsPayloadSink(const std::string& s) {
  return s == "U64" || s == "U32" || s == "U16" || s == "U8" ||
         s == "Bytes" || s.find("Digest") != std::string::npos;
}

class DeterminismRule final : public Rule {
 public:
  const char* name() const override { return "determinism"; }
  const char* summary() const override {
    return "no unordered iteration, pointer keys, wall clocks or address "
           "leaks in the simulated-machine layers";
  }

  void Check(const FileCtx& ctx, const ProjectModel& model,
             Findings* out) const override {
    const SourceFile& file = ctx.file;
    const Tokens& toks = ctx.toks;
    if (!InSimulatedLayer(file.path())) return;
    if (file.path().find("src/sim/rng") != std::string::npos) {
      return;  // the one sanctioned randomness wrapper
    }
    const int n = static_cast<int>(toks.size());

    // Names declared with an unordered container type. Members resolve
    // by declaring class first — `entries_` may be an unordered_map in
    // one class and a vector in another — falling back to "unordered in
    // any class" only when the enclosing class is unknown. Locals
    // declared in this file are tracked separately below.
    std::map<std::pair<std::string, std::string>, bool> member_unordered;
    std::set<std::string> any_unordered;
    for (const MemberDecl& m : model.members) {
      const bool u = m.type.find("unordered_") != std::string::npos;
      bool& slot = member_unordered[{m.cls, m.name}];
      slot = slot || u;
      if (u) any_unordered.insert(m.name);
    }
    std::set<std::string> local_unordered;
    const auto is_unordered_at = [&](int tok_idx, const std::string& nm) {
      if (local_unordered.count(nm) != 0) return true;
      const int fn = InnermostFunction(ctx.scopes, tok_idx);
      const std::string& cls =
          fn >= 0 ? ctx.scopes.functions[static_cast<std::size_t>(fn)].qualifier
                  : std::string();
      const auto it = member_unordered.find({cls, nm});
      if (it != member_unordered.end()) return it->second;
      return any_unordered.count(nm) != 0;
    };
    for (int i = 0; i < n; ++i) {
      const Token& t = toks[static_cast<std::size_t>(i)];
      if (t.kind != TokKind::kIdent) continue;

      // Container declarations: pointer-keyed check, unordered tracking.
      if ((IsUnorderedContainer(t.text) || IsOrderedKeyed(t.text)) &&
          IsPunct(toks, i + 1, "<")) {
        // Only the std:: containers, not repo types named map/set.
        if (!IsPunct(toks, i - 1, "::") || !IsIdent(toks, i - 2, "std")) {
          continue;
        }
        const int close = MatchForward(toks, i + 1);
        if (close < 0) continue;
        const auto args = SplitTopLevelArgs(toks, i + 1);
        if (!args.empty()) {
          bool ptr_key = false;
          for (int k = args[0].first; k < args[0].second; ++k) {
            if (IsPunct(toks, k, "*")) ptr_key = true;
          }
          if (ptr_key) {
            out->push_back(
                {name(), file.path(), t.line,
                 "container keyed on pointer values: address order is not "
                 "reproducible across runs; key on a stable id instead"});
          }
        }
        if (IsUnorderedContainer(t.text)) {
          // `std::unordered_map<...> name` — record the declared name.
          int j = close + 1;
          while (IsPunct(toks, j, "*") || IsPunct(toks, j, "&") ||
                 IsIdent(toks, j, "const")) {
            ++j;
          }
          if (j < n && toks[static_cast<std::size_t>(j)].kind ==
                           TokKind::kIdent) {
            local_unordered.insert(toks[static_cast<std::size_t>(j)].text);
          }
        }
        continue;
      }

      // Range-for over an unordered container.
      if (t.text == "for" && IsPunct(toks, i + 1, "(")) {
        const int close = MatchForward(toks, i + 1);
        if (close < 0) continue;
        int colon = -1;
        int depth = 0;
        for (int k = i + 2; k < close; ++k) {
          if (IsPunct(toks, k, "(") || IsPunct(toks, k, "[") ||
              IsPunct(toks, k, "{")) {
            ++depth;
          }
          if (IsPunct(toks, k, ")") || IsPunct(toks, k, "]") ||
              IsPunct(toks, k, "}")) {
            --depth;
          }
          if (depth == 0 && IsPunct(toks, k, ":") &&
              !IsPunct(toks, k - 1, ":") && !IsPunct(toks, k + 1, ":")) {
            colon = k;
            break;
          }
        }
        if (colon < 0) continue;
        for (int k = colon + 1; k < close; ++k) {
          const Token& rt = toks[static_cast<std::size_t>(k)];
          if (rt.kind == TokKind::kIdent && is_unordered_at(k, rt.text)) {
            out->push_back(
                {name(), file.path(), rt.line,
                 "iteration over unordered container '" + rt.text +
                     "': walk order is hash-dependent and breaks digest "
                     "exactness; iterate a sorted copy"});
            break;
          }
        }
        continue;
      }

      // Explicit iterator walks: name.begin() / name.cbegin().
      if (is_unordered_at(i, t.text) &&
          (IsPunct(toks, i + 1, ".") || IsPunct(toks, i + 1, "->")) &&
          (IsIdent(toks, i + 2, "begin") || IsIdent(toks, i + 2, "cbegin")) &&
          IsPunct(toks, i + 3, "(")) {
        out->push_back({name(), file.path(), t.line,
                        "iterator walk over unordered container '" + t.text +
                            "': order is hash-dependent; iterate a sorted "
                            "copy"});
        continue;
      }

      // Wall-clock and OS randomness.
      if (t.text == "chrono" && IsPunct(toks, i - 1, "::") &&
          IsIdent(toks, i - 2, "std")) {
        out->push_back({name(), file.path(), t.line,
                        "std::chrono wall clock in simulated code: "
                        "sim::EventQueue::now() is the only clock"});
        continue;
      }
      if (IsRandomnessSource(t.text) &&
          (IsPunct(toks, i - 1, "::") || IsPunct(toks, i + 1, "("))) {
        out->push_back({name(), file.path(), t.line,
                        "host randomness source '" + t.text +
                            "' outside sim::Rng breaks reproducibility"});
        continue;
      }
      if (t.text == "time" && i > 0 && IsPunct(toks, i + 1, "(") &&
          !IsPunct(toks, i - 1, ".") && !IsPunct(toks, i - 1, "->") &&
          toks[static_cast<std::size_t>(i - 1)].kind != TokKind::kIdent) {
        out->push_back({name(), file.path(), t.line,
                        "time() wall clock in simulated code"});
        continue;
      }

      // Pointer values flowing into digest/snapshot payloads.
      if (IsPayloadSink(t.text) && IsPunct(toks, i + 1, "(") &&
          (IsPunct(toks, i - 1, ".") || IsPunct(toks, i - 1, "->"))) {
        const int close = MatchForward(toks, i + 1);
        for (int k = i + 2; k >= 0 && k < close; ++k) {
          const bool addr_of =
              IsPunct(toks, k, "&") &&
              (IsPunct(toks, k - 1, "(") || IsPunct(toks, k - 1, ",")) &&
              toks[static_cast<std::size_t>(k + 1)].kind == TokKind::kIdent;
          const bool ptr_cast =
              IsIdent(toks, k, "reinterpret_cast") &&
              (IsIdent(toks, k + 2, "uintptr_t") ||
               IsIdent(toks, k + 4, "uintptr_t"));
          if (addr_of || ptr_cast) {
            out->push_back(
                {name(), file.path(), toks[static_cast<std::size_t>(k)].line,
                 "pointer value leaks into a digest/snapshot payload: "
                 "addresses are not stable across runs or restores"});
            break;
          }
        }
        continue;
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeDeterminismRule() {
  return std::make_unique<DeterminismRule>();
}

}  // namespace nova::lint
