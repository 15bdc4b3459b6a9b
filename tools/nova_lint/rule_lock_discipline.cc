// lock-discipline: a static race detector for the SMP model.
//
// Members annotated `// guarded-by(<lock>)` on their declaration are
// shared mutable kernel state reachable from any CPU. Every use of such
// a member must sit inside a function that charges the named KernelLock
// via Hypervisor::ChargeLock (the repo's contention-charge model — a
// charge anywhere in the body covers the body, there is no RAII scope),
// or belong to per-CPU code (hv::CpuState / RunQueue methods), which
// the per-cpu-state rule already confines to the owning core. The
// annotations live in headers and the uses in .cc files, so the check
// leans on the whole-project member index; lock charges are read off the
// per-file scope walk. Single-threaded phases (Boot, teardown, quiesced
// snapshots) are vetted with justified allow() comments.
#include <map>
#include <string>
#include <vector>

#include "tools/nova_lint/rule.h"

namespace nova::lint {
namespace {

// Per-CPU owner types: code inside these classes runs confined to one
// core by construction (per-cpu-state rule), so no cross-core lock is needed.
bool IsPerCpuOwner(const std::string& qualifier) {
  return qualifier == "CpuState" || qualifier == "RunQueue";
}

class LockDisciplineRule final : public Rule {
 public:
  const char* name() const override { return "lock-discipline"; }
  const char* summary() const override {
    return "guarded-by(<lock>) members are only touched under a matching "
           "ChargeLock or from per-CPU code";
  }

  void Check(const FileCtx& ctx, const ProjectModel& model,
             Findings* out) const override {
    const SourceFile& file = ctx.file;
    const Tokens& toks = ctx.toks;
    if (model.members.empty()) return;

    // Guarded member name -> the locks that may guard it (same-named
    // members in different classes can name different locks).
    std::map<std::string, std::vector<const MemberDecl*>> guarded;
    for (const MemberDecl* m : model.GuardedMembers()) {
      guarded[m->name].push_back(m);
    }
    if (guarded.empty()) return;

    const int n = static_cast<int>(toks.size());
    for (int i = 0; i < n; ++i) {
      const Token& t = toks[static_cast<std::size_t>(i)];
      if (t.kind != TokKind::kIdent) continue;
      const auto it = guarded.find(t.text);
      if (it == guarded.end()) continue;

      // The declaration itself (and its census comments) is not a use.
      bool is_decl = false;
      for (const MemberDecl* m : it->second) {
        if (m->file == file.path() && m->line == t.line) is_decl = true;
      }
      if (is_decl) continue;

      const int fn = InnermostFunction(ctx.scopes, i);
      if (fn < 0) continue;  // declaration/initializer context
      const FuncScope& scope =
          ctx.scopes.functions[static_cast<std::size_t>(fn)];
      if (IsPerCpuOwner(scope.qualifier)) continue;

      const FuncDef* def = model.FunctionAt(file.path(), scope.line);
      bool locked = false;
      if (def != nullptr) {
        for (const MemberDecl* m : it->second) {
          if (def->locks.count(m->guarded_by) != 0) locked = true;
        }
      }
      if (locked) continue;

      const std::string lock = it->second.front()->guarded_by;
      out->push_back(
          {name(), file.path(), t.line,
           "'" + t.text + "' is guarded-by(" + lock + ") but '" +
               (scope.qualifier.empty() ? scope.name
                                        : scope.qualifier + "::" + scope.name) +
               "' does not charge it and is not per-CPU code"});
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeLockDisciplineRule() {
  return std::make_unique<LockDisciplineRule>();
}

}  // namespace nova::lint
