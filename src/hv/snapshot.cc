// Kernel checkpoint/restore: serialization of the hypervisor's mutable
// state (see DESIGN.md §13).
//
// Identity model: objects are addressed by creation-order oid; the
// restore target is a *twin* — a Hypervisor whose scenario construction
// ran the identical creation sequence, so oid i names the equivalent
// object on both sides. LoadState overlays mutable state onto the twin's
// objects; immutable construction parameters (names, kinds, home CPUs,
// priorities) are verified, not restored, so a mismatched twin fails
// loudly instead of silently diverging.
#include <algorithm>
#include <memory>
#include <vector>

#include "src/hv/kernel.h"
#include "src/hv/snapshot.h"

namespace nova::hv {
namespace {

// --- Plain-struct walks ---------------------------------------------------

template <class C, class Io>
void CrdFields(C& crd, Io& io) {
  io.Enum(crd.kind, CrdKind::kObj);
  io.U64(crd.base);
  io.U8(crd.order);
  io.U8(crd.perms);
}

template <class A, class Io>
void ArchFields(A& a, Io& io) {
  for (auto& reg : a.regs) io.U64(reg);
  io.U64(a.rip);
  io.U64(a.insn_len);
  io.Bool(a.interrupts_enabled);
  io.U64(a.cr3);
  io.U64(a.cr2);
  io.Bool(a.paging);
  io.U64(a.qual_gva);
  io.U64(a.qual_gpa);
  io.U64(a.qual);
  io.Bool(a.inject_pending);
  io.U8(a.inject_vector);
  io.Bool(a.request_intr_window);
  io.Bool(a.halted);
  io.U64(a.tsc);
}

template <class U, class Io>
void UtcbFields(U& u, Io& io) {
  io.U32(u.untyped);
  for (auto& word : u.words) io.U64(word);
  io.U32(u.num_typed);
  for (auto& item : u.typed) {
    CrdFields(item.crd, io);
    io.U64(item.hotspot);
  }
  CrdFields(u.recv_window, io);
  ArchFields(u.arch, io);
  io.U32(u.mtd);
}

// VmControls minus io_passthrough: the bitmap pointer targets the owning
// PD's IoSpace, which the twin wires at construction.
template <class C, class Io>
void ControlsFields(C& c, Io& io) {
  io.Enum(c.mode, hw::TranslationMode::kShadow);
  io.Enum(c.nested_format, hw::PagingMode::kFourLevel);
  io.U64(c.nested_root);
  io.U16(c.tag);
  io.U16(c.base_tag);
  io.Bool(c.direct_interrupts);
  io.Bool(c.intercept_cpuid);
  io.Bool(c.intercept_hlt);
  io.Bool(c.intercept_cr3);
  io.Bool(c.intercept_invlpg);
  io.Bool(c.intercept_vmcall);
}

std::uint64_t OidOrNone(const KObject* obj) {
  return obj == nullptr ? KObject::kNoOid : obj->oid();
}

// Nullable raw-pointer extraction: a restored oid may legitimately be
// kNoOid (field was null at save time), so null is a valid result here.
template <typename T>
T* MaybeRaw(const std::shared_ptr<T>& ref) {
  return ref == nullptr ? nullptr : ref.get();
}

}  // namespace

// Pool, allocator, lock and boot state, the kernel stat registry (Table 2
// counters) and the per-CPU VM engines: the part of "hv.kernel" that is
// plain state. The object graph that follows it is translated through
// oids, in opposite directions on save and load, so it keeps two paths.
template <class Self, class Io>
Status Hypervisor::Fields(Self& s, Io& io) {
  io.U64(s.kernel_reserve_);
  io.U64(s.pool_next_);
  io.Seq64(s.pool_free_, [&io](auto& frame) { io.U64(frame); });
  io.U32(s.boot_cpu_for_step_);
  for (auto* lock : {&s.sched_lock_, &s.mdb_lock_, &s.xcall_lock_}) {
    io.U32(lock->last_cpu);
    io.U64(lock->hold_until_ps);
  }
  io.State(s.tlb_tags_);
  io.Bool(s.vtlb_policy_.cache_contexts);
  io.Bool(s.vtlb_policy_.use_vpid);
  io.U32(s.vtlb_policy_.max_cached_frames);
  io.State(s.stats_);
  io.Check32(s.engines_.size());
  for (auto& engine : s.engines_) io.State(*engine);
  return io.status();
}

Status Hypervisor::SaveState(sim::Snapshot& snap) const {
  sim::SnapWriter& w = snap.Section("hv.kernel", 1);
  if (Status st = Fields(*this, w); !Ok(st)) {
    return st;
  }

  // Object graph, in creation (oid) order. An expired entry means the
  // checkpoint races domain destruction — refuse rather than guess.
  w.U64(objects_.size());
  for (const ObjSlot& slot : objects_) {
    const ObjRef obj = slot.ref.lock();
    if (obj == nullptr) {
      return Status::kBadParameter;
    }
    w.U8(static_cast<std::uint8_t>(slot.type));
    w.Bool(obj->dead());
    switch (slot.type) {
      case ObjType::kPd: {
        const auto pd = std::static_pointer_cast<Pd>(obj);
        w.Str(pd->name());
        w.Bool(pd->is_vm());
        w.State(pd->kmem());
        w.U64(OidOrNone(pd->kmem_donor().get()));
        w.Latch(pd->caps().SaveState(w, OidOrNone));
        w.State(pd->mem_space(), pd->io_space());
        w.U16(pd->vm_tag());
        w.Seq32(pd->assigned_devices(),
                [&w](std::uint16_t dev) { w.U16(dev); });
        w.U64(pd->cores_mask());
        break;
      }
      case ObjType::kEc: {
        const auto ec = std::static_pointer_cast<Ec>(obj);
        w.U8(static_cast<std::uint8_t>(ec->kind()));
        w.U32(ec->cpu());
        w.U64(ec->pd().oid());
        UtcbFields(ec->utcb(), w);
        w.U32(ec->evt_base());
        w.Enum(ec->block_state(), Ec::BlockState::kBlockedHalt);
        w.Enum(ec->wake_status(), Status::kNoMem);
        w.U64(OidOrNone(ec->blocked_on()));
        w.U64(ec->timeout_event());
        w.U64(OidOrNone(ec->sc()));
        w.Bool(ec->busy());
        GuestStateFields(ec->gstate(), w);
        ControlsFields(ec->ctl(), w);
        w.Bool(ec->vtlb() != nullptr);
        if (ec->vtlb() != nullptr) w.State(*ec->vtlb());
        break;
      }
      case ObjType::kSc: {
        const auto sc = std::static_pointer_cast<Sc>(obj);
        w.U64(sc->ec().oid());
        w.U8(sc->prio());
        w.U64(sc->quantum());
        w.U64(sc->left());
        w.Bool(sc->queued());
        break;
      }
      case ObjType::kPt: {
        const auto pt = std::static_pointer_cast<Pt>(obj);
        w.U64(pt->handler().oid());
        w.U32(pt->mtd());
        w.U64(pt->id());
        break;
      }
      case ObjType::kSm: {
        const auto sm = std::static_pointer_cast<Sm>(obj);
        w.U64(sm->counter());
        w.U32(sm->bound_gsi());
        w.U64(OidOrNone(sm->owner()));
        w.Seq32(sm->waiters(), [&w](const auto& ec) { w.U64(ec->oid()); });
        break;
      }
    }
  }

  // GSI bindings, by oid. Snapshots run with the machine quiesced; no
  // delivery or rebind can race the save.
  // nova-lint: allow(lock-discipline) -- quiesced-machine snapshot
  for (const auto& sm : gsi_sms_) {
    w.U64(OidOrNone(sm.get()));
  }
  // nova-lint: allow(lock-discipline) -- quiesced-machine snapshot
  for (const auto& ec : gsi_direct_) {
    w.U64(OidOrNone(ec.get()));
  }

  // Per-core scheduler state. Machine-wide enumeration by design:
  // nova-lint: allow(per-cpu-state)
  w.U32(static_cast<std::uint32_t>(cpu_states_.size()));
  // nova-lint: allow(per-cpu-state)
  for (const CpuState& state : cpu_states_) {
    w.U64(OidOrNone(state.current()));
    std::vector<Sc*> ready;
    state.CollectReady(&ready);
    w.Seq32(ready, [&w](const Sc* sc) { w.U64(sc->oid()); });
    w.Seq32(state.halted(), [&w](const auto& ec) { w.U64(ec->oid()); });
  }

  // Mapping database and root sanity anchor.
  // nova-lint: allow(lock-discipline) -- quiesced-machine snapshot
  w.Latch(mdb_.SaveState(w, [](const Pd* pd) { return OidOrNone(pd); }));
  w.U64(OidOrNone(root_pd_.get()));
  return w.status();
}

Status Hypervisor::LoadState(const sim::Snapshot& snap) {
  sim::SnapReader r = snap.Open("hv.kernel", 1);

  // Lock every registered object for the duration of the overlay, so no
  // release hook can fire while reference chains are being rewritten. A
  // twin must not have destroyed anything yet.
  std::vector<ObjRef> keeper;
  keeper.reserve(objects_.size());
  for (const ObjSlot& slot : objects_) {
    ObjRef obj = slot.ref.lock();
    if (obj == nullptr) {
      return Status::kBadParameter;
    }
    keeper.push_back(std::move(obj));
  }
  if (Status st = Fields(*this, r); !Ok(st)) {
    return st;
  }

  // Object overlay. Construction-time invariants (type, name, kind, home
  // CPU, priority, wiring oids) are verified against the twin.
  r.Check64(objects_.size());
  const auto by_oid = [this](std::uint64_t oid) { return ObjectByOid(oid); };
  // A counted list of oids, each naming a live object of `type`.
  const auto refs = [&r, &by_oid](auto& out, ObjType type) {
    r.Seq32(out, [&](auto& ref) {
      using T = typename std::remove_reference_t<decltype(ref)>::element_type;
      ref = RefAs<T>(by_oid(r.U64()), type);
      r.Require(ref != nullptr);
    });
  };
  for (std::uint64_t oid = 0; oid < objects_.size() && r.ok(); ++oid) {
    const ObjRef& obj = keeper[oid];
    r.Require(static_cast<ObjType>(r.U8()) == obj->type());
    if (r.Bool()) {
      obj->MarkDead();
    }
    switch (obj->type()) {
      case ObjType::kPd: {
        auto pd = std::static_pointer_cast<Pd>(obj);
        r.Require(r.Str() == pd->name() && r.Bool() == pd->is_vm());
        r.State(pd->kmem());
        pd->set_kmem_donor(RefAs<Pd>(by_oid(r.U64()), ObjType::kPd));
        r.Latch(pd->caps().LoadState(r, by_oid));
        r.State(pd->mem_space(), pd->io_space());
        pd->set_vm_tag(r.U16());
        r.Seq32(pd->assigned_devices(),
                [&r](std::uint16_t& dev) { r.U16(dev); });
        pd->SetCoresMask(r.U64());
        break;
      }
      case ObjType::kEc: {
        auto ec = std::static_pointer_cast<Ec>(obj);
        r.Require(static_cast<Ec::Kind>(r.U8()) == ec->kind() &&
                  r.U32() == ec->cpu() && r.U64() == ec->pd().oid());
        UtcbFields(ec->utcb(), r);
        ec->set_evt_base(r.U32());
        Ec::BlockState block = Ec::BlockState::kRunnable;
        r.Enum(block, Ec::BlockState::kBlockedHalt);
        ec->set_block_state(block);
        Status wake = Status::kSuccess;
        r.Enum(wake, Status::kNoMem);
        ec->set_wake_status(wake);
        ec->set_blocked_on(MaybeRaw(RefAs<Sm>(by_oid(r.U64()), ObjType::kSm)));
        ec->set_timeout_event(r.U64());
        ec->set_sc(MaybeRaw(RefAs<Sc>(by_oid(r.U64()), ObjType::kSc)));
        ec->set_busy(r.Bool());
        GuestStateFields(ec->gstate(), r);
        ControlsFields(ec->ctl(), r);
        if (r.Bool() && r.ok()) {
          // Vtlbs attach lazily; the twin has not run a shadow exit yet.
          r.State(VtlbFor(ec.get()));
        }
        break;
      }
      case ObjType::kSc: {
        auto sc = std::static_pointer_cast<Sc>(obj);
        r.Require(r.U64() == sc->ec().oid() && r.U8() == sc->prio() &&
                  r.U64() == sc->quantum());
        sc->SetLeft(r.U64());
        sc->set_queued(r.Bool());
        break;
      }
      case ObjType::kPt: {
        auto pt = std::static_pointer_cast<Pt>(obj);
        r.Check64(pt->handler().oid());
        pt->set_mtd(r.U32());
        r.Check64(pt->id());
        break;
      }
      case ObjType::kSm: {
        auto sm = std::static_pointer_cast<Sm>(obj);
        sm->set_counter(r.U64());
        const std::uint32_t gsi = r.U32();
        r.Require(gsi == ~0u || gsi < hw::kNumGsis);  // Indexes gsi_sms_.
        sm->bind_gsi(gsi);
        sm->set_owner(MaybeRaw(RefAs<Pd>(by_oid(r.U64()), ObjType::kPd)));
        refs(sm->waiters(), ObjType::kEc);
        break;
      }
    }
  }
  if (!r.ok()) {
    return r.status();
  }

  // Restore happens before the machine runs; nothing can race it.
  // nova-lint: allow(lock-discipline) -- quiesced-machine restore
  for (auto& sm : gsi_sms_) {
    sm = RefAs<Sm>(by_oid(r.U64()), ObjType::kSm);
  }
  // nova-lint: allow(lock-discipline) -- quiesced-machine restore
  for (auto& ec : gsi_direct_) {
    ec = RefAs<Ec>(by_oid(r.U64()), ObjType::kEc);
  }

  // Per-core scheduler overlay. Machine-wide rebuild by design:
  // nova-lint: allow(per-cpu-state)
  r.Check32(cpu_states_.size());
  // nova-lint: allow(per-cpu-state)
  for (CpuState& state : cpu_states_) {
    if (!r.ok()) {
      break;
    }
    state.SetCurrent(MaybeRaw(RefAs<Sc>(by_oid(r.U64()), ObjType::kSc)));
    state.ClearReady();
    std::vector<std::shared_ptr<Sc>> ready;
    refs(ready, ObjType::kSc);
    for (const auto& sc : ready) {
      // Enqueue in the saved dequeue order (priority-descending, FIFO per
      // level) reproduces the exact deque contents; the queued flag was
      // already overlaid, so drop it for the guard and re-set via Enqueue.
      sc->set_queued(false);
      state.Enqueue(sc.get());
    }
    refs(state.halted(), ObjType::kEc);
  }
  if (!r.ok()) {
    return r.status();
  }

  // nova-lint: allow(lock-discipline) -- quiesced-machine restore
  r.Latch(mdb_.LoadState(r, [this](std::uint64_t oid) {
    return MaybeRaw(RefAs<Pd>(ObjectByOid(oid), ObjType::kPd));
  }));
  r.Check64(OidOrNone(root_pd_.get()));
  return r.Finish();
}

}  // namespace nova::hv
