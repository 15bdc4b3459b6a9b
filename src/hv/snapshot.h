// Shared field walk for architectural guest state.
//
// The kernel's own checkpoint (snapshot.cc) serializes every vCPU's
// GuestState; user-level components that checkpoint a guest — the VMM
// supervisor's periodic recovery checkpoints, the migration driver —
// reuse the same walk so the two never drift.
#ifndef SRC_HV_SNAPSHOT_H_
#define SRC_HV_SNAPSHOT_H_

#include "src/hw/guest_state.h"
#include "src/sim/snapshot.h"

namespace nova::hv {

// `g` is a const GuestState with a SnapWriter, a mutable one with a
// SnapReader (see the field-walk notes in src/sim/snapshot.h).
template <class G, class Io>
void GuestStateFields(G& g, Io& io) {
  for (auto& reg : g.regs) io.U64(reg);
  io.U64(g.rip);
  io.U64(g.cr3);
  io.U64(g.cr2);
  io.Bool(g.paging);
  io.Bool(g.interrupts_enabled);
  io.Bool(g.halted);
  for (auto& handler : g.idt) io.U64(handler);
  io.U32(g.frame_depth);
  // IRET pops frames[--frame_depth]; event delivery pushes below the cap.
  io.Require(g.frame_depth >= 0 && g.frame_depth <= hw::kMaxIntrNesting);
  for (auto& f : g.frames) {
    io.U64(f.rip);
    io.Bool(f.interrupts_enabled);
    for (auto& reg : f.regs) io.U64(reg);
  }
  io.Bool(g.inject_pending);
  io.U8(g.inject_vector);
  io.Bool(g.request_intr_window);
  io.Bool(g.recall_pending);
}

}  // namespace nova::hv

#endif  // SRC_HV_SNAPSHOT_H_
