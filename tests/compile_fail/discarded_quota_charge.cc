// Must not compile: a discarded kernel-frame charge. AllocFrameFor is
// [[nodiscard]] because its kNullPhys on quota exhaustion must be seen,
// and every target builds with -Werror=unused-result.
#include "src/hv/kmem.h"

void Grow(nova::hv::KmemPool& pool, nova::hv::Pd* pd) {
  pool.AllocFrameFor(pd);
}
