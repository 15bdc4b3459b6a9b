// Linked into the snapshot decode tests: a single allocation larger than
// 256 MiB throws std::bad_alloc before any memory is touched. A decoder
// that sizes a buffer from a forged stream count (4 Gi tag entries, a
// 2^62-byte payload) then fails its test with an exception instead of
// exhausting the host's memory.
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
constexpr std::size_t kAllocCap = std::size_t{256} << 20;
}  // namespace

void* operator new(std::size_t n) {
  if (n <= kAllocCap) {
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
