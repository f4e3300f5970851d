// Counting replacement of the global allocation functions, linked
// into the traced binary only: every operator new bumps a
// thread-local counter that ThreadTrace samples around the runtime's
// calls (mp.heap_allocs_per_chunk).
#include <cstdint>
#include <cstdlib>
#include <new>

#include "trace.hpp"

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  void* p = nullptr;
  const std::size_t a = static_cast<std::size_t>(al) < sizeof(void*)
                            ? sizeof(void*)
                            : static_cast<std::size_t>(al);
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

std::uint64_t pb::thread_allocs() { return t_allocs; }

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
