// Heap-allocation counting for the traced binary only (pb_world_traced).
//
// Each thread bumps its own cache-line-sized slot with a relaxed load and
// store — no read-modify-write, no shared line — because a single shared
// atomic counter measurably slows the sharded world (every shard thread
// would contend on one line). The total is the sum over slots, read
// between runs while the counting threads are idle.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

namespace {

struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};

constexpr int kSlots = 128;
Slot g_slots[kSlots];
// Threads past kSlots share the last slot, which then needs a real RMW.
std::atomic<int> g_next{0};
thread_local Slot* t_slot = nullptr;

inline void count_one() noexcept {
  Slot* s = t_slot;
  if (s == nullptr) {
    const int i = g_next.fetch_add(1, std::memory_order_relaxed);
    s = t_slot = &g_slots[i < kSlots ? i : kSlots - 1];
    if (i >= kSlots - 1) {
      s->n.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  } else if (s == &g_slots[kSlots - 1]) {
    s->n.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  s->n.store(s->n.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  count_one();
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t al) {
  count_one();
  const std::size_t a = static_cast<std::size_t>(al);
  std::size_t rounded = (size + a - 1) / a * a;
  if (rounded == 0) rounded = a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace pb {

std::uint64_t allocations() noexcept {
  std::uint64_t total = 0;
  for (const Slot& s : g_slots) total += s.n.load(std::memory_order_relaxed);
  return total;
}

}  // namespace pb

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return allocate_aligned(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return allocate_aligned(size, al);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_one();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count_one();
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
