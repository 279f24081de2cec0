#include "tests/counting_alloc.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
thread_local std::uint64_t t_allocations = 0;

void* counted_malloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  ++t_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

namespace dnh::counting_alloc {

std::uint64_t total() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t this_thread() noexcept { return t_allocations; }

}  // namespace dnh::counting_alloc

// GCC pairs the replaced operator new (malloc) with the replaced delete
// (free) just fine; its heuristic only sees "free() of new-ed pointer".
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
