// A counting global allocator for allocation-budget checks.
//
// Linking tests/counting_alloc.cpp into a binary replaces the global
// operator new/delete with malloc/free wrappers that count every
// operator-new call. Tests and microbenches snapshot the counts around a
// steady-state loop to prove a hot path stays off the heap.
#pragma once

#include <cstdint>

namespace dnh::counting_alloc {

/// operator-new calls in this process so far, on every thread.
std::uint64_t total() noexcept;

/// operator-new calls made by the calling thread so far: lets a test count
/// one thread (say, a dispatcher) while worker threads allocate freely.
std::uint64_t this_thread() noexcept;

}  // namespace dnh::counting_alloc
