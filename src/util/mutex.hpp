// Capability-annotated mutex wrapper: std::mutex carries no thread-safety
// attributes on libstdc++, so Clang's analysis cannot see its lock/unlock.
// util::Mutex is a zero-overhead wrapper that does, plus the RAII guard
// and condition variable to use with it. All project code that guards
// state with a mutex should use these (dnh-analyze and the -Wthread-safety
// build both assume it); see docs/static-analysis.md.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace dnh::util {

class CondVar;
class MutexLock;

/// A std::mutex the thread-safety analysis understands. Members guarded
/// by a Mutex `mu` are declared `T member DNH_GUARDED_BY(mu);`.
class DNH_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DNH_ACQUIRE() { mu_.lock(); }
  void unlock() DNH_RELEASE() { mu_.unlock(); }
  bool try_lock() DNH_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII lock for Mutex (the std::lock_guard/unique_lock replacement at
/// annotated call sites). Scoped: the analysis knows the capability is
/// held from construction to destruction.
class DNH_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DNH_ACQUIRE(mu) : lock_{mu.mu_} {}
  ~MutexLock() DNH_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with Mutex/MutexLock. The analysis treats
/// the mutex as held across wait()/wait_for() — the standard reading of a
/// condition wait (the lock is released and reacquired inside, but every
/// guarded access around the call happens with it held). Waits are
/// unconditional (no predicate overloads): loop on the guarded predicate
/// at the call site so the analysis can check it.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Caller must hold `lock`; may wake spuriously.
  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  template <typename Rep, typename Period>
  std::cv_status wait_for(MutexLock& lock,
                          const std::chrono::duration<Rep, Period>& d) {
    return cv_.wait_for(lock.lock_, d);
  }

 private:
  std::condition_variable cv_;
};

}  // namespace dnh::util
