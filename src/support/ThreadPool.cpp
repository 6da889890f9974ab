//===- support/ThreadPool.cpp - Deterministic parallel execution -------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <memory>

using namespace typilus;

namespace {

/// Set while the current thread executes chunks (worker or participating
/// caller); nested parallelFor calls check it and run inline.
thread_local bool InsideRegion = false;

/// The static partition: chunk \p C of \p NumChunks over [Begin, End),
/// contiguous and as even as possible (the first Rem chunks get one extra
/// element). Depends only on its arguments — never on scheduling.
std::pair<int64_t, int64_t> chunkRange(int64_t Begin, int64_t End,
                                       int64_t NumChunks, int64_t C) {
  int64_t N = End - Begin;
  int64_t Q = N / NumChunks, Rem = N % NumChunks;
  int64_t Lo = Begin + C * Q + std::min(C, Rem);
  int64_t Hi = Lo + Q + (C < Rem ? 1 : 0);
  return {Lo, Hi};
}

} // namespace

bool ThreadPool::insideParallelRegion() { return InsideRegion; }

ThreadPool::ThreadPool(int NumThreads) {
  if (NumThreads <= 0)
    NumThreads = std::max(1u, std::thread::hardware_concurrency());
  Workers.reserve(static_cast<size_t>(NumThreads - 1));
  for (int I = 1; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stop = true;
  }
  WakeCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  InsideRegion = true; // workers only ever run inside a region
  uint64_t SeenSeq = 0;
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    WakeCV.wait(Lock, [&] { return Stop || (Current && JobSeq != SeenSeq); });
    if (Stop)
      return;
    SeenSeq = JobSeq;
    std::shared_ptr<Job> J = Current; // keep alive past the caller's frame
    Lock.unlock();
    runChunks(*J);
    J.reset();
    Lock.lock();
  }
}

void ThreadPool::runChunks(Job &J) {
  for (;;) {
    int64_t C = J.NextChunk.fetch_add(1, std::memory_order_relaxed);
    if (C >= J.NumChunks)
      return;
    auto [Lo, Hi] = chunkRange(J.Begin, J.End, J.NumChunks, C);
    try {
      (*J.Fn)(Lo, Hi);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(J.ErrorMutex);
      if (!J.Error)
        J.Error = std::current_exception();
    }
    if (J.DoneChunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        J.NumChunks) {
      // Take the pool mutex so the caller can't miss the notification
      // between checking the predicate and sleeping.
      std::lock_guard<std::mutex> Lock(Mutex);
      DoneCV.notify_all();
    }
  }
}

void ThreadPool::parallelFor(int64_t Begin, int64_t End, int64_t Grain,
                             const std::function<void(int64_t, int64_t)> &Fn,
                             int MaxWays) {
  if (End <= Begin)
    return;
  Grain = std::max<int64_t>(1, Grain);
  int64_t N = End - Begin;
  int64_t Ways = numThreads();
  if (MaxWays > 0)
    Ways = std::min<int64_t>(Ways, MaxWays);
  int64_t NumChunks = std::min(Ways, (N + Grain - 1) / Grain);
  // One top-level job at a time. A caller that finds the pool busy with
  // another thread's job runs inline like a nested call instead of
  // queueing behind it: results are the same for any way count, and a
  // second caller never convoys on the first.
  std::unique_lock<std::mutex> SubmitLock;
  if (NumChunks > 1 && !InsideRegion && !Workers.empty())
    SubmitLock = std::unique_lock<std::mutex>(SubmitMutex, std::try_to_lock);
  if (!SubmitLock.owns_lock()) {
    // Serial path: same partition (one chunk), same arithmetic.
    bool Restore = InsideRegion;
    InsideRegion = true;
    try {
      Fn(Begin, End);
    } catch (...) {
      InsideRegion = Restore;
      throw;
    }
    InsideRegion = Restore;
    return;
  }

  auto J = std::make_shared<Job>();
  J->Fn = &Fn;
  J->Begin = Begin;
  J->End = End;
  J->NumChunks = NumChunks;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Current = J;
    ++JobSeq;
  }
  WakeCV.notify_all();

  // The caller participates, then waits until every chunk completed. (A
  // straggler worker may still probe the drained chunk counter afterwards;
  // the shared_ptr it copied keeps the job alive for that.)
  InsideRegion = true;
  runChunks(*J);
  InsideRegion = false;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    DoneCV.wait(Lock, [&] {
      return J->DoneChunks.load(std::memory_order_acquire) == J->NumChunks;
    });
    Current.reset();
  }
  if (J->Error)
    std::rethrow_exception(J->Error);
}

//===----------------------------------------------------------------------===//
// Process-wide pool
//===----------------------------------------------------------------------===//

namespace {
std::mutex GlobalMutex;
std::unique_ptr<ThreadPool> Global;
int GlobalConfigured = 0; // 0 = hardware_concurrency
} // namespace

ThreadPool &typilus::globalPool() {
  std::lock_guard<std::mutex> Lock(GlobalMutex);
  if (!Global)
    Global = std::make_unique<ThreadPool>(GlobalConfigured);
  return *Global;
}

void typilus::setGlobalNumThreads(int NumThreads) {
  std::lock_guard<std::mutex> Lock(GlobalMutex);
  if (Global && Global->numThreads() ==
                    (NumThreads <= 0
                         ? static_cast<int>(std::max(
                               1u, std::thread::hardware_concurrency()))
                         : NumThreads))
    return; // already the right size; keep the warm pool
  Global.reset();
  GlobalConfigured = NumThreads;
}

int typilus::globalNumThreads() { return globalPool().numThreads(); }
