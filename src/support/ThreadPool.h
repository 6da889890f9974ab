//===- support/ThreadPool.h - Deterministic parallel execution ----*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution layer every parallel hot path dispatches through: a
/// fixed-size worker pool with a `parallelFor` that statically partitions
/// the iteration space into contiguous chunks. Chunk *boundaries* depend
/// only on the range and the way count — never on scheduling — and every
/// kernel built on top writes disjoint outputs per chunk with an unchanged
/// per-element arithmetic order, so results are bit-identical for any
/// thread count (including 1, which runs inline with zero overhead).
///
/// Nested `parallelFor` calls from inside a worker run serially inline
/// (no deadlock, no oversubscription), and so does a top-level call that
/// finds the pool busy with another thread's job: concurrent callers (the
/// serve daemon's batch workers) never wait for each other. Exceptions
/// thrown by chunk bodies are captured and the first one is rethrown on
/// the calling thread.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_SUPPORT_THREADPOOL_H
#define TYPILUS_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace typilus {

/// A fixed-size pool of worker threads executing chunked loops.
class ThreadPool {
public:
  /// \p NumThreads total ways of parallelism including the calling thread;
  /// 0 means `hardware_concurrency` (at least 1). A pool of 1 spawns no
  /// workers and runs everything inline.
  explicit ThreadPool(int NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total ways of parallelism (workers + the calling thread).
  int numThreads() const { return static_cast<int>(Workers.size()) + 1; }

  /// Runs \p Fn(ChunkBegin, ChunkEnd) over a static partition of
  /// [Begin, End). At most ceil((End-Begin)/Grain) chunks are formed,
  /// capped at numThreads() (and at \p MaxWays when positive), and split
  /// as evenly as possible into contiguous ranges. Ranges of at most
  /// \p Grain elements, nested calls and calls made while another thread
  /// holds the pool run inline serially.
  /// Blocks until every chunk finished; rethrows the first exception.
  void parallelFor(int64_t Begin, int64_t End, int64_t Grain,
                   const std::function<void(int64_t, int64_t)> &Fn,
                   int MaxWays = 0);

  /// True while the current thread is executing inside a parallelFor
  /// (worker or participating caller). Nested calls run serially.
  static bool insideParallelRegion();

private:
  /// One in-flight parallelFor. Chunk ranges are a pure function of
  /// (Begin, End, NumChunks); the atomic only hands out chunk *indices*.
  /// Shared-owned: a worker that wakes after the caller already collected
  /// the results may still probe NextChunk, so the job must outlive the
  /// caller's stack frame.
  struct Job {
    const std::function<void(int64_t, int64_t)> *Fn = nullptr;
    int64_t Begin = 0, End = 0;
    int64_t NumChunks = 0;
    std::atomic<int64_t> NextChunk{0};
    std::atomic<int64_t> DoneChunks{0};
    std::exception_ptr Error;
    std::mutex ErrorMutex;
  };

  void workerLoop();
  void runChunks(Job &J);

  std::vector<std::thread> Workers;
  std::mutex Mutex; ///< Guards Current/JobSeq/Stop and the CVs.
  std::condition_variable WakeCV; ///< Workers wait here for a job.
  std::condition_variable DoneCV; ///< The caller waits here for completion.
  std::mutex SubmitMutex; ///< One top-level job at a time (try_lock).
  std::shared_ptr<Job> Current;
  uint64_t JobSeq = 0;
  bool Stop = false;
};

/// The process-wide pool used by the tensor kernels, the kNN index and the
/// training/prediction loops. Created lazily at the configured size.
ThreadPool &globalPool();

/// Resizes the process-wide pool (0 = hardware_concurrency). Takes effect
/// on the next globalPool() call; must not race with in-flight parallel
/// work. `setGlobalNumThreads(1)` makes every dispatch run serially inline.
void setGlobalNumThreads(int NumThreads);

/// The configured way count of the process-wide pool.
int globalNumThreads();

/// Convenience: globalPool().parallelFor(...).
inline void parallelFor(int64_t Begin, int64_t End, int64_t Grain,
                        const std::function<void(int64_t, int64_t)> &Fn,
                        int MaxWays = 0) {
  globalPool().parallelFor(Begin, End, Grain, Fn, MaxWays);
}

} // namespace typilus

#endif // TYPILUS_SUPPORT_THREADPOOL_H
