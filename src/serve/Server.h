//===- serve/Server.h - Batched request pipeline ------------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving core behind `typilus_serve`, transport-agnostic so tests
/// drive it in-process: reader threads submit parsed requests, a single
/// dispatcher thread pops them and *coalesces* consecutive predict
/// requests into one `Predictor::predictSources` call — files embed
/// data-parallel through the thread pool and one bulk τmap probe answers
/// the whole batch — after *collapsing* identical requests so N clients
/// asking about the same source pay for one prediction.
///
/// Ownership is split in two. The dispatcher is the only thread that
/// pops the queue, probes and fills the response cache, swaps the
/// predictor on reload and writes responses. A small set of batch
/// workers owned by the server runs only the prediction itself, so up
/// to globalNumThreads() batches are in flight at once (1 when the
/// encoder is not safe to run concurrently, TypeModel::
/// supportsParallelEmbed). Finished batches return to the dispatcher,
/// which releases them strictly in arrival order; a request whose
/// (path, source) is already being predicted by an earlier in-flight
/// batch joins that prediction instead of embedding again. Responses are
/// therefore bit-identical to single-shot prediction, and in the same
/// order, for any thread count and any batch composition; only the
/// overlap changes.
///
/// On top of the batch pipeline sit three production behaviors, all
/// owned by the dispatcher so they stay lock-free and totally ordered
/// with prediction:
///
///  - a **response cache** keyed on (path, FNV-1a source digest) with
///    LRU eviction: a repeated request skips embedding entirely and its
///    response is re-serialized from the cached predictions — byte-
///    identical to the original miss for the same id and limit;
///  - **hot reload**: a `reload` request (or SIGHUP in the daemon)
///    swaps in a freshly loaded Predictor through ServerOptions::
///    OnReload. Because reload rides the request queue and, like every
///    control request, runs only once every earlier batch has been
///    released, requests enqueued before it are answered from the old
///    artifact and requests after it from the new one — never a mix —
///    and the cache is invalidated in the same step;
///  - **backpressure**: with ServerOptions::MaxQueue set, a predict
///    arriving at a full queue is answered immediately (on the submit
///    thread) with an `overloaded` error instead of wedging the
///    dispatcher; control requests always pass.
///
/// Shutdown is drain-first: stop() refuses new submissions, finishes
/// every queued request and then every in-flight batch (each request
/// gets its response) and joins the dispatcher and its workers.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_SERVE_SERVER_H
#define TYPILUS_SERVE_SERVER_H

#include "serve/Dispatch.h"
#include "serve/Protocol.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace typilus {

class TypeUniverse;

namespace serve {

struct ServerOptions {
  /// Most predict requests coalesced into one dispatch (1 = serve one
  /// request at a time, the unbatched baseline bench/serve_throughput
  /// compares against).
  int MaxBatch = 16;
  /// Default per-symbol candidate cap for responses that do not set
  /// "limit" themselves (-1 = all candidates).
  int Limit = -1;
  /// Response-cache capacity in distinct (path, source digest) entries;
  /// least-recently-used entries are evicted past it. 0 disables the
  /// cache (every request embeds, the PR-4 behavior — what the bench's
  /// batching comparison still measures).
  int CacheEntries = 1024;
  /// Queue bound for backpressure: a predict submitted while this many
  /// requests are already queued is shed with an immediate `overloaded`
  /// error response instead of being enqueued. 0 = unbounded. Control
  /// requests (ping/stats/reload/shutdown) are never shed, so probing
  /// and draining an overloaded daemon always works.
  int MaxQueue = 0;
  /// Invoked on the dispatcher thread after a `shutdown` request has
  /// been answered; the transport layer uses it to begin its drain.
  std::function<void()> OnShutdown;
  /// Loads a replacement predictor for a `reload` request; invoked on
  /// the dispatcher thread (prediction pauses while it runs — earlier
  /// batches released, queued ones waiting). The returned predictor
  /// must own its universe (`Predictor::load` artifacts do). Return
  /// null and set \p Err to keep serving the current artifact; unset
  /// leaves the method answering "reload is not enabled".
  std::function<std::shared_ptr<Predictor>(std::string *Err)> OnReload;
};

/// The batched request pipeline. Thread-safe entry: submit() may be
/// called from any number of reader threads.
class Server {
public:
  /// Response sink: receives one serialized response line. Invoked on
  /// the dispatcher thread (submit-side threads never block on
  /// prediction).
  using Respond = std::function<void(std::string)>;

  /// \p P must outlive the server; \p U is the universe \p P's types are
  /// interned in (a loaded predictor owns it — `P.universe()`). Batch
  /// workers call only \p P's prediction entry point (thread-safe, see
  /// core/Predictor.h); everything else is the dispatcher's.
  Server(Predictor &P, TypeUniverse &U, ServerOptions O = {});
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Enqueues one request; the response arrives through \p Fn.
  /// \returns false once stop() has begun (the request is not enqueued
  /// and \p Fn will not be called).
  bool submit(Request R, Respond Fn);

  /// Drains: no new submissions, every queued and in-flight request is
  /// answered, then the dispatcher and the batch workers join.
  /// Idempotent.
  void stop();

  ServerStats stats() const;

private:
  using Clock = std::chrono::steady_clock;
  /// One prediction set, shared by the cache, the batch that predicted
  /// it and every response serialized from it, so an eviction mid-batch
  /// changes nothing.
  using PredSet = std::shared_ptr<const std::vector<PredictionResult>>;

  struct Pending {
    Request R;
    Respond Fn;
    /// Submit time; queue wait (submit -> batch dispatch) feeds the
    /// per-request timing the `stats` method reports.
    Clock::time_point Enqueued;
  };

  struct CacheEntry {
    std::string Path;
    uint64_t SourceDigest;
    PredSet Preds;
  };

  /// One coalesced predict batch from admission to release. Requests
  /// with the same (path, source) form one *group*. The dispatcher fills
  /// everything but the worker outputs; a worker predicts the Miss groups
  /// and sets Done.
  struct Batch {
    std::vector<Pending> Reqs;
    std::vector<size_t> GroupOf; ///< Request -> group.
    std::vector<size_t> Rep;     ///< Group -> its first request.
    std::vector<uint64_t> Digest;
    std::vector<PredSet> GroupPreds; ///< Cache hits at admission, the
                                     ///< rest at release; null = failed.
    /// Group -> the earlier in-flight batch (and its group) already
    /// predicting the same key, or null.
    std::vector<std::pair<std::shared_ptr<Batch>, size_t>> JoinOf;
    std::vector<size_t> Miss; ///< Groups this batch predicts.
    uint64_t Hits = 0;
    Predictor *P = nullptr; ///< The predictor active at admission.
    Clock::time_point Dispatched;
    uint64_t QueueTotalUs = 0, QueueMaxUs = 0;
    // Worker outputs, read by the dispatcher once Done is set.
    std::vector<std::vector<PredictionResult>> Fresh; ///< Per Miss group.
    PredictTiming Timing;
    std::string Err; ///< Why the prediction failed ("" = it did not).
    bool Done = false; ///< Guarded by Mu.
  };

  void dispatchLoop();
  void workerLoop();
  /// Fills Methods with the control handlers (ping/stats/reload/
  /// shutdown); predict is not in the table — it dispatches through the
  /// coalescing batch path below, never one at a time.
  void registerMethods();
  void serveOne(Pending &P);
  void serveReload(Pending &P);
  /// Most batches in flight for the current predictor. Dispatcher-only.
  size_t flightLimit() const;
  /// Groups \p Reqs, probes the cache and the in-flight keys, and
  /// registers the keys it will predict. Dispatcher-only.
  std::shared_ptr<Batch> admit(std::vector<Pending> Reqs);
  /// The worker's share: predicts B's Miss groups. Touches nothing else.
  static void predict(Batch &B);
  /// Fills the cache, answers every request in arrival order and
  /// updates the stats. Dispatcher-only.
  void release(Batch &B);

  /// Cache lookup; moves a hit to the LRU front. Dispatcher-only.
  PredSet cacheFind(const std::string &Path, uint64_t SourceDigest);
  /// Inserts a fresh prediction set, evicting LRU entries past the
  /// capacity. \returns evictions performed. Dispatcher-only.
  uint64_t cacheInsert(const std::string &Path, uint64_t SourceDigest,
                       PredSet P);

  // The artifact being served. Plain pointers (not refs) because reload
  // swaps them; OwnedPred keeps a reloaded predictor (and the universe
  // it owns) alive until the next swap. Dispatcher-only after
  // construction.
  Predictor *Pred;
  TypeUniverse *U;
  std::shared_ptr<Predictor> OwnedPred;
  ServerOptions Opts;

  /// Control-method dispatch table (serve/Dispatch.h — the same surface
  /// the LSP registers its JSON-RPC handlers through). Handlers run on
  /// the dispatcher thread only.
  MethodRegistry<std::function<void(Pending &)>> Methods;

  // Response cache: LRU list (front = most recent) + index into it.
  // Dispatcher-only, so no lock; invalidated wholesale on reload.
  std::list<CacheEntry> CacheLru;
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> CacheIdx;

  // Admitted batches, oldest first, and the cache keys they predict
  // (key -> batch and group). Dispatcher-only.
  std::deque<std::shared_ptr<Batch>> Flight;
  std::unordered_map<std::string, std::pair<std::shared_ptr<Batch>, size_t>>
      InFlightKeys;

  mutable std::mutex Mu;
  /// The dispatcher waits here for a request or a finished batch.
  std::condition_variable WakeCV;
  std::deque<Pending> Queue;
  bool Stopping = false;
  ServerStats Stats;
  /// Batches handed to the workers, and their wake-up.
  std::deque<std::shared_ptr<Batch>> Work;
  std::condition_variable WorkCV;
  bool WorkersQuit = false;
  std::vector<std::thread> Workers;
  std::thread Dispatcher;
};

/// FNV-1a over a request's source text — the cache key half that
/// changes when a file's contents do. Exposed for tests asserting
/// key semantics.
uint64_t sourceDigest(std::string_view Source);

/// Drives one NDJSON request stream (a connection or stdin): reads lines
/// off \p Fd, answers protocol errors — malformed JSON, missing fields,
/// lines over \p MaxRequestBytes — itself through \p Send, and submits
/// well-formed requests to \p S (whose responses also flow through
/// \p Send, from the dispatcher thread — \p Send must be thread-safe).
/// Returns on EOF or a read error, right after submitting a `shutdown`
/// request, or — when \p Stop is non-null — once *Stop reads true after
/// an interrupted read. \p WakeFd (see LineReader) makes that preemption
/// race-free: the stdio daemon passes its SIGTERM self-pipe so a signal
/// landing between reads still wakes the stream.
void serveStream(int Fd, size_t MaxRequestBytes, Server &S,
                 std::function<void(std::string)> Send,
                 const std::atomic<bool> *Stop = nullptr, int WakeFd = -1,
                 const std::function<bool()> &OnWake = nullptr);

/// The transport-side accept loop shared by the daemon's Unix-socket and
/// TCP modes (and by tests/bench driving a real TCP loopback): polls any
/// number of listening fds plus an optional wake pipe, accepts
/// connections, and drives serveStream on a detached reader thread per
/// connection. Returns after a drain: stop accepting, EOF every open
/// stream (write sides stay open), wait for readers, then
/// `Server::stop()` — every accepted request is answered.
struct AcceptLoopOptions {
  size_t MaxRequestBytes = kDefaultMaxRequestBytes;
  /// SO_SNDTIMEO per connection: after this much write backpressure
  /// from a client that stopped reading, its response is dropped and
  /// serving continues (0 = no timeout).
  int SendTimeoutSeconds = 30;
  /// Optional self-pipe polled alongside the listeners.
  int WakeFd = -1;
  /// Invoked (on the accept thread) whenever WakeFd becomes readable —
  /// the daemon drains the pipe and handles SIGHUP here. Return true to
  /// begin the drain and leave the loop.
  std::function<bool()> OnWake;
  /// Invoked when the drain begins, before open streams are EOF'd; the
  /// caller closes its listeners here so no connection can slip in
  /// between "stop accepting" and "drained".
  std::function<void()> OnDrainStart;
};
void acceptLoop(const std::vector<int> &ListenFds, Server &S,
                const AcceptLoopOptions &O);

} // namespace serve
} // namespace typilus

#endif // TYPILUS_SERVE_SERVER_H
