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
/// the whole batch.
///
/// Ownership is split in two. The dispatcher is the only thread that
/// pops the queue, owns the prediction table, swaps the predictor on
/// reload and writes responses. A small set of batch workers owned by
/// the server runs only the prediction itself, so up to
/// globalNumThreads() batches are in flight at once. Finished batches
/// return to the dispatcher, which releases them strictly in arrival
/// order. Responses are therefore bit-identical to single-shot
/// prediction, and in the same order, for any thread count and any
/// batch composition; only the overlap changes.
///
/// The **prediction table** is how no work is done twice. It maps
/// `path + '\0' + FNV-1a(source)` to an entry that is either *pending*
/// (a batch in flight predicts it) or *ready* (its shared predictions).
/// At admission each request looks its key up: a ready entry is a cache
/// hit, a pending one — made by an earlier request of this batch or by
/// an earlier batch still in flight — is answered from that prediction,
/// and a missing key becomes a pending entry this batch predicts. At
/// release the batch settles its entries (a file the parser rejected
/// fails alone, and failures are never kept), the new ready entries
/// join an LRU bounded by ServerOptions::CacheEntries, and every request
/// is answered from its own entry — a hit is byte-identical to the miss
/// that filled it. With the cache off an entry lives only until its
/// batch is admitted, so only duplicates within one batch share.
///
/// Two more production behaviors ride the same dispatcher, so they stay
/// lock-free and totally ordered with prediction:
///
///  - **hot reload**: a `reload` request (or SIGHUP in the daemon)
///    swaps in a freshly loaded Predictor through ServerOptions::
///    OnReload. Because reload rides the request queue and, like every
///    control request, runs only once every earlier batch has been
///    released, requests enqueued before it are answered from the old
///    artifact and requests after it from the new one — never a mix —
///    and the table is cleared in the same step;
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

#include "serve/Protocol.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
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
  /// cache and the join across in-flight batches: every batch predicts
  /// each distinct file it holds, duplicates within one batch still
  /// sharing one prediction (what the bench's batching comparison
  /// measures).
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

  struct Pending {
    Request R;
    Respond Fn;
    /// Submit time; queue wait (submit -> batch dispatch) feeds the
    /// per-request timing the `stats` method reports.
    Clock::time_point Enqueued;
  };

  /// One row of the prediction table: pending until the release of the
  /// batch predicting it, then ready. Shared by the table, the LRU and
  /// every batch that admitted a request for it, so an eviction mid-batch
  /// changes nothing.
  struct Entry {
    std::string Key; ///< path + '\0' + FNV-1a(source), raw bytes.
    /// Ready: the file's predictions, or none when it failed (then Err
    /// says why; failed entries leave the table at once).
    std::optional<std::vector<PredictionResult>> Preds;
    std::string Err;
    uint64_t SeenBy = 0; ///< Number of the last batch that looked it up.
    std::list<std::shared_ptr<Entry>>::iterator LruPos; ///< While cached.
  };

  /// One coalesced predict batch from admission to release. The
  /// dispatcher fills everything but the worker outputs; a worker
  /// predicts the Miss requests and sets Done.
  struct Batch {
    std::vector<Pending> Reqs;
    std::vector<std::shared_ptr<Entry>> EntryOf; ///< Request -> entry.
    std::vector<size_t> Miss; ///< Requests whose new entry this batch
                              ///< predicts, one per key.
    uint64_t Hits = 0;        ///< Ready entries found, one per key.
    Predictor *P = nullptr;   ///< The predictor active at admission.
    Clock::time_point Dispatched;
    uint64_t QueueTotalUs = 0, QueueMaxUs = 0;
    // Worker outputs, read by the dispatcher once Done is set.
    std::vector<SourcePrediction> Fresh; ///< Per Miss request.
    PredictTiming Timing;
    std::string Err; ///< Why the whole prediction failed ("" = it did not).
    bool Done = false; ///< Guarded by Mu.
  };

  void dispatchLoop();
  void workerLoop();
  /// Answers a ping/stats/reload/shutdown request. Dispatcher-only.
  void serveControl(Pending &P);
  void serveReload(Pending &P);
  /// Looks every request up in the table and adds the keys this batch
  /// will predict. Dispatcher-only.
  std::shared_ptr<Batch> admit(std::vector<Pending> Reqs);
  /// The worker's share: predicts B's Miss requests. Touches nothing else.
  static void predict(Batch &B);
  /// Settles B's entries, answers every request in arrival order and
  /// updates the stats. Dispatcher-only.
  void release(Batch &B);

  // The artifact being served. Plain pointers (not refs) because reload
  // swaps them; OwnedPred keeps a reloaded predictor (and the universe
  // it owns) alive until the next swap. Dispatcher-only after
  // construction.
  Predictor *Pred;
  TypeUniverse *U;
  std::shared_ptr<Predictor> OwnedPred;
  ServerOptions Opts;

  // The prediction table (key views point into each Entry's Key), its
  // ready entries most recent first, and the admitted batches, oldest
  // first. Dispatcher-only, so no lock.
  std::unordered_map<std::string_view, std::shared_ptr<Entry>> Table;
  std::list<std::shared_ptr<Entry>> Lru;
  std::deque<std::shared_ptr<Batch>> Flight;
  uint64_t Admitted = 0; ///< Batches admitted so far.

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
