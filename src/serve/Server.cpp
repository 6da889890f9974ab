//===- serve/Server.cpp - Batched request pipeline -----------------------------===//

#include "serve/Server.h"

#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cerrno>
#include <exception>
#include <utility>

#include <poll.h>
#include <sys/socket.h>

using namespace typilus;
using namespace typilus::serve;

Server::Server(Predictor &P, TypeUniverse &U, ServerOptions O)
    : Pred(&P), U(&U), Opts(std::move(O)) {
  if (Opts.MaxBatch < 1)
    Opts.MaxBatch = 1;
  if (Opts.CacheEntries < 0)
    Opts.CacheEntries = 0;
  if (Opts.MaxQueue < 0)
    Opts.MaxQueue = 0;
  // predictSources resolves the universe through the predictor; a
  // live-model predictor needs to be pointed at the caller's.
  P.setUniverse(U);
  // One worker per way of the pool: more batches in flight than that
  // would only contend for the same cores.
  int NumWorkers = std::max(1, globalNumThreads());
  try {
    for (int I = 0; I != NumWorkers; ++I)
      Workers.emplace_back([this] { workerLoop(); });
    Dispatcher = std::thread([this] { dispatchLoop(); });
  } catch (...) {
    // Thread creation failed: the workers already started must join
    // before the members they use go away.
    {
      std::lock_guard<std::mutex> L(Mu);
      WorkersQuit = true;
    }
    WorkCV.notify_all();
    for (std::thread &W : Workers)
      W.join();
    throw;
  }
}

Server::~Server() { stop(); }

bool Server::submit(Request R, Respond Fn) {
  int64_t Id = R.Id;
  bool Shed = false;
  {
    std::lock_guard<std::mutex> L(Mu);
    if (Stopping)
      return false;
    if (Opts.MaxQueue > 0 && R.M == Method::Predict &&
        Queue.size() >= static_cast<size_t>(Opts.MaxQueue)) {
      // Load shedding: answering now (on the submit thread) keeps the
      // connection usable and the dispatcher untouched; control
      // requests always pass so an overloaded daemon stays observable
      // and drainable.
      Stats.Overloaded += 1;
      Shed = true;
    } else {
      Queue.push_back(Pending{std::move(R), std::move(Fn), Clock::now()});
    }
  }
  if (Shed) {
    Fn(overloadedResponse(Id, Opts.MaxQueue));
    return true;
  }
  WakeCV.notify_one();
  return true;
}

void Server::stop() {
  // Exactly one caller claims the dispatcher thread; racing callers
  // return once Stopping is set (the claimant does the drain+join).
  std::thread ToJoin;
  {
    std::lock_guard<std::mutex> L(Mu);
    Stopping = true;
    if (Dispatcher.joinable())
      ToJoin = std::move(Dispatcher);
  }
  WakeCV.notify_all();
  if (ToJoin.joinable())
    ToJoin.join();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return Stats;
}

void Server::dispatchLoop() {
  std::unique_lock<std::mutex> L(Mu);
  for (;;) {
    // Wake for the oldest batch finishing, or for a queued request that
    // may start: a predict while an in-flight slot is free, a control
    // request (a barrier) once every earlier batch has been released.
    WakeCV.wait(L, [this] {
      if (!Flight.empty() && Flight.front()->Done)
        return true;
      if (!Queue.empty())
        return Queue.front().R.M == Method::Predict
                   ? Flight.size() < Workers.size()
                   : Flight.empty();
      return Stopping && Flight.empty();
    });
    if (!Flight.empty() && Flight.front()->Done) {
      std::shared_ptr<Batch> B = std::move(Flight.front());
      Flight.pop_front();
      L.unlock();
      release(*B);
      L.lock();
      continue;
    }
    if (Queue.empty())
      break; // stopping, and fully drained
    if (Queue.front().R.M != Method::Predict) {
      Pending P = std::move(Queue.front());
      Queue.pop_front();
      L.unlock();
      serveControl(P);
      L.lock();
      continue;
    }
    // Coalesce the run of consecutive predicts at the queue front; a
    // control request ends the run and waits for it to be released.
    std::vector<Pending> Run;
    while (!Queue.empty() && Queue.front().R.M == Method::Predict &&
           Run.size() < static_cast<size_t>(Opts.MaxBatch)) {
      Run.push_back(std::move(Queue.front()));
      Queue.pop_front();
    }
    L.unlock();
    std::shared_ptr<Batch> B = admit(std::move(Run));
    L.lock();
    Flight.push_back(B);
    Stats.MaxInFlight =
        std::max(Stats.MaxInFlight, static_cast<uint64_t>(Flight.size()));
    if (B->Miss.empty()) {
      B->Done = true; // answered by ready and earlier-batch entries alone
    } else {
      Work.push_back(std::move(B));
      WorkCV.notify_one();
    }
  }
  WorkersQuit = true;
  L.unlock();
  WorkCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void Server::workerLoop() {
  std::unique_lock<std::mutex> L(Mu);
  for (;;) {
    WorkCV.wait(L, [this] { return WorkersQuit || !Work.empty(); });
    if (Work.empty())
      return; // quitting; the dispatcher drained every batch first
    std::shared_ptr<Batch> B = std::move(Work.front());
    Work.pop_front();
    L.unlock();
    predict(*B);
    L.lock();
    B->Done = true;
    WakeCV.notify_one();
  }
}

void Server::serveControl(Pending &P) {
  switch (P.R.M) {
  case Method::Predict:
    return; // batched through admit/release, never dispatched here
  case Method::Ping:
    P.Fn(pongResponse(P.R.Id));
    return;
  case Method::Stats: {
    // Snapshot and (optionally) reset under one lock so a concurrent
    // submit-side Overloaded bump lands in exactly one window.
    ServerStats Snapshot;
    {
      std::lock_guard<std::mutex> L(Mu);
      Snapshot = Stats;
      if (P.R.Reset)
        Stats = ServerStats();
    }
    P.Fn(statsResponse(P.R.Id, Snapshot));
    return;
  }
  case Method::Reload:
    serveReload(P);
    return;
  case Method::Shutdown: {
    P.Fn(shutdownResponse(P.R.Id));
    // Copy: the callback may destroy transport state the Pending holds.
    std::function<void()> Hook = Opts.OnShutdown;
    if (Hook)
      Hook();
    return;
  }
  }
}

void Server::serveReload(Pending &P) {
  if (!Opts.OnReload) {
    P.Fn(errorResponse(P.R.Id, "reload is not enabled on this server"));
    return;
  }
  std::string Err;
  std::shared_ptr<Predictor> NewP = Opts.OnReload(&Err);
  if (!NewP) {
    P.Fn(errorResponse(P.R.Id, "reload failed: " +
                                   (Err.empty() ? "unknown error" : Err)));
    return;
  }
  if (!NewP->universe()) {
    P.Fn(errorResponse(
        P.R.Id, "reload failed: the new predictor does not own a universe"));
    return;
  }
  // The swap and the table clear are one atomic step as far as
  // prediction is concerned: both happen here, with no batch in flight
  // (control requests are barriers, so no entry is pending), on the only
  // thread that reads them; a batch captures its predictor at admission.
  // Requests queued behind this one are answered from the new artifact;
  // requests served before it were answered (and cached) from the old
  // one, and those entries are gone.
  Pred = NewP.get();
  U = NewP->universe();
  OwnedPred = std::move(NewP);
  Table.clear();
  Lru.clear();
  {
    std::lock_guard<std::mutex> L(Mu);
    Stats.Reloads += 1;
  }
  P.Fn(reloadResponse(P.R.Id));
}

//===----------------------------------------------------------------------===//
// The prediction table (dispatcher-only, so lock-free)
//===----------------------------------------------------------------------===//

namespace {

/// `path + '\0' + FNV-1a(source)`: the path *and* the exact bytes, so an
/// edited file never finds its stale entry.
std::string tableKey(const Request &R) {
  // FNV-1a, the same construction predictionDigest and corpus/Dedup use.
  uint64_t H = 1469598103934665603ull;
  for (char C : R.Source)
    H = (H ^ static_cast<unsigned char>(C)) * 1099511628211ull;
  std::string K = R.Path;
  K.push_back('\0');
  K.append(reinterpret_cast<const char *>(&H), sizeof(H));
  return K;
}

} // namespace

std::shared_ptr<Server::Batch> Server::admit(std::vector<Pending> Reqs) {
  auto B = std::make_shared<Batch>();
  B->Reqs = std::move(Reqs);
  B->P = Pred;
  ++Admitted;
  // Per-request timing: queue wait ends when the batch is admitted; the
  // prediction clock runs from here until its responses are written.
  B->Dispatched = Clock::now();
  B->EntryOf.reserve(B->Reqs.size());
  for (size_t I = 0; I != B->Reqs.size(); ++I) {
    uint64_t WaitUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            B->Dispatched - B->Reqs[I].Enqueued)
            .count());
    B->QueueTotalUs += WaitUs;
    B->QueueMaxUs = std::max(B->QueueMaxUs, WaitUs);

    // A ready entry is a hit (counted once per batch); a pending one is
    // shared — a fleet of clients asking about one file, the CI smoke's
    // exact shape, costs one prediction — and a new key is this batch's
    // to predict. Every request still gets its own response under its
    // own id.
    std::string Key = tableKey(B->Reqs[I].R);
    auto It = Table.find(Key);
    if (It == Table.end()) {
      auto E = std::make_shared<Entry>();
      E->Key = std::move(Key);
      std::string_view View = E->Key;
      It = Table.emplace(View, std::move(E)).first;
      B->Miss.push_back(I);
    } else if (It->second->Preds && It->second->SeenBy != Admitted) {
      ++B->Hits;
      Lru.splice(Lru.begin(), Lru, It->second->LruPos);
    }
    It->second->SeenBy = Admitted;
    B->EntryOf.push_back(It->second);
  }
  if (Opts.CacheEntries == 0)
    Table.clear(); // no cache, no join: the next batch starts afresh
  return B;
}

void Server::predict(Batch &B) {
  try {
    std::vector<CorpusFile> Sources;
    Sources.reserve(B.Miss.size());
    for (size_t I : B.Miss)
      Sources.push_back(CorpusFile{B.Reqs[I].R.Path, B.Reqs[I].R.Source});
    // The shared in-memory-source entry point: the CLI's --source and
    // the LSP go through the same call, so their digests match the
    // daemon's by construction.
    B.Fresh = B.P->predictSources(Sources, &B.Timing);
  } catch (const std::exception &E) {
    B.Err = E.what();
  } catch (...) {
    B.Err = "unknown prediction failure";
  }
}

void Server::release(Batch &B) {
  bool CacheOn = Opts.CacheEntries > 0;
  // Settle the entries this batch predicted. A file the parser rejected
  // fails alone; only an unexpected failure fails the whole batch.
  // Successes are cached; failures leave the table, so the next request
  // for them predicts again.
  for (size_t K = 0; K != B.Miss.size(); ++K) {
    const std::shared_ptr<Entry> &E = B.EntryOf[B.Miss[K]];
    if (!B.Err.empty())
      E->Err = B.Err;
    else if (!B.Fresh[K].Err.empty())
      E->Err = std::move(B.Fresh[K].Err);
    else
      E->Preds = std::move(B.Fresh[K].Preds);
    if (!CacheOn)
      continue;
    if (E->Preds) {
      Lru.push_front(E);
      E->LruPos = Lru.begin();
    } else {
      Table.erase(E->Key);
    }
  }
  uint64_t Evictions = 0;
  while (Lru.size() > static_cast<size_t>(Opts.CacheEntries)) {
    Table.erase(Lru.back()->Key);
    Lru.pop_back();
    ++Evictions;
  }

  // Answer in arrival order, each request from its own entry: entries an
  // earlier batch predicts were settled by its release, which came first.
  for (size_t I = 0; I != B.Reqs.size(); ++I) {
    const Pending &P = B.Reqs[I];
    const Entry &E = *B.EntryOf[I];
    if (!E.Preds) {
      P.Fn(errorResponse(P.R.Id, "prediction failed: " + E.Err));
      continue;
    }
    int Limit = P.R.Limit >= 0 ? P.R.Limit : Opts.Limit;
    P.Fn(predictResponse(P.R.Id, P.R.Path, *E.Preds, Limit));
  }

  uint64_t PredictUs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            B.Dispatched)
          .count());
  uint64_t N = B.Reqs.size();
  std::lock_guard<std::mutex> L(Mu);
  Stats.Requests += N;
  Stats.Batches += 1;
  Stats.MaxCoalesced = std::max(Stats.MaxCoalesced, N);
  Stats.Collapsed += N - B.Hits - B.Miss.size();
  Stats.QueueWaitTotalUs += B.QueueTotalUs;
  Stats.QueueWaitMaxUs = std::max(Stats.QueueWaitMaxUs, B.QueueMaxUs);
  Stats.PredictTotalUs += PredictUs * N;
  Stats.PredictMaxUs = std::max(Stats.PredictMaxUs, PredictUs);
  Stats.EmbedTotalUs += B.Timing.EmbedMicros * N;
  Stats.KnnTotalUs += B.Timing.KnnMicros * N;
  if (CacheOn) {
    Stats.CacheHits += B.Hits;
    Stats.CacheMisses += B.Miss.size();
    Stats.CacheEvictions += Evictions;
  }
}

//===----------------------------------------------------------------------===//
// serveStream
//===----------------------------------------------------------------------===//

void serve::serveStream(int Fd, size_t MaxRequestBytes, Server &S,
                        std::function<void(std::string)> Send,
                        const std::atomic<bool> *Stop, int WakeFd,
                        const std::function<bool()> &OnWake) {
  LineReader R(Fd, MaxRequestBytes, WakeFd);
  std::string Line;
  for (;;) {
    LineReader::Status St = R.next(Line);
    if (St == LineReader::Status::Eof || St == LineReader::Status::Error)
      return;
    if (St == LineReader::Status::Interrupted) {
      if (Stop && Stop->load())
        return;
      // The wake hook drains whatever woke us (the daemon's self-pipe:
      // a SIGHUP reload lands here in stdio mode) — without it a
      // readable WakeFd would spin this loop.
      if (OnWake && OnWake())
        return;
      continue;
    }
    if (St == LineReader::Status::TooLong) {
      Send(errorResponse(-1, "request exceeds " +
                                 std::to_string(MaxRequestBytes) +
                                 " bytes and was discarded"));
      continue;
    }
    if (Line.empty())
      continue;
    Request Req;
    std::string Err;
    if (!parseRequest(Line, Req, &Err)) {
      Send(errorResponse(Req.Id, Err));
      continue;
    }
    int64_t Id = Req.Id;
    bool WasShutdown = Req.M == Method::Shutdown;
    if (!S.submit(std::move(Req), Send)) {
      Send(errorResponse(Id, "server is shutting down"));
      return;
    }
    // The drain (and this stream's teardown) starts once the dispatcher
    // reaches the shutdown request; reading further would race it.
    if (WasShutdown)
      return;
  }
}

//===----------------------------------------------------------------------===//
// acceptLoop (shared by the daemon's Unix and TCP transports and by the
// TCP-loopback tests/bench)
//===----------------------------------------------------------------------===//

namespace {

/// One client connection: the fd to answer on plus a write lock (the
/// reader thread answers protocol errors itself while the dispatcher
/// writes results).
struct Conn {
  FileDesc Owned;
  int Fd = -1;
  std::mutex WriteMu;
  std::atomic<bool> ReaderDone{false};
  std::atomic<bool> Dead{false};

  void send(const std::string &Line) {
    // A vanished (or SO_SNDTIMEO-expired) client is not an error worth
    // acting on: its requests still drain, their responses just go
    // nowhere. The Dead latch makes every response after the first
    // failed write drop instantly instead of re-waiting the timeout,
    // and EOFs the read side so a write-only client stops feeding the
    // queue it will never read answers from.
    if (Dead.load(std::memory_order_relaxed))
      return;
    std::lock_guard<std::mutex> L(WriteMu);
    if (Dead.load(std::memory_order_relaxed))
      return;
    if (!writeAll(Fd, Line)) {
      Dead = true;
      Owned.shutdownRead();
    }
  }
};

FileDesc acceptOn(int ListenFd) {
  for (;;) {
    int C = ::accept(ListenFd, nullptr, nullptr);
    if (C >= 0)
      return FileDesc(C);
    if (errno != EINTR)
      return FileDesc();
  }
}

} // namespace

void serve::acceptLoop(const std::vector<int> &ListenFds, Server &S,
                       const AcceptLoopOptions &O) {
  // Reader threads are detached; this counter (with its cv) is how the
  // drain waits for all of them, and dead connections are pruned on each
  // accept so a long-lived daemon's memory does not grow with its
  // connection history.
  std::mutex ConnsMu;
  std::condition_variable ReapCV;
  int ActiveReaders = 0;
  std::vector<std::shared_ptr<Conn>> Conns;

  std::vector<pollfd> Fds;
  Fds.reserve(ListenFds.size() + 1);
  for (int L : ListenFds)
    Fds.push_back(pollfd{L, POLLIN, 0});
  if (O.WakeFd >= 0)
    Fds.push_back(pollfd{O.WakeFd, POLLIN, 0});

  bool Accepting = true;
  while (Accepting) {
    for (pollfd &P : Fds)
      P.revents = 0;
    int N = ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()), -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (O.WakeFd >= 0 && Fds.back().revents) {
      // The wake hook owns the pipe: it drains it and decides whether
      // this was a drain signal (true) or e.g. a reload (false).
      if (!O.OnWake || O.OnWake())
        break;
    }
    size_t Alive = 0;
    for (size_t I = 0; I != ListenFds.size(); ++I) {
      if (Fds[I].fd < 0)
        continue;
      ++Alive;
      if (!Fds[I].revents)
        continue;
      FileDesc C = acceptOn(Fds[I].fd);
      if (!C.valid()) {
        // Transient accept failures (aborted handshake, fd pressure)
        // retry on the next readiness; a dead listener is dropped from
        // the poll set so it cannot spin the loop.
        if (errno == ECONNABORTED || errno == EMFILE || errno == ENFILE ||
            errno == ENOMEM || errno == EAGAIN || errno == EWOULDBLOCK)
          continue;
        Fds[I].fd = -1;
        --Alive;
        continue;
      }
      auto Shared = std::make_shared<Conn>();
      Shared->Owned = std::move(C);
      Shared->Fd = Shared->Owned.fd();
      // A client that stops reading must not stall the dispatcher (or
      // the drain) behind a full socket buffer: after this much
      // back-pressure its response write fails and is dropped.
      if (O.SendTimeoutSeconds > 0)
        setSendTimeout(Shared->Fd, O.SendTimeoutSeconds);
      setTcpNoDelay(Shared->Fd); // no-op on Unix-domain connections
      {
        std::lock_guard<std::mutex> G(ConnsMu);
        // Prune connections whose reader finished and whose responses
        // all went out (ours is then the only reference left).
        Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                                   [](const std::shared_ptr<Conn> &P) {
                                     return P->ReaderDone.load() &&
                                            P.use_count() == 1;
                                   }),
                    Conns.end());
        Conns.push_back(Shared);
        ++ActiveReaders;
      }
      size_t MaxBytes = O.MaxRequestBytes;
      std::thread([Shared, &S, MaxBytes, &ConnsMu, &ReapCV, &ActiveReaders] {
        serveStream(Shared->Fd, MaxBytes, S,
                    [Shared](std::string Resp) { Shared->send(Resp); });
        Shared->ReaderDone = true;
        {
          // Notify under the lock: the drain destroys the cv right
          // after its wait returns, so the notify must complete before
          // this thread releases the mutex that wakes it.
          std::lock_guard<std::mutex> G(ConnsMu);
          --ActiveReaders;
          ReapCV.notify_all();
        }
      }).detach();
    }
    if (Alive == 0 && !ListenFds.empty())
      break; // every listener died; nothing left to accept
  }

  // Drain-first shutdown: the caller closes its listeners in
  // OnDrainStart (no new connections), we EOF the readers (write sides
  // stay open for in-flight responses), wait for them to finish
  // submitting, then finish the queue.
  if (O.OnDrainStart)
    O.OnDrainStart();
  {
    std::unique_lock<std::mutex> G(ConnsMu);
    for (auto &C : Conns)
      C->Owned.shutdownRead();
    ReapCV.wait(G, [&] { return ActiveReaders == 0; });
  }
  S.stop();
}
