//===- perfbench/src/Serve.cpp - The `serve` workload ---------------------===//
///
/// The cache-miss request path of the serving daemon: typilus_serve's
/// Server + acceptLoop over TCP loopback with default ServerOptions and a
/// 2-thread pool, driven by 2 closed-loop connections (daemon clients
/// each wait for their reply). Every request is a distinct synthetic file
/// from a seed disjoint from the artifact's corpus, so the traffic itself
/// bypasses the response cache.
///
/// Correctness: every response digest must equal Predictor::predictSource
/// on the same artifact, computed in-process after the timed phase.
///
/// Traced run: the same TCP phase (client spans, server queue/batch/cache
/// counters), then an outside-in mirror of the request path through the
/// public functions — parseRequest, parseFile + buildSymbolTable,
/// buildGraph, resolveTargets, predictBatch (embed / probe split from its
/// counters), predictResponse — once untraced and once traced.
///
//===----------------------------------------------------------------------===//

#include "Helpers.h"
#include "Workloads.h"

#include "corpus/Dataset.h"
#include "graph/Graph.h"
#include "pyfront/Parser.h"
#include "pyfront/SymbolTable.h"
#include "serve/Server.h"
#include "support/Json.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <unistd.h>

using namespace perfbench;
using namespace typilus;

namespace {

/// Measured requests per --seconds second. Sized so one run of the
/// default length gives well over the 1000 samples a p99 needs.
constexpr size_t kRequestsPerSecond = 110;
constexpr size_t kWarmupPerConnection = 20;
constexpr int kConnections = 2;
constexpr int kDaemonThreads = 2;
constexpr int kVerifyThreads = 4;

std::string requestLine(int64_t Id, const CorpusFile &F) {
  return "{\"id\":" + std::to_string(Id) +
         ",\"method\":\"predict\",\"path\":" + json::quoted(F.Path) +
         ",\"source\":" + json::quoted(F.Source) + "}\n";
}

/// Reply of one measured request.
struct Reply {
  int64_t LatencyNs = 0;
  int64_t EndNs = 0;
  std::string Line; ///< Empty when the connection failed.
};

/// Two-phase start line for the load generator: every connection finishes
/// its warm-up before any measured request is sent.
class StartGate {
public:
  explicit StartGate(int N) : Waiting(N) {}
  void arriveAndWait() {
    std::unique_lock<std::mutex> L(Mu);
    if (--Waiting == 0) {
      GoNs = nowNs();
      CV.notify_all();
    }
    CV.wait(L, [this] { return Waiting == 0; });
  }
  int64_t goNs() const { return GoNs; }

private:
  std::mutex Mu;
  std::condition_variable CV;
  int Waiting;
  int64_t GoNs = 0;
};

struct TcpPhase {
  std::vector<Reply> Replies; ///< Index-aligned with the requests.
  int64_t StartNs = 0;
  serve::ServerStats Stats;
  Recorder ClientSpans{true};
};

/// Runs the closed loop against a real loopback daemon.
TcpPhase runTcp(Predictor &P, const std::vector<std::string> &Lines,
                const std::vector<std::string> &WarmLines, bool Trace) {
  TcpPhase Out;
  Out.Replies.resize(Lines.size());
  serve::Server S(P, *P.universe()); // default ServerOptions
  int Wake[2];
  if (::pipe(Wake) != 0)
    throw std::runtime_error("pipe failed");
  TcpListener TL;
  std::string Err;
  if (!TL.listenOn("127.0.0.1", 0, &Err))
    throw std::runtime_error(Err);
  serve::AcceptLoopOptions AO;
  AO.WakeFd = Wake[0];
  AO.OnWake = [&Wake] {
    char B[8];
    (void)!::read(Wake[0], B, sizeof(B));
    return true;
  };
  AO.OnDrainStart = [&TL] { TL.close(); };
  int ListenFd = TL.fd();
  std::thread Loop([&S, ListenFd, &AO] { acceptLoop({ListenFd}, S, AO); });
  uint16_t Port = TL.port();

  StartGate Gate(kConnections);
  std::vector<Recorder> Recs(kConnections);
  std::vector<std::thread> Clients;
  for (int C = 0; C != kConnections; ++C)
    Clients.emplace_back([&, C] {
      Recorder &Rec = Recs[static_cast<size_t>(C)];
      Rec.setEnabled(Trace);
      Rec.setLane(C + 1);
      FileDesc Fd;
      std::string E;
      bool Up = connectTcp("127.0.0.1", Port, Fd, &E);
      if (Up)
        setTcpNoDelay(Fd.fd());
      LineReader R(Fd.fd(), 256u << 20);
      auto RoundTrip = [&](const std::string &Line, std::string &Resp) {
        if (!Up || !writeAll(Fd.fd(), Line))
          return Up = false;
        LineReader::Status St;
        do
          St = R.next(Resp);
        while (St == LineReader::Status::Interrupted);
        return Up = St == LineReader::Status::Line;
      };
      std::string Resp;
      for (size_t I = static_cast<size_t>(C); I < WarmLines.size();
           I += kConnections)
        RoundTrip(WarmLines[I], Resp);
      Gate.arriveAndWait();
      for (size_t I = static_cast<size_t>(C); I < Lines.size();
           I += kConnections) {
        Reply &Rp = Out.Replies[I];
        ScopedSpan Sp(Rec, "client.request", static_cast<int64_t>(I));
        int64_t T0 = nowNs();
        bool Ok = RoundTrip(Lines[I], Rp.Line);
        Rp.EndNs = nowNs();
        Rp.LatencyNs = Rp.EndNs - T0;
        if (!Ok)
          Rp.Line.clear();
      }
    });
  for (std::thread &T : Clients)
    T.join();
  Out.StartNs = Gate.goNs();

  char B = 1;
  (void)!::write(Wake[1], &B, 1);
  Loop.join(); // drains, then stops the server
  ::close(Wake[0]);
  ::close(Wake[1]);
  Out.Stats = S.stats();
  for (Recorder &R : Recs)
    Out.ClientSpans.append(R);
  return Out;
}

/// The reference digests: predictSource on fresh loads of the artifact,
/// split across threads (each with its own predictor).
std::vector<uint64_t> referenceDigests(const std::string &Artifact,
                                       const std::vector<CorpusFile> &Files,
                                       ExactMatch &Acc) {
  setGlobalNumThreads(1); // every thread runs its kernels inline
  std::vector<uint64_t> Want(Files.size());
  std::vector<std::thread> Ts;
  std::vector<std::string> Errors(kVerifyThreads);
  std::vector<ExactMatch> Accs(kVerifyThreads);
  for (int T = 0; T != kVerifyThreads; ++T)
    Ts.emplace_back([&, T] {
      std::string Err;
      std::unique_ptr<Predictor> P = Predictor::load(Artifact, &Err);
      if (!P) {
        Errors[static_cast<size_t>(T)] = Err;
        return;
      }
      for (size_t I = static_cast<size_t>(T); I < Files.size();
           I += kVerifyThreads) {
        std::vector<PredictionResult> Preds =
            P->predictSource(Files[I].Path, Files[I].Source);
        Want[I] = predictionDigest(Preds);
        Accs[static_cast<size_t>(T)].add(Preds);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  for (const std::string &E : Errors)
    if (!E.empty())
      throw std::runtime_error("cannot load artifact: " + E);
  for (const ExactMatch &A : Accs) {
    Acc.Known += A.Known;
    Acc.Hit += A.Hit;
  }
  return Want;
}

struct MirrorStats {
  double WallS = 0;
  std::vector<uint64_t> Digests;
  std::vector<double> Tokens, Nodes, Edges;
};

/// The request path, outside-in, one request at a time.
MirrorStats mirror(Predictor &P, const std::vector<std::string> &Lines,
                   Recorder &Rec) {
  MirrorStats M;
  TypeUniverse &U = *P.universe();
  int64_t T0 = nowNs();
  for (size_t I = 0; I != Lines.size(); ++I) {
    int64_t Rid = static_cast<int64_t>(I);
    ScopedSpan Root(Rec, "serve.request", Rid);
    serve::Request Req;
    {
      ScopedSpan S(Rec, "support.json", Rid);
      std::string Err;
      std::string_view L(Lines[I]);
      L.remove_suffix(1); // the newline the transport strips
      if (!serve::parseRequest(L, Req, &Err))
        throw std::runtime_error("mirror: " + Err);
    }
    ParsedFile PF;
    SymbolTable ST;
    {
      ScopedSpan S(Rec, "pyfront.parse", Rid);
      PF = parseFile(Req.Path, Req.Source);
      buildSymbolTable(PF, ST);
    }
    FileExample Ex;
    Ex.Path = Req.Path;
    {
      ScopedSpan S(Rec, "graph.build", Rid);
      Ex.Graph = buildGraph(PF, ST, {});
    }
    {
      ScopedSpan S(Rec, "corpus.resolve", Rid);
      resolveTargets(Ex, U);
    }
    std::vector<std::vector<PredictionResult>> Out;
    {
      CounterSpan S(Rec, P, "core.predictBatch", Rid);
      Out = P.predictBatch({&Ex});
    }
    {
      ScopedSpan S(Rec, "support.json", Rid);
      std::string Resp =
          serve::predictResponse(Req.Id, Req.Path, Out.front(), Req.Limit);
      if (Resp.empty())
        throw std::runtime_error("mirror: empty response");
    }
    M.Digests.push_back(predictionDigest(Out.front()));
    M.Tokens.push_back(static_cast<double>(PF.Tokens.size()));
    M.Nodes.push_back(static_cast<double>(Ex.Graph.numNodes()));
    M.Edges.push_back(static_cast<double>(Ex.Graph.numEdges()));
  }
  M.WallS = secondsBetween(T0, nowNs());
  return M;
}

/// Digest field of a predict response line ("" when absent or not ok).
std::string replyDigest(const std::string &Line) {
  json::Value V;
  std::string Err;
  if (Line.empty() || !json::parse(Line, V, &Err) || !V.getBool("ok", false))
    return "";
  return V.getString("digest", "");
}

} // namespace

RunResult perfbench::runServe(const RunOptions &O) {
  RunResult Res;
  size_t N = kRequestsPerSecond * static_cast<size_t>(O.Seconds);
  // One draw from the pool: the warm-up files first, then the measured
  // requests, all distinct.
  size_t NumWarm = kWarmupPerConnection * kConnections;
  std::vector<CorpusFile> Reqs =
      makeSourceFiles(deriveSeed(O.Seed, 10), NumWarm + N, "/req");
  std::vector<CorpusFile> Warm(Reqs.begin(),
                               Reqs.begin() + static_cast<long>(NumWarm));
  Reqs.erase(Reqs.begin(), Reqs.begin() + static_cast<long>(NumWarm));
  std::vector<std::string> Lines, WarmLines;
  for (size_t I = 0; I != Reqs.size(); ++I)
    Lines.push_back(requestLine(static_cast<int64_t>(I), Reqs[I]));
  for (size_t I = 0; I != Warm.size(); ++I)
    WarmLines.push_back(requestLine(-1 - static_cast<int64_t>(I), Warm[I]));

  // Set-up: the daemon's artifact load, median of repeated loads.
  std::unique_ptr<Predictor> P;
  double LoadS = medianLoadSeconds(O.Artifact, 7, P);
  setGlobalNumThreads(kDaemonThreads);

  TcpPhase Tcp = runTcp(*P, Lines, WarmLines, O.Trace);
  // Before the verification below loads predictors of its own.
  Res.EndToEnd["peak_rss_mb"] = peakRssMb();
  std::vector<std::string> Got;
  for (const Reply &R : Tcp.Replies)
    Got.push_back(replyDigest(R.Line));
  // Latencies in completion order, for the block estimates.
  std::vector<const Reply *> Done;
  for (const Reply &R : Tcp.Replies)
    Done.push_back(&R);
  std::sort(Done.begin(), Done.end(), [](const Reply *A, const Reply *B) {
    return A->EndNs < B->EndNs;
  });
  std::vector<double> LatMs;
  std::vector<int64_t> EndNs;
  for (const Reply *R : Done) {
    LatMs.push_back(static_cast<double>(R->LatencyNs) / 1e6);
    EndNs.push_back(R->EndNs);
  }
  Res.Attempted = N;

  double P99 = supportedPercentile(LatMs.size(), 99);
  std::fprintf(stderr,
               "serve: %zu requests, p50 over %zu samples, p%.2f reported "
               "as latency_p99_ms\n",
               N, LatMs.size(), P99);
  Res.EndToEnd["setup_s"] = LoadS;
  Res.EndToEnd["latency_p50_ms"] = medianOfBlockMedians(LatMs, kTimingBlocks);
  Res.EndToEnd["latency_p99_ms"] = percentile(LatMs, P99);
  Res.EndToEnd["throughput_per_s"] = medianBlockRate(
      EndNs, std::vector<double>(N, 1.0), Tcp.StartNs, kTimingBlocks);

  const serve::ServerStats &St = Tcp.Stats;
  double Served = static_cast<double>(std::max<uint64_t>(1, St.Requests));
  std::fprintf(stderr,
               "serve: %llu requests in %llu batches, queue wait %.0f us, "
               "service %.0f us per request\n",
               static_cast<unsigned long long>(St.Requests),
               static_cast<unsigned long long>(St.Batches),
               static_cast<double>(St.QueueWaitTotalUs) / Served,
               static_cast<double>(St.PredictTotalUs) / Served);
  auto &L = Res.PerLayer;
  L["serve.queue_wait_us"] = static_cast<double>(St.QueueWaitTotalUs) / Served;
  L["serve.service_us"] = static_cast<double>(St.PredictTotalUs) / Served;
  L["serve.batch_size"] =
      Served / static_cast<double>(std::max<uint64_t>(1, St.Batches));
  L["serve.cache_hits"] = static_cast<double>(St.CacheHits);
  L["serve.repeat_share"] = repeatedShare(Reqs);
  std::fprintf(stderr, "serve: repeated-request share %g, cache hits %llu\n",
               L["serve.repeat_share"],
               static_cast<unsigned long long>(St.CacheHits));
  // The workload is the cache-miss path: a hit means it no longer is.
  Res.Failed += St.CacheHits;
  L["knn.markers"] = static_cast<double>(P->typeMap().size());
  L["knn.dead_rows"] = static_cast<double>(P->typeMap().deadMarkers());
  L["core.load_ms"] = LoadS * 1e3;

  std::vector<uint64_t> Want;
  if (!O.Trace) {
    ExactMatch Acc;
    Want = referenceDigests(O.Artifact, Reqs, Acc);
    Res.EndToEnd["accuracy_pct"] = Acc.pct();
  } else {
    // The mirror on its own load of the artifact, at the daemon's pool
    // size; untraced first (also the reference digests), then traced.
    std::unique_ptr<Predictor> MP;
    medianLoadSeconds(O.Artifact, 1, MP);
    Recorder Off(false), On(true);
    MirrorStats Plain = mirror(*MP, Lines, Off);
    MirrorStats Traced = mirror(*MP, Lines, On);
    Want = Plain.Digests;
    if (Traced.Digests != Plain.Digests)
      throw std::runtime_error("traced mirror changed a digest");
    const std::vector<Span> &Spans = On.spans();
    std::map<std::string, double> Self =
        medianSelfUsPerTree(Spans, "serve.request");
    L["models.embed_us"] = Self["models.embed"];
    L["knn.probe_us"] = Self["knn.probe"];
    L["knn.score_us"] = Self["core.predictBatch"];
    L["pyfront.parse_us"] = Self["pyfront.parse"];
    L["graph.build_us"] = Self["graph.build"];
    L["corpus.resolve_us"] = Self["corpus.resolve"];
    L["support.json_us"] = Self["support.json"];
    L["trace.root_self_us"] = Self["serve.request"];
    L["pyfront.tokens"] = median(Traced.Tokens);
    L["graph.nodes"] = median(Traced.Nodes);
    L["graph.edges"] = median(Traced.Edges);
    L["trace.coverage_pct"] = coveragePct(Spans, "serve.request");
    L["trace.overhead_pct"] = 100.0 * (Traced.WallS - Plain.WallS) / Plain.WallS;
    Tcp.ClientSpans.append(On);
    Res.Spans = Tcp.ClientSpans.spans();
  }
  DigestReport D = compareDigests(Want, Got);
  Res.Failed += D.Mismatched;
  if (D.Mismatched)
    std::fprintf(stderr, "serve: %zu of %zu responses wrong or missing "
                         "(first: request %ld)\n",
                 D.Mismatched, D.Compared, D.FirstMismatch);
  return Res;
}
