//===- perfbench/src/Editor.cpp - The `editor` workload -------------------===//
///
/// One LspServer session, as one editor drives it: framed JSON-RPC over a
/// socketpair, `didOpen` on a 20-file workspace, then a seeded script of
/// full-sync `didChange` edits (insert a statement, rename a function,
/// revert to an earlier text so unchanged τmap rows resurrect). Each edit
/// waits for publishDiagnostics and typilus/types. Writes beside reads:
/// every edit tombstones and re-adds τmap rows, queries go through the
/// delta scan, and the checker gate and the CompactRatio policy run.
///
/// Correctness: a twin Predictor on its own load of the artifact replays
/// the same messages through annotateIncremental plus the LSP's public
/// steps (re-parse, checker gate, serialization); every typilus/types
/// digest of the session must equal the twin's. The traced run replays
/// the twin a second time with spans on.
///
//===----------------------------------------------------------------------===//

#include "Helpers.h"
#include "Workloads.h"

#include "checker/Checker.h"
#include "graph/Graph.h"
#include "lsp/LspServer.h"
#include "pyfront/Parser.h"
#include "pyfront/SymbolTable.h"
#include "support/Json.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"
#include "typesys/Hierarchy.h"

#include <cstdio>
#include <stdexcept>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace perfbench;
using namespace typilus;

namespace {

/// Measured edits per --seconds second; with the warm-up edits on top,
/// one run of the default length gives over the 1000 samples a p99 needs.
constexpr size_t kEditsPerSecond = 100;
constexpr size_t kWarmupEdits = 20;
constexpr size_t kWorkspaceFiles = 20;
constexpr int kSetupReps = 3;

std::string docUri(const CorpusFile &F) { return lsp::pathToUri(F.Path); }

std::string didOpenBody(const CorpusFile &F) {
  std::string B = "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didOpen\","
                  "\"params\":{\"textDocument\":{\"uri\":";
  json::appendQuoted(B, docUri(F));
  B += ",\"languageId\":\"python\",\"version\":0,\"text\":";
  json::appendQuoted(B, F.Source);
  return B + "}}}";
}

std::string didChangeBody(const CorpusFile &F, size_t Version,
                          const std::string &Text) {
  std::string B = "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didChange\","
                  "\"params\":{\"textDocument\":{\"uri\":";
  json::appendQuoted(B, docUri(F));
  B += ",\"version\":" + std::to_string(Version) +
       "},\"contentChanges\":[{\"text\":";
  json::appendQuoted(B, Text);
  return B + "}]}}";
}

/// Bytes of a "Content-Length: N\r\n\r\n" frame around an N-byte body.
size_t framedSize(size_t N) { return 20 + std::to_string(N).size() + N; }

/// One message of the session as the client saw it.
struct Exchange {
  int64_t LatencyNs = 0;
  int64_t EndNs = 0;
  size_t BytesIn = 0;     ///< Framed bytes the server sent back.
  std::string TypesBody;  ///< The typilus/types notification body.
};

/// The client end of the session: sends one framed message and reads
/// until the typilus/types notification that closes the edit.
class Client {
public:
  explicit Client(int Fd) : Fd(Fd), R(Fd) {}

  bool request(const std::string &Body, Exchange &X) {
    std::string Frame = lsp::frameMessage(Body);
    int64_t T0 = nowNs();
    if (!writeAll(Fd, Frame))
      return false;
    std::string In;
    while (true) {
      lsp::FrameReader::Status St = R.next(In);
      if (St == lsp::FrameReader::Status::Interrupted)
        continue;
      if (St != lsp::FrameReader::Status::Message)
        return false;
      X.BytesIn += framedSize(In.size());
      if (In.find("\"method\":\"typilus/types\"") != std::string::npos) {
        X.EndNs = nowNs();
        X.LatencyNs = X.EndNs - T0;
        X.TypesBody = std::move(In);
        return true;
      }
    }
  }

  bool send(const std::string &Body) {
    return writeAll(Fd, lsp::frameMessage(Body));
  }
  bool readOne(std::string &Out) {
    lsp::FrameReader::Status St;
    do
      St = R.next(Out);
    while (St == lsp::FrameReader::Status::Interrupted);
    return St == lsp::FrameReader::Status::Message;
  }

private:
  int Fd;
  lsp::FrameReader R;
};

/// One LSP session over a socketpair, served on its own thread as
/// LspServer::run serves a daemon's stdio or socket.
class Session {
public:
  explicit Session(Predictor &P) {
    int Sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) != 0)
      throw std::runtime_error("socketpair failed");
    ServerEnd = FileDesc(Sv[0]);
    ClientEnd = FileDesc(Sv[1]);
    C = std::make_unique<Client>(ClientEnd.fd());
    int Fd = ServerEnd.fd();
    Lsp = std::make_unique<lsp::LspServer>(
        P, [Fd](std::string Frame) { writeAll(Fd, Frame); });
    Thread = std::thread([this, Fd] { ExitCode = Lsp->run(Fd); });
  }
  ~Session() { finish(); }
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  Client &client() { return *C; }
  bool initialize() {
    std::string Reply;
    return C->send("{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":"
                   "\"initialize\",\"params\":{}}") &&
           C->readOne(Reply);
  }
  /// shutdown + exit, then joins the server thread. \returns the
  /// session's exit code (0 when shutdown preceded exit).
  int finish() {
    if (!Thread.joinable())
      return ExitCode;
    std::string Reply;
    bool Ok = C->send("{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":"
                      "\"shutdown\"}") &&
              C->readOne(Reply) &&
              C->send("{\"jsonrpc\":\"2.0\",\"method\":\"exit\"}");
    if (!Ok)
      ::shutdown(ClientEnd.fd(), SHUT_RDWR); // EOF ends the server loop
    Thread.join();
    return ExitCode;
  }

private:
  FileDesc ServerEnd, ClientEnd;
  std::unique_ptr<Client> C;
  std::unique_ptr<lsp::LspServer> Lsp;
  int ExitCode = -1;
  std::thread Thread; // last: joined before the members it uses go
};

/// The twin: the LSP's per-message work through the public functions.
struct Twin {
  explicit Twin(Predictor &P) : P(P) {}

  Predictor &P;
  std::unique_ptr<TypeHierarchy> Hierarchy;
  std::vector<uint64_t> Digests;
  size_t Compactions = 0;
  /// Per measured edit: annotateIncremental minus embed and probe (µs),
  /// and whether the edit compacted the τmap.
  std::vector<double> IncrSelfUs;
  std::vector<bool> Compacted;
  std::vector<double> Checks;
  ExactMatch Acc; ///< Over the measured edits.
  int64_t FirstMeasured = 0;

  void handle(const std::string &Body, int64_t Rid, Recorder &Rec);
};

void Twin::handle(const std::string &Body, int64_t Rid, Recorder &Rec) {
  std::string Uri, Text;
  std::vector<PredictionResult> Preds;
  ParsedFile PF;
  SymbolTable ST;
  {
    ScopedSpan Root(Rec, "lsp.handle", Rid);
    {
      ScopedSpan S(Rec, "support.json", Rid);
      json::Value V;
      std::string Err;
      if (!json::parse(Body, V, &Err))
        throw std::runtime_error("twin: " + Err);
      const json::Value *Params = V.find("params");
      const json::Value *Doc = Params ? Params->find("textDocument") : nullptr;
      if (!Doc)
        throw std::runtime_error("twin: message without a document");
      Uri = Doc->getString("uri", "");
      Text = Doc->getString("text", "");
      if (const json::Value *Ch = Params->find("contentChanges"))
        if (Ch->isArray() && !Ch->array().empty())
          Text = Ch->array().back().getString("text", "");
    }
    std::string Path = lsp::uriToPath(Uri);
    size_t Rows = P.typeMap().size();
    {
      CounterSpan S(Rec, P, "core.annotateIncremental", Rid);
      Preds = P.annotateIncremental(Path, Text);
      S.finish();
      bool Compact = P.typeMap().size() < Rows;
      Compactions += Compact;
      Compacted.push_back(Compact);
      IncrSelfUs.push_back(static_cast<double>(S.durNs()) / 1e3 -
                           static_cast<double>(S.embedUs() + S.probeUs()));
    }
    {
      ScopedSpan S(Rec, "pyfront.parse", Rid);
      PF = parseFile(Path, Text);
      buildSymbolTable(PF, ST);
    }
    // The Sec. 6.3 gate, as the LSP runs it: check the file, then
    // re-check with each confident prediction substituted.
    TypeUniverse &U = *P.universe();
    if (!Hierarchy)
      Hierarchy = std::make_unique<TypeHierarchy>(U);
    Checker Gate(U, *Hierarchy, CheckerOptions{});
    size_t NumChecks = 1;
    bool Usable;
    {
      ScopedSpan S(Rec, "checker.check", Rid);
      Usable = Gate.check(PF, ST).empty();
    }
    for (const PredictionResult &R : Preds) {
      Symbol *Sym = R.SymbolId >= 0 &&
                            static_cast<size_t>(R.SymbolId) < ST.size()
                        ? ST[static_cast<size_t>(R.SymbolId)]
                        : nullptr;
      TypeRef Top = R.top();
      if (Usable && Sym && Top && R.confidence() >= 0.5 && Top != U.any()) {
        ScopedSpan S(Rec, "checker.check", Rid);
        std::string Saved = Sym->AnnotationText;
        Sym->AnnotationText = Top->str();
        (void)Gate.check(PF, ST);
        Sym->AnnotationText = Saved;
        ++NumChecks;
      }
    }
    Checks.push_back(static_cast<double>(NumChecks));
    {
      ScopedSpan S(Rec, "lsp.serialize", Rid);
      std::string Types;
      for (const PredictionResult &R : Preds) {
        Types += "{\"symbol\":";
        json::appendQuoted(Types, R.SymbolName);
        Types += ",\"type\":";
        json::appendQuoted(Types, R.top() ? R.top()->str() : "null");
        Types += ",\"prob\":";
        json::appendNumber(Types, R.confidence());
        Types += "},";
      }
      std::string Msg = lsp::frameMessage(Types);
      if (Msg.empty())
        throw std::runtime_error("twin: empty message");
    }
  }
  Digests.push_back(predictionDigest(Preds));
  if (Rid >= FirstMeasured)
    Acc.add(Preds);
  // Outside the handle tree: the graph build annotateIncremental runs
  // internally, measured on the same parse so graph.build_us can be read
  // against the handle time (the session itself does not do this).
  ScopedSpan S(Rec, "graph.build", Rid);
  TypilusGraph G = buildGraph(PF, ST, {});
  if (G.numNodes() == 0)
    throw std::runtime_error("twin: empty graph");
}

/// Replays the session's messages on a fresh load of the artifact.
/// \returns the replay's wall time in seconds.
double replay(const std::string &Artifact,
              const std::vector<std::string> &Bodies, size_t FirstMeasured,
              Recorder &Rec, std::unique_ptr<Predictor> &Keep,
              std::unique_ptr<Twin> &Out) {
  medianLoadSeconds(Artifact, 1, Keep);
  Out = std::make_unique<Twin>(*Keep);
  Out->FirstMeasured = static_cast<int64_t>(FirstMeasured);
  int64_t T0 = nowNs();
  for (size_t I = 0; I != Bodies.size(); ++I)
    Out->handle(Bodies[I], static_cast<int64_t>(I), Rec);
  return secondsBetween(T0, nowNs());
}

/// Median over the measured edits of Vals where Mask[i] == Want.
double medianWhere(const std::vector<double> &Vals,
                   const std::vector<bool> &Mask, bool Want, size_t From) {
  std::vector<double> Sel;
  for (size_t I = From; I < Vals.size(); ++I)
    if (Mask[I] == Want)
      Sel.push_back(Vals[I]);
  return median(Sel);
}

} // namespace

RunResult perfbench::runEditor(const RunOptions &O) {
  RunResult Res;
  size_t NumEdits =
      kWarmupEdits + kEditsPerSecond * static_cast<size_t>(O.Seconds);
  EditorScript Script = makeEditorScript(O.Seed, kWorkspaceFiles, NumEdits);
  std::vector<std::string> Bodies; // didOpens, then every edit, in order
  for (const CorpusFile &F : Script.Workspace)
    Bodies.push_back(didOpenBody(F));
  std::vector<size_t> Versions(kWorkspaceFiles, 0);
  for (const EditorScript::Edit &E : Script.Edits)
    Bodies.push_back(didChangeBody(Script.Workspace[E.File],
                                   ++Versions[E.File], E.Text));
  setGlobalNumThreads(1); // one editor, one loop

  // Set-up: load the artifact, start a session, open the workspace —
  // repeated, the median reported; the last session runs the edits.
  std::vector<double> SetupS, LoadMs;
  std::unique_ptr<Predictor> P;
  std::unique_ptr<Session> S;
  std::vector<Exchange> X(Bodies.size());
  bool Up = true;
  medianLoadSeconds(O.Artifact, 1, P); // warm the page cache, untimed
  for (int Rep = 0; Up && Rep != kSetupReps; ++Rep) {
    if (S)
      S->finish();
    S.reset();
    int64_t T0 = nowNs();
    std::string Err;
    P = Predictor::load(O.Artifact, &Err);
    if (!P)
      throw std::runtime_error("cannot load artifact: " + Err);
    LoadMs.push_back(static_cast<double>(nowNs() - T0) / 1e6);
    S = std::make_unique<Session>(*P);
    Up = S->initialize();
    for (size_t I = 0; Up && I != kWorkspaceFiles; ++I)
      Up = S->client().request(Bodies[I], X[I] = Exchange{});
    SetupS.push_back(secondsBetween(T0, nowNs()));
  }
  for (size_t I = kWorkspaceFiles; Up && I != Bodies.size(); ++I)
    Up = S->client().request(Bodies[I], X[I]);
  int ExitCode = S->finish();
  if (ExitCode != 0)
    std::fprintf(stderr, "editor: session exit code %d\n", ExitCode);
  Res.EndToEnd["peak_rss_mb"] = peakRssMb(); // before the twin's replay

  // Edits measured after the warm-up edits.
  size_t First = kWorkspaceFiles + kWarmupEdits;
  std::vector<double> LatMs, Bytes;
  std::vector<int64_t> EndNs;
  for (size_t I = First; I < X.size(); ++I) {
    LatMs.push_back(static_cast<double>(X[I].LatencyNs) / 1e6);
    Bytes.push_back(static_cast<double>(X[I].BytesIn));
    EndNs.push_back(X[I].EndNs);
  }
  double P99 = supportedPercentile(LatMs.size(), 99);
  std::fprintf(stderr,
               "editor: %zu edits measured (%zu warm-up), p%.2f reported as "
               "latency_p99_ms\n",
               LatMs.size(), kWarmupEdits, P99);
  Res.Attempted = Bodies.size();
  Res.EndToEnd["setup_s"] = median(SetupS);
  Res.EndToEnd["latency_p50_ms"] = medianOfBlockMedians(LatMs, kTimingBlocks);
  Res.EndToEnd["latency_p99_ms"] = percentile(LatMs, P99);
  Res.EndToEnd["throughput_per_s"] =
      medianBlockRate(EndNs, std::vector<double>(EndNs.size(), 1.0),
                      X[First - 1].EndNs, kTimingBlocks);

  // The twin, untraced (the reference digests); traced runs replay once
  // more with spans on.
  Recorder Off(false), On(true);
  std::unique_ptr<Predictor> TP;
  std::unique_ptr<Twin> T;
  double PlainS = replay(O.Artifact, Bodies, First, Off, TP, T);
  std::vector<std::string> Got;
  for (const Exchange &E : X) {
    json::Value V;
    std::string Err;
    const json::Value *Params = nullptr;
    if (!E.TypesBody.empty() && json::parse(E.TypesBody, V, &Err))
      Params = V.find("params");
    Got.push_back(Params ? Params->getString("digest", "") : "");
  }
  Res.EndToEnd["accuracy_pct"] = T->Acc.pct();
  DigestReport D = compareDigests(T->Digests, Got);
  Res.Failed = D.Mismatched + (ExitCode != 0);
  if (D.Mismatched)
    std::fprintf(stderr, "editor: %zu of %zu typilus/types digests wrong or "
                         "missing (first: message %ld)\n",
                 D.Mismatched, D.Compared, D.FirstMismatch);

  auto &L = Res.PerLayer;
  L["core.load_ms"] = median(LoadMs);
  L["knn.markers"] = static_cast<double>(P->typeMap().size());
  L["knn.dead_rows"] = static_cast<double>(P->typeMap().deadMarkers());
  L["knn.compactions"] = static_cast<double>(T->Compactions);
  L["lsp.bytes_out"] = median(Bytes);
  std::fprintf(stderr, "editor: %zu compactions over %zu messages\n",
               T->Compactions, Bodies.size());
  if (O.Trace) {
    std::unique_ptr<Predictor> TP2;
    std::unique_ptr<Twin> T2;
    double TracedS = replay(O.Artifact, Bodies, First, On, TP2, T2);
    if (T2->Digests != T->Digests)
      throw std::runtime_error("traced twin changed a digest");
    // Per-layer medians over the measured edits only.
    std::vector<Span> Spans;
    for (const Span &S : On.spans())
      if (S.Rid >= static_cast<int64_t>(First))
        Spans.push_back(S);
    // Rebase parents: the filter keeps whole trees, in order.
    std::vector<int> NewIdx(On.spans().size(), -1);
    for (size_t I = 0, J = 0; I != On.spans().size(); ++I)
      if (On.spans()[I].Rid >= static_cast<int64_t>(First))
        NewIdx[I] = static_cast<int>(J++);
    for (Span &S : Spans)
      if (S.Parent >= 0)
        S.Parent = NewIdx[static_cast<size_t>(S.Parent)];
    std::map<std::string, double> Self =
        medianSelfUsPerTree(Spans, "lsp.handle");
    L["models.embed_us"] = Self["models.embed"];
    L["knn.probe_us"] = Self["knn.probe"];
    L["core.incremental_self_us"] = Self["core.annotateIncremental"];
    L["pyfront.parse_us"] = Self["pyfront.parse"];
    L["checker.check_us"] = Self["checker.check"];
    L["support.json_us"] = Self["support.json"];
    L["lsp.serialize_us"] = Self["lsp.serialize"];
    L["trace.root_self_us"] = Self["lsp.handle"];
    L["graph.build_us"] = medianSelfUsPerTree(Spans, "graph.build")["graph.build"];
    std::vector<double> Handle;
    for (const Span &S : Spans)
      if (S.Parent < 0 && S.Name == "lsp.handle")
        Handle.push_back(static_cast<double>(S.durNs()) / 1e3);
    L["lsp.handle_us"] = median(Handle);
    std::vector<double> Checks(T2->Checks.begin() +
                                   static_cast<long>(First),
                               T2->Checks.end());
    L["checker.checks_per_edit"] = median(Checks);
    L["knn.compact_us"] =
        std::max(0.0, medianWhere(T2->IncrSelfUs, T2->Compacted, true, First) -
                          medianWhere(T2->IncrSelfUs, T2->Compacted, false,
                                      First));
    L["trace.coverage_pct"] = coveragePct(Spans, "lsp.handle");
    L["trace.overhead_pct"] = 100.0 * (TracedS - PlainS) / PlainS;
    Res.Spans = On.spans();
  }
  return Res;
}
