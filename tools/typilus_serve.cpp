//===- tools/typilus_serve.cpp - The serving daemon ----------------------------===//
//
// The deployment story of Fig. 1 as a long-lived process: load one model
// artifact at startup (~ms: the τmap and any HNSW graph are stored
// snapshots, nothing is rebuilt), then answer newline-delimited JSON
// predict requests over a Unix-domain socket, TCP (--port), or
// stdin/stdout with --stdio — until SIGTERM. Concurrent
// requests coalesce into batches served through Predictor::predictBatch,
// repeated (path, source) requests answer from an LRU response cache,
// and SIGHUP (or a `reload` request) hot-swaps a freshly loaded artifact
// without dropping queued requests. Responses are bit-identical to
// one-shot `typilus_cli predict` on every transport.
//
//   typilus_serve --model model.typilus --socket /tmp/typilus.sock
//   typilus_serve --model model.typilus --port 8401
//   typilus_cli client --tcp 127.0.0.1:8401 --source file.py
//
// Shutdown (SIGTERM/SIGINT or a `shutdown` request) drains: accepting
// stops, queued requests are answered, connections close, exit 0.
//
//===----------------------------------------------------------------------===//

#include "Frontend.h"
#include "nn/Simd.h"
#include "serve/Server.h"
#include "support/Socket.h"
#include "support/Str.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace typilus;
using namespace typilus::serve;

namespace {

struct Options {
  std::string ModelPath, SocketPath, Host = "127.0.0.1";
  int Port = -1; ///< -1 = no TCP transport.
  int Threads = 0, EfSearch = 0;
  ServerOptions Server; ///< The batch, limit, cache and queue flags.
  int64_t MaxRequestBytes = static_cast<int64_t>(kDefaultMaxRequestBytes);
  bool Stdio = false, NoSimd = false;
};

std::vector<Flag> flagTable(Options &O) {
  return {
      {"--model", &O.ModelPath, "PATH", "the artifact to serve"},
      {"--socket", &O.SocketPath, "PATH", "listen on this Unix socket"},
      {"--port", &O.Port, "N", "listen on TCP port N (0 = any free)", 0, 65535},
      {"--stdio", &O.Stdio, "", "serve stdin/stdout instead of listening"},
      {"--host", &O.Host, "ADDR", "TCP bind address (default 127.0.0.1)"},
      {"--threads", &O.Threads, "N", "pool size (0 = hardware, 1 = serial)"},
      {"--max-batch", &O.Server.MaxBatch, "N",
       "requests coalesced per dispatch (default 16)"},
      {"--max-request-bytes", &O.MaxRequestBytes, "N",
       "per-line cap (default 4194304)"},
      {"--limit", &O.Server.Limit, "N",
       "default candidates per symbol (-1 = all)"},
      {"--cache-entries", &O.Server.CacheEntries, "N",
       "response-cache capacity in distinct (path, source) entries "
       "(default 1024, 0 = off)"},
      {"--max-queue", &O.Server.MaxQueue, "N",
       "shed predicts with an `overloaded` error past this queue depth "
       "(default 0 = off)"},
      {"--ef-search", &O.EfSearch, "N",
       "HNSW per-request query budget (0 = the index default, max(4k, 64))"},
      {"--no-simd", &O.NoSimd, "",
       "pin the scalar reference kernels (bit-reproducible across hosts)"},
  };
}

int usage(const char *Argv0) {
  Options Defaults;
  std::fprintf(
      stderr,
      "usage: %s --model PATH (--socket PATH | --port N | --stdio) "
      "[options]\n"
      "\n"
      "Long-lived serving daemon: loads the artifact once and answers\n"
      "newline-delimited JSON predict requests (protocol grammar in\n"
      "docs/ARCHITECTURE.md). --socket and --port may be combined; both\n"
      "transports share one pipeline and one cache. SIGHUP reloads the\n"
      "artifact from --model without dropping queued requests. Options:\n"
      "%s",
      Argv0, flagHelp(flagTable(Defaults)).c_str());
  return 2;
}

//===----------------------------------------------------------------------===//
// Wake handling: the stop pipe (tools/Frontend.h) wakes the accept loop
// (or the stdio LineReader) for both SIGTERM/SIGINT (drain + exit) and
// SIGHUP (hot reload).
//===----------------------------------------------------------------------===//

/// Shared SIGTERM/SIGHUP dispatch for both transports' wake hooks: a
/// SIGHUP submits a reload request with no client and no id, whose
/// outcome is logged instead of answered. \returns true when the daemon
/// should begin its drain.
bool handleWake(Server &S) {
  bool Hangup = drainStopPipe();
  if (stopRequested().load())
    return true;
  if (Hangup) {
    Request R;
    R.Id = -1;
    R.M = Method::Reload;
    S.submit(std::move(R), [](std::string Resp) {
      std::fprintf(stderr, "typilus_serve: SIGHUP reload: %s", Resp.c_str());
    });
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Modes (all drive serve::serveStream; only the transport differs)
//===----------------------------------------------------------------------===//

int runStdio(Server &S, const Options &O) {
  // stdout is borrowed, never closed; a write lock serializes the
  // reader's protocol errors with the dispatcher's responses.
  auto WriteMu = std::make_shared<std::mutex>();
  serveStream(
      STDIN_FILENO, static_cast<size_t>(O.MaxRequestBytes), S,
      [WriteMu](std::string Resp) {
        std::lock_guard<std::mutex> L(*WriteMu);
        (void)writeAll(STDOUT_FILENO, Resp);
      },
      &stopRequested(), /*WakeFd=*/stopPipeFd(),
      /*OnWake=*/[&S] { return handleWake(S); });
  S.stop(); // drain: every submitted request is answered
  return 0;
}

int runListeners(Server &S, const Options &O) {
  UnixListener UL;
  TcpListener TL;
  std::vector<int> ListenFds;
  std::string Err;
  if (!O.SocketPath.empty()) {
    if (!UL.listenOn(O.SocketPath, &Err))
      return fail(Err);
    ListenFds.push_back(UL.fd());
    std::printf("typilus_serve: listening on %s\n", O.SocketPath.c_str());
  }
  if (O.Port >= 0) {
    if (!TL.listenOn(O.Host, static_cast<uint16_t>(O.Port), &Err))
      return fail(Err);
    ListenFds.push_back(TL.fd());
    std::printf("typilus_serve: listening on %s:%u\n", O.Host.c_str(),
                static_cast<unsigned>(TL.port()));
  }
  std::fflush(stdout);

  AcceptLoopOptions AO;
  AO.MaxRequestBytes = static_cast<size_t>(O.MaxRequestBytes);
  AO.WakeFd = stopPipeFd();
  AO.OnWake = [&S] { return handleWake(S); };
  AO.OnDrainStart = [&UL, &TL] {
    UL.close();
    TL.close();
  };
  acceptLoop(ListenFds, S, AO);
  std::printf("typilus_serve: drained, exiting\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseCommandLine(flagTable(O), Argc, Argv, 1))
    return 2;
  if (O.NoSimd)
    nn::simd::setSimdEnabled(false);
  bool HaveListener = !O.SocketPath.empty() || O.Port >= 0;
  if (O.ModelPath.empty() || (!HaveListener && !O.Stdio) ||
      (HaveListener && O.Stdio))
    return usage(Argv[0]);
  if (!installStopPipe(/*CatchHup=*/true))
    return 1;

  setGlobalNumThreads(O.Threads);

  std::string Err;
  std::unique_ptr<Predictor> P =
      openArtifact(O.ModelPath, O.Threads, O.EfSearch, &Err);
  if (!P)
    return fail(Err);
  // In stdio mode stdout IS the response channel — NDJSON only; human
  // chatter goes to stderr there.
  std::FILE *Log = O.Stdio ? stderr : stdout;
  std::string Knobs = strformat(", max-batch %d, cache %d, max-queue %d",
                                O.Server.MaxBatch, O.Server.CacheEntries,
                                O.Server.MaxQueue);
  std::fprintf(Log, "typilus_serve: %s\n",
               loadedBanner(O.ModelPath, *P, Knobs).c_str());
  std::fflush(Log);

  ServerOptions SO = O.Server;
  SO.OnShutdown = requestStop;
  // Hot reload: re-read the artifact from the path given at startup.
  // Runs on the dispatcher thread; failure keeps the current artifact.
  SO.OnReload = [O, Log](std::string *Err) -> std::shared_ptr<Predictor> {
    std::shared_ptr<Predictor> NewP =
        openArtifact(O.ModelPath, O.Threads, O.EfSearch, Err);
    if (NewP) {
      std::fprintf(Log, "typilus_serve: reloaded %s\n", O.ModelPath.c_str());
      std::fflush(Log);
    }
    return NewP;
  };
  Server S(*P, *P->universe(), SO);

  int Rc = O.Stdio ? runStdio(S, O) : runListeners(S, O);
  S.stop();
  return Rc;
}
