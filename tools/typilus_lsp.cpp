//===- tools/typilus_lsp.cpp - The language-server daemon ----------------------===//
//
// Typilus as an editor language server: load one model artifact, then
// speak LSP (JSON-RPC 2.0 over Content-Length frames) on stdio or a
// Unix-domain socket. Every didOpen/didChange runs the incremental loop
// — tombstone the file's τmap markers, re-embed only that file, answer
// through the shared kNN kernel — and publishes predicted types as
// diagnostics plus a `typilus/types` notification. In a single-document
// session its digest matches `typilus_cli predict --source` on the same
// text; other open documents' τmap markers can move it.
//
//   typilus_lsp --model model.typilus --stdio
//   typilus_lsp --model model.typilus --socket /tmp/typilus-lsp.sock
//
// SIGTERM/SIGINT end the session cleanly (exit 0 after a client
// `shutdown`, 1 otherwise, per the LSP spec).
//
//===----------------------------------------------------------------------===//

#include "Frontend.h"
#include "lsp/LspServer.h"
#include "nn/Simd.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <cerrno>
#include <cstdio>
#include <memory>
#include <string>

#include <poll.h>
#include <unistd.h>

using namespace typilus;
using namespace typilus::lsp;

namespace {

struct Options {
  std::string ModelPath, SocketPath;
  int Threads = 0, EfSearch = 0;
  LspOptions Lsp; ///< The publish threshold and inference flags.
  bool Stdio = false, NoCheckerGate = false, NoSimd = false;
};

std::vector<Flag> flagTable(Options &O) {
  return {
      {"--model", &O.ModelPath, "PATH", "the artifact to serve"},
      {"--stdio", &O.Stdio, "", "speak LSP on stdin/stdout"},
      {"--socket", &O.SocketPath, "PATH", "listen on this Unix socket"},
      {"--threads", &O.Threads, "N", "pool size (0 = hardware, 1 = serial)"},
      {"--ef-search", &O.EfSearch, "N", "HNSW query budget (0 = default)"},
      {"--min-confidence", &O.Lsp.MinConfidence, "X",
       "publish threshold (default 0.5)"},
      {"--no-checker-gate", &O.NoCheckerGate, "",
       "publish without the Sec. 6.3 checker gate"},
      {"--infer-locals", &O.Lsp.InferLocals, "",
       "pytype-like inference inside the gate"},
      {"--no-simd", &O.NoSimd, "", "pin the scalar reference kernels"},
  };
}

int usage(const char *Argv0) {
  Options Defaults;
  std::fprintf(
      stderr,
      "usage: %s --model PATH (--stdio | --socket PATH) [options]\n"
      "\n"
      "LSP server over a saved artifact: didOpen/didChange re-embed only\n"
      "the edited file and publish predicted types as diagnostics (and a\n"
      "typilus/types notification carrying the prediction digest).\n"
      "Options:\n"
      "%s",
      Argv0, flagHelp(flagTable(Defaults)).c_str());
  return 2;
}

int runStdio(Predictor &P, const LspOptions &LO) {
  LspServer S(P,
              [](std::string Frame) { (void)writeAll(STDOUT_FILENO, Frame); },
              LO);
  return S.run(STDIN_FILENO, &stopRequested(), stopPipeFd());
}

int runSocket(Predictor &P, const LspOptions &LO, const std::string &Path) {
  UnixListener L;
  std::string Err;
  if (!L.listenOn(Path, &Err))
    return fail(Err);
  std::fprintf(stderr, "typilus_lsp: listening on %s\n", Path.c_str());
  // One editor session at a time: LSP clients own their server process,
  // and the τmap mutation state is per-session by design.
  int Rc = 1;
  while (!stopRequested().load()) {
    struct pollfd Pfd[2] = {{L.fd(), POLLIN, 0}, {stopPipeFd(), POLLIN, 0}};
    if (::poll(Pfd, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Pfd[1].revents != 0 || stopRequested().load())
      break;
    FileDesc Conn = L.acceptConn();
    if (!Conn.valid())
      continue;
    int Fd = Conn.fd();
    LspServer S(P,
                [Fd](std::string Frame) { (void)writeAll(Fd, Frame); }, LO);
    Rc = S.run(Fd, &stopRequested(), stopPipeFd());
  }
  L.close();
  return Rc;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseCommandLine(flagTable(O), Argc, Argv, 1))
    return 2;
  if (O.NoSimd)
    nn::simd::setSimdEnabled(false);
  if (O.ModelPath.empty() || (O.Stdio == !O.SocketPath.empty()))
    return usage(Argv[0]);
  if (!installStopPipe(/*CatchHup=*/false))
    return 1;

  setGlobalNumThreads(O.Threads);

  std::string Err;
  std::unique_ptr<Predictor> P =
      openArtifact(O.ModelPath, O.Threads, O.EfSearch, &Err);
  if (!P)
    return fail(Err);
  // stdout is the protocol channel; human chatter goes to stderr.
  std::fprintf(stderr, "typilus_lsp: %s\n",
               loadedBanner(O.ModelPath, *P).c_str());

  O.Lsp.CheckerGate = !O.NoCheckerGate;
  return O.Stdio ? runStdio(*P, O.Lsp) : runSocket(*P, O.Lsp, O.SocketPath);
}
