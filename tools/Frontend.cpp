//===- tools/Frontend.cpp - The front end the three tools share -----------===//

#include "Frontend.h"

#include <csignal>
#include <cstdio>
#include <cstring>

#include <unistd.h>

namespace typilus {

bool parseCommandLine(const std::vector<Flag> &Table, int Argc, char **Argv,
                      int First) {
  std::vector<std::string> Args(Argv + First, Argv + Argc);
  std::string Err;
  if (parseFlags(Table, Args, &Err))
    return true;
  fail(Err);
  return false;
}

int fail(const std::string &Err) {
  std::fprintf(stderr, "error: %s\n", Err.c_str());
  return 1;
}

std::unique_ptr<Predictor> openArtifact(const std::string &Path, int Threads,
                                        int EfSearch, std::string *Err,
                                        ArchiveReader *Reader) {
  ArchiveReader Local;
  ArchiveReader &R = Reader ? *Reader : Local;
  if (!R.openFile(Path, Err))
    return nullptr;
  std::unique_ptr<Predictor> P = Predictor::load(R, Err);
  if (!P)
    return nullptr;
  KnnOptions KO = P->knnOptions();
  KO.NumThreads = Threads;
  if (EfSearch > 0)
    KO.EfSearch = EfSearch; // query-time budget only; no index rebuild
  P->setKnnOptions(KO);
  return P;
}

std::string loadedBanner(const std::string &Path, Predictor &P,
                         const std::string &Extra) {
  const ModelConfig &MC = P.model().config();
  return "loaded " + Path + " (" + encoderKindName(MC.Encoder) + "/" +
         lossKindName(MC.Loss) + ", D=" + std::to_string(MC.HiddenDim) +
         (P.isKnn() ? ", kNN" : ", classifier") + Extra + ")";
}

namespace {

int GStopPipe[2] = {-1, -1};
std::atomic<bool> GStop{false}, GHangup{false};

/// Sets \p Flag and wakes the poller, once per request; signal-safe.
void raiseFlag(std::atomic<bool> &Flag) {
  bool Expected = false;
  char B = 1;
  // The pipe outlives every writer; a full pipe still wakes the poller.
  if (Flag.compare_exchange_strong(Expected, true))
    (void)!write(GStopPipe[1], &B, 1);
}

} // namespace

bool installStopPipe(bool CatchHup) {
  if (::pipe(GStopPipe) != 0) {
    std::perror("pipe");
    return false;
  }
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = [](int) { raiseFlag(GStop); };
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
  SA.sa_handler = [](int) { raiseFlag(GHangup); };
  if (CatchHup)
    sigaction(SIGHUP, &SA, nullptr);
  return true;
}

int stopPipeFd() { return GStopPipe[0]; }

const std::atomic<bool> &stopRequested() { return GStop; }

void requestStop() { raiseFlag(GStop); }

bool drainStopPipe() {
  char Buf[64];
  (void)!read(GStopPipe[0], Buf, sizeof(Buf));
  return GHangup.exchange(false);
}

} // namespace typilus
